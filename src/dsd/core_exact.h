// CoreExact (Algorithm 4): the paper's core-located exact algorithm, and
// CorePExact, its general-pattern instantiation with the construct+ network.
//
// Optimisations over Algorithm 1 (Section 6.1):
//   1. the search starts from a density some set already attains (Pruning1's
//      rho', else the kmax-core's density, which Theorem 1 bounds below by
//      kmax/|V_Psi|);
//   2. the CDS is located inside a small (k'', Psi)-core (Lemma 7 +
//      Pruning1/Pruning2), and flow networks are built per connected
//      component of that core;
//   3. once a denser set is known, later components are first restricted
//      to the higher core it implies (Lemma 7), shrinking their networks.
// Unlike Algorithm 4, each component is searched by Dinkelbach's iteration
// (dsd/dinkelbach.h) rather than by bisection: alpha only rises, a search
// takes a handful of flow solves, and no network is rebuilt mid-search.
// Ties resolve to the largest CDS, the union of every densest set.
// Pruning1 and Pruning2 can be toggled independently for the Figure 10
// ablation.
#ifndef DSD_DSD_CORE_EXACT_H_
#define DSD_DSD_CORE_EXACT_H_

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// Toggles for CoreExact's pruning rules (both on by default; Figure 10
/// evaluates each in isolation).
struct CoreExactOptions {
  /// Pruning1: locate the CDS in the (ceil(rho'), Psi)-core, rho' = best
  /// residual density seen during decomposition. When off, falls back to the
  /// Theorem-1 bound ceil(kmax / |V_Psi|).
  bool pruning1 = true;
  /// Pruning2: raise the core level and the lower bound using per-connected-
  /// component densities.
  bool pruning2 = true;
  /// Record the size of every flow network built (one per searched
  /// component), after the hypothetical whole-graph network (Figure 9).
  /// Costs one extra instance scan of the full graph.
  bool track_network_sizes = false;
  /// Warm-start the flow network across search iterations (each guess
  /// re-routes only the delta against the previous preflow). Off = the
  /// cold-start-per-iteration baseline BENCH_flow.json compares against;
  /// the min cuts are identical either way.
  bool flow_warm_start = true;
};

/// Exact CDS via (k, Psi)-cores (Algorithm 4). Works for any oracle; with a
/// PatternOracle this is CorePExact (Section 7.2), using the construct+
/// grouped flow network. `ctx` parallelises the oracle's degree
/// and count passes (decomposition, core restriction, component measuring,
/// network construction) and is polled between flow solves for cooperative
/// early exit (best-effort result; see dsd::Solve).
DensestResult CoreExact(const Graph& graph, const MotifOracle& oracle,
                        const CoreExactOptions& options = {},
                        const ExecutionContext& ctx = ExecutionContext());

/// Paper-named alias for the pattern instantiation.
DensestResult CorePExact(const Graph& graph, const PatternOracle& oracle,
                         const CoreExactOptions& options = {},
                         const ExecutionContext& ctx = ExecutionContext());

}  // namespace dsd

#endif  // DSD_DSD_CORE_EXACT_H_
