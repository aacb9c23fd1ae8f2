// The density search CoreExact and QueryDensest share: Dinkelbach's
// parametric iteration (Dinkelbach 1967) over a DensestFlowSolver.
//
// Algorithm 4 bisects alpha between Theorem 1's bounds until the gap drops
// below 1/(n(n-1)). Dinkelbach instead starts at a density some known set
// already attains and moves alpha to the density of each Solve(alpha)
// witness. Every step strictly raises alpha over the finite family of set
// densities, so the search ends at the optimum — typically after a handful
// of solves rather than ~30 — and alpha never falls, which keeps the warm-
// started flow in the monotone parametric setting of Gallo, Grigoriadis and
// Tarjan (1989): v->t capacities only grow, so no routed flow is cancelled.
// Exact keeps Algorithm 1's bisection as the paper's baseline.
#ifndef DSD_DSD_DINKELBACH_H_
#define DSD_DSD_DINKELBACH_H_

#include <vector>

#include "dsd/execution_context.h"
#include "dsd/flow_networks.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"
#include "graph/subgraph.h"

namespace dsd {

/// Outcome of one DinkelbachSearch.
struct DensitySearch {
  /// Parent-graph ids of the densest set the network holds, sorted; empty
  /// when no set in it reaches the start density.
  std::vector<VertexId> vertices;
  /// rho(vertices); the start density when `vertices` is empty.
  double density = 0.0;
  /// mu(vertices), so the caller need not recount its answer; 0 when
  /// `vertices` is empty.
  uint64_t instances = 0;
};

/// Searches the network `solver` was built on (sub.graph, an induced
/// subgraph of `graph`) from `alpha`, a density the caller already holds a
/// set for: alpha <- rho(witness of Solve(alpha)) until a witness no longer
/// beats alpha. The terminating solve's maximal min-cut side — the union of
/// every set at the final density, the unique largest one since motif
/// counts are supermodular — is returned when it measures that dense, so
/// ties resolve to the maximal answer. Densities are measured on `graph`
/// through `oracle`. Each solve counts in stats.binary_search_iterations.
/// ctx is polled between solves; a stopped search returns the densest
/// measured witness (best effort).
DensitySearch DinkelbachSearch(const Graph& graph, const MotifOracle& oracle,
                               const Subgraph& sub, DensestFlowSolver& solver,
                               double alpha, const ExecutionContext& ctx,
                               AlgoStats& stats);

}  // namespace dsd

#endif  // DSD_DSD_DINKELBACH_H_
