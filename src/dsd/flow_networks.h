// Flow-network constructions for the exact DSD algorithms.
//
// Every exact algorithm answers the same oracle question at each density
// guess: "does G contain a subgraph with Psi-density greater than alpha?"
// Each construction below reduces that question to a minimum st-cut whose
// source side (minus s) induces such a subgraph when one exists:
//   * EdsFlowSolver      — Goldberg's network for the edge case (h = 2).
//   * CliqueFlowSolver   — Algorithm 1's network over (h-1)-clique nodes.
//   * PatternFlowSolver  — Algorithm 8 (PExact, one node per instance) and
//                          Algorithm 7 (construct+, one node per group of
//                          instances sharing a vertex set), selected by the
//                          `grouped` flag; Lemma 11 proves both cuts equal.
//
// Solvers are built once per (sub)graph: the structure is alpha-independent,
// only the v->t capacities are retuned between Solve() calls. Exact's
// bisection moves alpha both ways; the Dinkelbach search of CoreExact and
// QueryDensest (dsd/dinkelbach.h) only raises it, so the v->t capacities
// only grow and a warm start never has to cancel flow. CoreExact builds one
// solver per located component and never rebuilds it mid-search.
#ifndef DSD_DSD_FLOW_NETWORKS_H_
#define DSD_DSD_FLOW_NETWORKS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "flow/flow_network.h"
#include "graph/graph.h"

namespace dsd {

/// Min-cut feasibility test at a density guess.
///
/// Solvers run on the warm-startable flow/flow_network.h engine: the first
/// Solve routes flow from scratch, and each later Solve retunes the v->t
/// capacities as residual deltas and re-routes only the difference. The
/// max flow itself is sequential; the ExecutionContext the solver was
/// built with supplies the construction's thread budget and the deadline
/// and cancel flag each Solve polls (a truncated Solve returns the cut of
/// an incomplete flow, so callers re-validate candidates, as CoreExact
/// does by re-measuring density).
class DensestFlowSolver {
 public:
  virtual ~DensestFlowSolver() = default;

  /// Returns the graph vertices on the source side of a minimum st-cut with
  /// guess alpha. Empty result means S = {s}: no subgraph with density
  /// exceeding alpha exists.
  virtual std::vector<VertexId> Solve(double alpha) = 0;

  /// After a completed Solve(alpha): the graph vertices on the source side
  /// of the sink-side-minimal minimum cut, a superset of Solve's answer.
  /// At alpha = the optimum density it is the union of every optimal set
  /// (the unique largest optimum), which is how ties are pinned.
  virtual std::vector<VertexId> MaximalSide() const = 0;

  /// Total flow-network nodes (Figure 9's y-axis).
  virtual uint64_t NumNodes() const = 0;

  /// Forces the given graph vertices onto the source side of every future
  /// min cut (s->v capacity becomes +inf). Used by the query-anchored
  /// variant of Section 6.3.
  virtual void ForceToSource(const std::vector<VertexId>& vertices) = 0;

  /// When off, every Solve re-routes from scratch — the ablation baseline
  /// (CoreExactOptions::flow_warm_start = false). Default on.
  virtual void SetWarmStart(bool on) = 0;

  /// Cumulative work counters of the underlying flow engine.
  virtual FlowStats Stats() const = 0;
};

/// Folds a solver's flow-engine counters into per-run stats; the exact
/// algorithms call this before dropping or rebuilding a solver.
inline void AccumulateFlowStats(const DensestFlowSolver& solver,
                                AlgoStats& stats) {
  const FlowStats fs = solver.Stats();
  stats.flow_max_flow_calls += fs.max_flow_calls;
  stats.flow_warm_starts += fs.warm_starts;
  stats.flow_discharges += fs.discharges;
  stats.flow_pushes += fs.pushes;
  stats.flow_relabels += fs.relabels;
  stats.flow_global_relabels += fs.global_relabels;
}

/// Goldberg's EDS network (Section 4.1 remark): nodes {s} ∪ V ∪ {t};
/// s->v cap m, v->t cap m + 2*alpha - deg(v), each edge 1 both ways.
std::unique_ptr<DensestFlowSolver> MakeEdsFlowSolver(
    const Graph& graph, const ExecutionContext& ctx = ExecutionContext());

/// Algorithm 1's clique network: nodes {s} ∪ V ∪ Λ ∪ {t} with Λ the
/// (h-1)-clique instances; s->v cap deg(v, Psi), v->t cap alpha*h,
/// psi->member cap +inf, v->psi cap 1 when {v} ∪ psi is an h-clique.
/// `ctx` parallelises the h-clique degree pass of the construction.
std::unique_ptr<DensestFlowSolver> MakeCliqueFlowSolver(
    const Graph& graph, int h,
    const ExecutionContext& ctx = ExecutionContext());

/// Pattern network over the oracle's instances. grouped = false gives
/// Algorithm 8 (PExact): one node per instance, v->psi cap 1,
/// psi->v cap |V_Psi| - 1. grouped = true gives construct+ (Algorithm 7):
/// one node per vertex-set group g, v->g cap |g|, g->v cap |g|(|V_Psi|-1).
std::unique_ptr<DensestFlowSolver> MakePatternFlowSolver(
    const Graph& graph, const MotifOracle& oracle, bool grouped,
    const ExecutionContext& ctx = ExecutionContext());

/// The construction each oracle's exact algorithms use by default:
/// EDS network for 2-cliques, Algorithm 1 for larger cliques, construct+
/// for general patterns. Dispatches on the oracle's Underlying() type, so
/// decorators (CachingOracle) keep the clique fast path; the degree pass
/// goes through `oracle` itself, which is how a parallel or caching oracle
/// accelerates network construction.
std::unique_ptr<DensestFlowSolver> MakeDefaultFlowSolver(
    const Graph& graph, const MotifOracle& oracle,
    const ExecutionContext& ctx = ExecutionContext());

}  // namespace dsd

#endif  // DSD_DSD_FLOW_NETWORKS_H_
