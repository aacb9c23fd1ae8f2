#include "dsd/query_densest.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsd/core_exact.h"
#include "dsd/flow_networks.h"
#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "graph/subgraph.h"
#include "util/timer.h"

namespace dsd {

namespace {

// Q-protected core restriction: batch-drops non-query vertices whose motif
// degree falls below k. Query vertices are never dropped, but still supply
// degrees to their neighbors. Valid location for the optimum: every non-Q
// vertex of the optimal answer participates in >= ceil(rho*) >= k instances
// inside the answer (Lemma 4's argument applied to removable vertices only).
std::vector<VertexId> RestrictToCoreProtected(
    const Graph& graph, const MotifOracle& oracle,
    const std::vector<VertexId>& vertices, uint64_t k,
    std::span<const VertexId> query, const ExecutionContext& ctx) {
  std::vector<char> is_query(graph.NumVertices(), 0);
  for (VertexId q : query) is_query[q] = 1;
  std::vector<VertexId> survivors(vertices);
  std::sort(survivors.begin(), survivors.end());
  // Polled like RestrictToCore: every round is a full degree pass, and a
  // superset of the protected core is a valid (best-effort) search space.
  // Like RestrictToCore, rounds are alive-masked queries on the parent
  // graph, keyed by its generation tag in the CachingOracle — an induced
  // rebuild per round would make every query an uncacheable fresh graph.
  std::vector<char> alive(graph.NumVertices(), 0);
  for (VertexId v : survivors) alive[v] = 1;
  while (!ctx.ShouldStop()) {
    std::vector<uint64_t> degree = oracle.Degrees(graph, alive, ctx);
    std::vector<VertexId> next;
    next.reserve(survivors.size());
    for (VertexId v : survivors) {
      if (degree[v] >= k || is_query[v]) {
        next.push_back(v);
      } else {
        alive[v] = 0;
      }
    }
    if (next.size() == survivors.size()) break;
    survivors = std::move(next);
  }
  return survivors;
}

}  // namespace

DensestResult QueryDensest(const Graph& graph, const MotifOracle& oracle,
                           std::span<const VertexId> query,
                           const ExecutionContext& ctx) {
  if (query.empty()) return CoreExact(graph, oracle, CoreExactOptions(), ctx);
  Timer timer;
  DensestResult result;
  const VertexId n = graph.NumVertices();
  const int h = oracle.MotifSize();
  assert(n >= 1);
  for (VertexId q : query) {
    assert(q < n);
    (void)q;
  }

  // Core decomposition gives x = min core number over Q; the x-core contains
  // Q and has density >= x / |V_Psi| (Theorem 1), the paper's lower bound.
  const std::shared_ptr<const MotifCoreDecomposition> decomposition =
      DecomposeForSolve(graph, oracle, ctx, result.stats);

  uint64_t x = UINT64_MAX;
  for (VertexId q : query) x = std::min(x, decomposition->core[q]);

  // Initial candidate: the x-core (always contains Q).
  std::vector<VertexId> best = decomposition->CoreVertices(x);
  double best_density = MeasureDensity(graph, oracle, best, ctx);
  double lower = std::max(static_cast<double>(x) / h, best_density);
  double upper = static_cast<double>(decomposition->kmax);

  // Locate the search in the Q-protected ceil(lower)-core.
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  std::vector<VertexId> located = RestrictToCoreProtected(
      graph, oracle, all, static_cast<uint64_t>(std::ceil(lower)), query,
      ctx);
  result.stats.located_vertices = located.size();

  if (located.size() >= 2 && upper > lower && !ctx.ShouldStop()) {
    Subgraph sub = InducedSubgraph(graph, located);
    std::vector<VertexId> local_query;
    for (VertexId i = 0; i < sub.graph.NumVertices(); ++i) {
      if (std::find(query.begin(), query.end(), sub.to_parent[i]) !=
          query.end()) {
        local_query.push_back(i);
      }
    }
    std::unique_ptr<DensestFlowSolver> solver =
        MakeDefaultFlowSolver(sub.graph, oracle, ctx);
    solver->ForceToSource(local_query);
    const double gap =
        1.0 / (static_cast<double>(located.size()) *
               std::max<double>(1.0, static_cast<double>(located.size()) - 1));
    while (upper - lower >= gap && !ctx.ShouldStop()) {
      const double alpha = (lower + upper) / 2.0;
      std::vector<VertexId> side = solver->Solve(alpha);
      ++result.stats.binary_search_iterations;
      // Q is forced into S, so S is never just {s}: feasibility is decided
      // by the witness's actual density.
      std::vector<VertexId> candidate = sub.ToParent(side);
      double density = MeasureDensity(graph, oracle, candidate, ctx);
      if (density > alpha) {
        lower = alpha;
        if (density > best_density) {
          best_density = density;
          best = std::move(candidate);
        }
      } else {
        upper = alpha;
      }
    }
  }

  if (best.empty()) best.assign(query.begin(), query.end());
  FillResult(graph, oracle, std::move(best), result, ctx);
  result.stats.total_seconds = timer.Seconds();
  return result;
}

DensestResult BruteForceQueryDensest(const Graph& graph,
                                     const MotifOracle& oracle,
                                     std::span<const VertexId> query) {
  const VertexId n = graph.NumVertices();
  assert(n <= 24);
  uint32_t query_mask = 0;
  for (VertexId q : query) query_mask |= 1u << q;

  DensestResult result;
  std::vector<VertexId> best;
  double best_density = -1.0;
  std::vector<VertexId> subset;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if ((mask & query_mask) != query_mask) continue;
    subset.clear();
    for (VertexId v = 0; v < n; ++v) {
      if ((mask >> v) & 1u) subset.push_back(v);
    }
    double density = MeasureDensity(graph, oracle, subset);
    if (density > best_density ||
        (density == best_density && subset.size() > best.size())) {
      best_density = density;
      best = subset;
    }
  }
  FillResult(graph, oracle, std::move(best), result);
  return result;
}

}  // namespace dsd
