#include "dsd/query_densest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "dsd/core_exact.h"
#include "dsd/dinkelbach.h"
#include "dsd/flow_networks.h"
#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "graph/subgraph.h"
#include "util/timer.h"

namespace dsd {

DensestResult QueryDensest(const Graph& graph, const MotifOracle& oracle,
                           std::span<const VertexId> query,
                           const ExecutionContext& ctx) {
  if (query.empty()) return CoreExact(graph, oracle, CoreExactOptions(), ctx);
  Timer timer;
  DensestResult result;
  const VertexId n = graph.NumVertices();
  assert(n >= 1);
  for (VertexId q : query) {
    assert(q < n);
    (void)q;
  }

  // Any superset of Q is feasible, so the start density is the denser of
  // two supersets the decomposition already holds: the x-core (x = min core
  // number over Q; the paper's anchor) and the best residual suffix plus Q.
  // Every candidate carries its instance count, read from the decomposition
  // where it is a removal suffix, so the answer is never recounted.
  const std::shared_ptr<const MotifCoreDecomposition> decomposition =
      DecomposeForSolve(graph, oracle, ctx, result.stats);
  uint64_t x = UINT64_MAX;
  for (VertexId q : query) x = std::min(x, decomposition->core[q]);
  std::vector<VertexId> best = decomposition->CoreVertices(x);
  const std::optional<size_t> core_start = decomposition->CoreStart(x);
  uint64_t best_instances =
      core_start ? decomposition->residual_instances[*core_start]
                 : MeasureInstances(graph, oracle, best, ctx);
  double best_density = Density(best_instances, best.size());

  const size_t suffix_start = decomposition->best_residual_start;
  std::vector<VertexId> anchored = decomposition->SuffixVertices(suffix_start);
  const size_t suffix_size = anchored.size();
  anchored.insert(anchored.end(), query.begin(), query.end());
  std::sort(anchored.begin(), anchored.end());
  anchored.erase(std::unique(anchored.begin(), anchored.end()),
                 anchored.end());
  const uint64_t anchored_instances =
      anchored.size() == suffix_size &&
              suffix_start < decomposition->residual_instances.size()
          ? decomposition->residual_instances[suffix_start]
          : MeasureInstances(graph, oracle, anchored, ctx);
  const double anchored_density =
      Density(anchored_instances, anchored.size());
  if (anchored_density > best_density) {
    best_density = anchored_density;
    best = std::move(anchored);
    best_instances = anchored_instances;
  }

  // Every non-Q vertex of an optimal answer D has motif-degree >= rho(D)
  // inside D (else dropping it would raise the density), so the optimum
  // lies in the Q-protected ceil(best_density)-core. Its bulk pass over all
  // of V reads the decomposition's whole-graph degrees.
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  std::vector<VertexId> located = RestrictToCore(
      graph, oracle, all, static_cast<uint64_t>(std::ceil(best_density)),
      ctx, query, decomposition->degree);
  result.stats.located_vertices = located.size();

  if (located.size() >= 2 && !ctx.ShouldStop()) {
    Subgraph sub = InducedSubgraph(graph, located);
    std::vector<VertexId> local_query;
    for (VertexId q : query) {
      local_query.push_back(static_cast<VertexId>(
          std::lower_bound(located.begin(), located.end(), q) -
          located.begin()));
    }
    std::unique_ptr<DensestFlowSolver> solver =
        MakeDefaultFlowSolver(sub.graph, oracle, ctx);
    solver->ForceToSource(local_query);
    DensitySearch found = DinkelbachSearch(graph, oracle, sub, *solver,
                                           best_density, ctx, result.stats);
    AccumulateFlowStats(*solver, result.stats);
    // Q is forced into every cut, so the search's sets all contain Q; on a
    // tie the search returns the union of the optimal sets, a superset of
    // `best` whenever `best` is optimal.
    if (found.density > best_density ||
        (found.density == best_density &&
         found.vertices.size() > best.size())) {
      best = std::move(found.vertices);
      best_instances = found.instances;
    }
  }

  FillResult(std::move(best), best_instances, result);
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
