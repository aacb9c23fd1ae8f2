#include "dsd/extensions.h"

#include <algorithm>
#include <cassert>

#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "util/timer.h"

namespace dsd {

DensestResult DensestAtLeast(const Graph& graph, const MotifOracle& oracle,
                             VertexId min_size,
                             const ExecutionContext& ctx) {
  Timer timer;
  DensestResult result;
  const std::shared_ptr<const MotifCoreDecomposition> decomposition =
      DecomposeForSolve(graph, oracle, ctx, result.stats);

  // Scan residual graphs (suffixes of the removal order) that still have at
  // least min_size vertices; keep the densest. residual_density may be
  // shorter than removal_order when the decomposition was deadline-
  // truncated — only measured suffixes are candidates.
  const size_t n = decomposition->removal_order.size();
  size_t best_start = 0;
  double best_density = -1.0;
  for (size_t start = 0; start < decomposition->residual_density.size();
       ++start) {
    if (n - start < min_size) break;
    if (decomposition->residual_density[start] > best_density) {
      best_density = decomposition->residual_density[start];
      best_start = start;
    }
  }
  if (best_density < 0) {
    // Graph smaller than min_size: best effort is the whole vertex set.
    std::vector<VertexId> all(graph.NumVertices());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) all[v] = v;
    FillResult(graph, oracle, std::move(all), result, ctx);
  } else {
    std::vector<VertexId> vertices(
        decomposition->removal_order.begin() +
            static_cast<ptrdiff_t>(best_start),
        decomposition->removal_order.end());
    FillResult(graph, oracle, std::move(vertices), result, ctx);
  }
  result.stats.total_seconds = timer.Seconds();
  return result;
}

DensestResult StreamApp(const Graph& graph, const MotifOracle& oracle,
                        double eps, const ExecutionContext& ctx) {
  assert(eps > 0);
  Timer timer;
  DensestResult result;
  const int h = oracle.MotifSize();

  std::vector<VertexId> current(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) current[v] = v;
  std::vector<VertexId> best;
  double best_density = -1.0;

  // Passes query the parent graph under an alive mask (the modelled stream
  // filter), so the decorated oracle can key them by the graph's stable
  // generation tag instead of one dead fresh-subgraph entry per pass.
  std::vector<char> alive(graph.NumVertices(), 1);
  while (!current.empty() && !ctx.ShouldStop()) {
    const uint64_t instances = oracle.CountInstances(graph, alive, ctx);
    const double density =
        static_cast<double>(instances) / static_cast<double>(current.size());
    if (density > best_density) {
      best_density = density;
      best = current;
    }
    if (instances == 0) break;
    // One pass: drop everything below the (1+eps) * h * rho threshold.
    const double threshold = (1.0 + eps) * h * density;
    std::vector<uint64_t> degrees = oracle.Degrees(graph, alive, ctx);
    std::vector<VertexId> next;
    next.reserve(current.size());
    for (VertexId v : current) {
      if (static_cast<double>(degrees[v]) > threshold) {
        next.push_back(v);
      } else {
        alive[v] = 0;
      }
    }
    if (next.size() == current.size()) break;  // defensive: cannot happen
    current = std::move(next);
    ++result.stats.binary_search_iterations;  // reused as "pass count"
  }

  FillResult(graph, oracle, std::move(best), result, ctx);
  result.stats.total_seconds = timer.Seconds();
  return result;
}

}  // namespace dsd
