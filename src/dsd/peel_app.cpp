#include "dsd/peel_app.h"

#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "util/timer.h"

namespace dsd {

DensestResult PeelApp(const Graph& graph, const MotifOracle& oracle,
                      const ExecutionContext& ctx) {
  Timer timer;
  DensestResult result;
  // The peeling loop of Algorithm 2 is exactly the decomposition loop of
  // Algorithm 3 with residual-density tracking; the answer is the residual
  // subgraph of maximum density.
  const std::shared_ptr<const MotifCoreDecomposition> decomposition =
      DecomposeForSolve(graph, oracle, ctx, result.stats);
  if (decomposition->best_residual_density > 0.0) {
    FillResult(graph, oracle, decomposition->BestResidualVertices(), result,
               ctx);
  } else {
    FillResult(graph, oracle, {}, result, ctx);
  }
  result.stats.total_seconds = timer.Seconds();
  return result;
}

}  // namespace dsd
