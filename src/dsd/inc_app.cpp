#include "dsd/inc_app.h"

#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "util/timer.h"

namespace dsd {

DensestResult IncApp(const Graph& graph, const MotifOracle& oracle,
                     const ExecutionContext& ctx) {
  Timer timer;
  DensestResult result;
  // The paper's sequential baseline always peels: it never reads the
  // decomposition index, so its timings stay those of Algorithm 5.
  ExecutionContext peel_ctx = ctx;
  peel_ctx.decompositions = nullptr;
  const std::shared_ptr<const MotifCoreDecomposition> decomposition =
      DecomposeForSolve(graph, oracle, peel_ctx, result.stats);
  if (decomposition->kmax > 0) {
    FillResult(graph, oracle, decomposition->CoreVertices(decomposition->kmax),
               result, ctx);
  } else {
    FillResult(graph, oracle, {}, result, ctx);
  }
  result.stats.total_seconds = timer.Seconds();
  return result;
}

}  // namespace dsd
