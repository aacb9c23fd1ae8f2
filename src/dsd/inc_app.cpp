#include "dsd/inc_app.h"

#include <optional>

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
  // The kmax-core is a removal suffix of a complete decomposition, so its
  // count is read from the decomposition; a truncated one is measured.
  if (decomposition->kmax == 0) {
    FillResult({}, 0, result);
  } else if (const std::optional<size_t> start =
                 decomposition->CoreStart(decomposition->kmax)) {
    decomposition->FillSuffix(*start, result);
  } else {
    FillResult(graph, oracle, decomposition->CoreVertices(decomposition->kmax),
               result, ctx);
  }
  result.stats.total_seconds = timer.Seconds();
  return result;
}

}  // namespace dsd
