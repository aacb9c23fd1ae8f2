// CoreApp (Algorithm 6): top-down computation of the (kmax, Psi)-core.
//
// Instead of decomposing every core bottom-up (IncApp), CoreApp searches a
// geometrically growing prefix W of vertices ordered by a cheap upper bound
// gamma on their motif-core numbers. Once every vertex outside W has
// gamma < kmax(current), no outside vertex can join the (kmax, Psi)-core and
// the search stops. Same 1/|V_Psi| guarantee, far less peeling in practice.
#ifndef DSD_DSD_CORE_APP_H_
#define DSD_DSD_CORE_APP_H_

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// Tuning for CoreApp's prefix-doubling search.
struct CoreAppOptions {
  /// Initial |W| (top-gamma vertices examined first). Doubled each round.
  VertexId initial_window = 32;
};

/// Returns the (kmax, Psi)-core computed top-down (Algorithm 6).
/// Guaranteed identical to IncApp's answer. `ctx` parallelises the
/// batch degree passes of the window restrictions (RestrictToCore), which
/// dominate CoreApp's cost.
DensestResult CoreApp(const Graph& graph, const MotifOracle& oracle,
                      const CoreAppOptions& options = {},
                      const ExecutionContext& ctx = ExecutionContext());

}  // namespace dsd

#endif  // DSD_DSD_CORE_APP_H_
