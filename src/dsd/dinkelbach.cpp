#include "dsd/dinkelbach.h"

#include "dsd/measure.h"

namespace dsd {

DensitySearch DinkelbachSearch(const Graph& graph, const MotifOracle& oracle,
                               const Subgraph& sub, DensestFlowSolver& solver,
                               double alpha, const ExecutionContext& ctx,
                               AlgoStats& stats) {
  DensitySearch result;
  result.density = alpha;
  bool converged = false;
  while (!ctx.ShouldStop()) {
    const std::vector<VertexId> side = solver.Solve(result.density);
    ++stats.binary_search_iterations;
    // The witness is re-measured rather than trusted: forced query
    // vertices keep S non-empty even when nothing beats alpha, and a
    // truncated solve returns the cut of an incomplete flow.
    std::vector<VertexId> witness = sub.ToParent(side);
    const double density = MeasureDensity(graph, oracle, witness, ctx);
    if (density <= result.density) {
      converged = true;
      break;
    }
    result.vertices = std::move(witness);
    result.density = density;
  }
  if (converged && !ctx.ShouldStop()) {
    std::vector<VertexId> tie = sub.ToParent(solver.MaximalSide());
    if (tie.size() > result.vertices.size()) {
      const double density = MeasureDensity(graph, oracle, tie, ctx);
      if (density >= result.density) {
        result.vertices = std::move(tie);
        result.density = density;
      }
    }
  }
  return result;
}

}  // namespace dsd
