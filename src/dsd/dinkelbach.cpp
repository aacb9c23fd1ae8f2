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
    // The converging solve usually returns the witness it was started
    // from, whose count is already known.
    const uint64_t instances =
        witness == result.vertices
            ? result.instances
            : MeasureInstances(graph, oracle, witness, ctx);
    const double density = Density(instances, witness.size());
    if (density <= result.density) {
      converged = true;
      break;
    }
    result.vertices = std::move(witness);
    result.density = density;
    result.instances = instances;
  }
  if (converged && !ctx.ShouldStop()) {
    std::vector<VertexId> tie = sub.ToParent(solver.MaximalSide());
    if (tie.size() > result.vertices.size()) {
      const uint64_t instances = MeasureInstances(graph, oracle, tie, ctx);
      const double density = Density(instances, tie.size());
      if (density >= result.density) {
        result.vertices = std::move(tie);
        result.density = density;
        result.instances = instances;
      }
    }
  }
  return result;
}

}  // namespace dsd
