#include "dsd/measure.h"

#include <algorithm>

namespace dsd {

uint64_t MeasureInstances(const Graph& graph, const MotifOracle& oracle,
                          std::span<const VertexId> vertices,
                          const ExecutionContext& ctx) {
  if (vertices.empty()) return 0;
  // A masked query on the parent graph; the oracle builds the induced
  // subgraph itself when its kernel needs one.
  std::vector<char> alive(graph.NumVertices(), 0);
  for (VertexId v : vertices) alive[v] = 1;
  return oracle.CountInstances(graph, alive, ctx);
}

double Density(uint64_t instances, size_t size) {
  return size == 0 ? 0.0
                   : static_cast<double>(instances) / static_cast<double>(size);
}

double MeasureDensity(const Graph& graph, const MotifOracle& oracle,
                      std::span<const VertexId> vertices,
                      const ExecutionContext& ctx) {
  return Density(MeasureInstances(graph, oracle, vertices, ctx),
                 vertices.size());
}

void FillResult(const Graph& graph, const MotifOracle& oracle,
                std::vector<VertexId> vertices, DensestResult& result,
                const ExecutionContext& ctx) {
  const uint64_t instances = MeasureInstances(graph, oracle, vertices, ctx);
  FillResult(std::move(vertices), instances, result);
}

void FillResult(std::vector<VertexId> vertices, uint64_t instances,
                DensestResult& result) {
  std::sort(vertices.begin(), vertices.end());
  result.vertices = std::move(vertices);
  result.instances = instances;
  result.density = Density(instances, result.vertices.size());
}

}  // namespace dsd
