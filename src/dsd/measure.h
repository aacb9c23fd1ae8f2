// Helpers to measure a candidate subgraph against an oracle.
#ifndef DSD_DSD_MEASURE_H_
#define DSD_DSD_MEASURE_H_

#include <span>
#include <vector>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// mu(G[vertices], Psi): instances inside the induced subgraph.
uint64_t MeasureInstances(const Graph& graph, const MotifOracle& oracle,
                          std::span<const VertexId> vertices,
                          const ExecutionContext& ctx = ExecutionContext());

/// instances / size, the one density division every answer uses; 0 for
/// the empty set.
double Density(uint64_t instances, size_t size);

/// rho(G[vertices], Psi); 0 for the empty set.
double MeasureDensity(const Graph& graph, const MotifOracle& oracle,
                      std::span<const VertexId> vertices,
                      const ExecutionContext& ctx = ExecutionContext());

/// Fills result.vertices (sorted), result.instances and result.density.
void FillResult(const Graph& graph, const MotifOracle& oracle,
                std::vector<VertexId> vertices, DensestResult& result,
                const ExecutionContext& ctx = ExecutionContext());

/// The same for a set whose instance count the caller already holds.
void FillResult(std::vector<VertexId> vertices, uint64_t instances,
                DensestResult& result);

}  // namespace dsd

#endif  // DSD_DSD_MEASURE_H_
