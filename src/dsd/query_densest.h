// Query-anchored densest subgraph (Section 6.3's "variant of CDS problem"):
// given a set Q of query vertices, find the maximum-Psi-density subgraph
// that CONTAINS all of Q.
//
// Any superset of Q is feasible, so the search starts from the denser of
// two supersets the decomposition already holds: the paper's x-core (x =
// the minimum motif-core number over Q) and the best residual suffix plus
// Q. Its density d bounds the optimum from below, so the flow search runs
// on the Q-protected ceil(d)-core instead of all of G, by the Dinkelbach
// iteration of dsd/dinkelbach.h. Query vertices are forced onto the source
// side with infinite s->q arcs.
#ifndef DSD_DSD_QUERY_DENSEST_H_
#define DSD_DSD_QUERY_DENSEST_H_

#include <span>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// Exact max-density subgraph containing every vertex of `query`. When
/// several share the optimum density, returns their union (the largest).
/// An empty `query` runs CoreExact.
DensestResult QueryDensest(const Graph& graph, const MotifOracle& oracle,
                           std::span<const VertexId> query,
                           const ExecutionContext& ctx = ExecutionContext());

/// Brute-force reference for QueryDensest (n <= 24), for tests.
DensestResult BruteForceQueryDensest(const Graph& graph,
                                     const MotifOracle& oracle,
                                     std::span<const VertexId> query);

}  // namespace dsd

#endif  // DSD_DSD_QUERY_DENSEST_H_
