// Classical (edge-based) k-core decomposition, Batagelj-Zaversnik bin sort.
//
// Substrate for: CoreApp's clique-degree upper bound gamma(v) = C(core(v),
// h-1) (Section 6.2), the degeneracy ordering behind each graph's clique
// orientation (built once per graph, see GraphOrientation in
// clique/clique_enumerator.h), and the EDS specialisations.
#ifndef DSD_CORE_KCORE_H_
#define DSD_CORE_KCORE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace dsd {

/// Result of a k-core decomposition.
struct CoreDecomposition {
  /// core[v] = core number of v (highest k such that v is in the k-core).
  std::vector<uint32_t> core;
  /// Maximum core number (the graph's degeneracy).
  uint32_t kmax = 0;
  /// Vertices in non-decreasing core-number removal order (a degeneracy
  /// ordering).
  std::vector<VertexId> order;

  /// Vertices of the k-core (those with core number >= k), sorted.
  std::vector<VertexId> CoreVertices(uint32_t k) const;
};

/// O(n + m) k-core decomposition via bucketed peeling [Batagelj-Zaversnik].
CoreDecomposition KCoreDecomposition(const Graph& graph);

/// Position of each vertex in a degeneracy ordering: rank[order[i]] = i.
std::vector<VertexId> DegeneracyRank(const CoreDecomposition& decomposition);

}  // namespace dsd

#endif  // DSD_CORE_KCORE_H_
