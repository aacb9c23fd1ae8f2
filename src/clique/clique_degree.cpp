#include "clique/clique_degree.h"

#include <algorithm>

#include "clique/clique_enumerator.h"
#include "graph/subgraph.h"

namespace dsd {

void EnumerateCliquesContaining(
    const Graph& graph, int h, VertexId v, std::span<const char> alive,
    const std::function<void(std::span<const VertexId>)>& cb) {
  auto is_alive = [&alive](VertexId u) {
    return alive.empty() || alive[u] != 0;
  };
  if (h < 2) return;
  if (h == 2) {
    VertexId buffer[1];
    for (VertexId u : graph.Neighbors(v)) {
      if (is_alive(u)) {
        buffer[0] = u;
        cb({buffer, 1});
      }
    }
    return;
  }
  // The h-cliques through v are {v} ∪ C for (h-1)-cliques C of the subgraph
  // induced by v's alive neighborhood.
  std::vector<VertexId> neighborhood;
  for (VertexId u : graph.Neighbors(v)) {
    if (is_alive(u)) neighborhood.push_back(u);
  }
  if (static_cast<int>(neighborhood.size()) < h - 1) return;
  Subgraph local = InducedSubgraph(graph, neighborhood);
  CliqueEnumerator enumerator(local.graph, h - 1);
  std::vector<VertexId> mapped(h - 1);
  enumerator.Enumerate([&](std::span<const VertexId> clique) {
    for (size_t i = 0; i < clique.size(); ++i) {
      mapped[i] = local.to_parent[clique[i]];
    }
    cb({mapped.data(), clique.size()});
  });
}

std::vector<uint64_t> CliqueDegreesWithin(const Graph& graph, int h,
                                          std::span<const char> alive) {
  if (h == 2) {
    // Edge degrees are alive-neighbour counts: O(n + m), no enumerator.
    std::vector<uint64_t> degrees(graph.NumVertices(), 0);
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      if (alive.empty()) {
        degrees[v] = graph.Degree(v);
      } else if (alive[v]) {
        for (VertexId u : graph.Neighbors(v)) degrees[v] += alive[u] != 0;
      }
    }
    return degrees;
  }
  if (alive.empty()) {
    return CliqueEnumerator(graph, h).Degrees();
  }
  Subgraph sub = InducedAliveSubgraph(graph, alive);
  std::vector<uint64_t> local = CliqueEnumerator(sub.graph, h).Degrees();
  std::vector<uint64_t> degrees(graph.NumVertices(), 0);
  for (VertexId i = 0; i < local.size(); ++i) {
    degrees[sub.to_parent[i]] = local[i];
  }
  return degrees;
}

}  // namespace dsd
