#include "clique/clique_degree.h"

#include <cassert>

#include "clique/clique_enumerator.h"
#include "graph/intersect.h"
#include "graph/subgraph.h"

namespace dsd {

namespace {

// Lists the (h-1)-cliques of G[N] in ascending-id order, N being v's alive
// neighbourhood. At depth d, companions[0, d) is a clique of G[N] and
// `candidates` are the members of N above its last vertex that are adjacent
// to all of it; depth d's candidates live at slots + d * slot.
struct CompanionLister {
  const Graph& graph;
  int last;              // depth of the final companion: h - 2
  size_t slot;           // length of one depth's candidate slot: |N(v)|
  VertexId* slots;       // last + 1 candidate slots
  VertexId* companions;  // last + 1 entries
  const std::function<void(std::span<const VertexId>)>& cb;

  void Extend(int depth, std::span<const VertexId> candidates) const {
    if (depth == last) {
      // Every candidate completes a clique.
      for (VertexId c : candidates) {
        companions[depth] = c;
        cb({companions, static_cast<size_t>(last) + 1});
      }
      return;
    }
    VertexId* next = slots + static_cast<size_t>(depth + 1) * slot;
    // Companions still to pick after c.
    const size_t needed = static_cast<size_t>(last - depth);
    for (size_t i = 0; i + needed < candidates.size(); ++i) {
      const VertexId c = candidates[i];
      const size_t size =
          IntersectSorted(candidates.subspan(i + 1), graph.Neighbors(c), next);
      if (size < needed) continue;
      companions[depth] = c;
      Extend(depth + 1, {next, size});
    }
  }
};

// The calling thread's candidate and companion ids, grown to the largest
// neighbourhood it has listed. `in_use` marks a listing in progress: a call
// from inside that listing's callback would overwrite its candidates.
struct CompanionBuffer {
  std::vector<VertexId> ids;
  bool in_use = false;
};

}  // namespace

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
  // The h-cliques through v are {v} ∪ C for (h-1)-cliques C of G[N], N
  // being v's alive neighbourhood (ascending, like the adjacency list). The
  // thread's buffer holds h-1 candidate slots of deg(v) ids (slot 0 is N),
  // then the h-1 companions.
  const std::span<const VertexId> neighbors = graph.Neighbors(v);
  if (neighbors.size() < static_cast<size_t>(h - 1)) return;
  const size_t slot = neighbors.size();
  thread_local CompanionBuffer buffer;
  assert(!buffer.in_use &&
         "EnumerateCliquesContaining called from its own callback");
  const size_t need = (slot + 1) * static_cast<size_t>(h - 1);
  if (buffer.ids.size() < need) buffer.ids.resize(need);
  VertexId* ids = buffer.ids.data();
  size_t size = 0;
  for (VertexId u : neighbors) {
    if (is_alive(u)) ids[size++] = u;
  }
  if (size < static_cast<size_t>(h - 1)) return;
  buffer.in_use = true;
  struct Release {
    bool& in_use;
    ~Release() { in_use = false; }
  } release{buffer.in_use};
  const CompanionLister lister{graph, h - 2, slot, ids,
                               ids + slot * (h - 1), cb};
  lister.Extend(0, {ids, size});
}

std::vector<uint64_t> CliqueDegreesWithin(const Graph& graph, int h,
                                          std::span<const char> alive,
                                          unsigned threads) {
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
  // Other sizes run the kClist roots on the induced alive subgraph, which
  // keeps the per-root partitioning intact.
  if (alive.empty()) {
    return CliqueEnumerator(graph, h).Degrees(threads);
  }
  Subgraph sub = InducedAliveSubgraph(graph, alive);
  std::vector<uint64_t> local =
      CliqueEnumerator(sub.graph, h).Degrees(threads);
  std::vector<uint64_t> degrees(graph.NumVertices(), 0);
  for (VertexId i = 0; i < local.size(); ++i) {
    degrees[sub.to_parent[i]] = local[i];
  }
  return degrees;
}

}  // namespace dsd
