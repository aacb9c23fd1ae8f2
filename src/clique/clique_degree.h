// Clique-degree utilities restricted to "alive" vertex subsets.
//
// The peeling algorithms (Algorithm 3 core decomposition, PeelApp) remove
// vertices one at a time and must enumerate the clique instances a removed
// vertex participates in *among the still-alive vertices*. The key identity:
// the h-cliques containing v are exactly {v} ∪ C for each (h-1)-clique C in
// the subgraph induced by v's alive neighbors.
#ifndef DSD_CLIQUE_CLIQUE_DEGREE_H_
#define DSD_CLIQUE_CLIQUE_DEGREE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dsd {

/// Invokes `cb` once per h-clique instance that contains `v` and otherwise
/// uses only vertices u with alive[u] != 0 (an empty `alive` means all).
/// The span passed to `cb` holds the h-1 vertices other than v in ascending
/// id order; the instances come in lexicographic order of those spans.
///
/// Cost: O(local), with no O(n) term per call. The (h-1)-cliques of v's
/// alive neighbourhood N are listed by intersecting suffixes of N with
/// sorted adjacency lists (galloping through a hub's long list), in h-1
/// deg(v)-sized slots of a buffer the calling thread owns and reuses; no
/// subgraph or enumerator is built, and a warm thread allocates nothing.
/// `cb` must not call EnumerateCliquesContaining on the same thread (the
/// inner call would overwrite the outer one's buffer; debug builds assert).
void EnumerateCliquesContaining(
    const Graph& graph, int h, VertexId v, std::span<const char> alive,
    const std::function<void(std::span<const VertexId>)>& cb);

/// Clique-degrees of every vertex restricted to alive vertices.
/// alive may be empty, meaning "all vertices alive". For h = 2 these are
/// alive-neighbour counts, computed directly in O(n + m) on the calling
/// thread; larger h run CliqueEnumerator::Degrees(threads) on the induced
/// alive subgraph (same thread contract: 1 is the sequential loop, 0 is
/// "auto", and every count gives the same bits).
std::vector<uint64_t> CliqueDegreesWithin(const Graph& graph, int h,
                                          std::span<const char> alive,
                                          unsigned threads = 1);

}  // namespace dsd

#endif  // DSD_CLIQUE_CLIQUE_DEGREE_H_
