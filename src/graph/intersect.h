// Sorted-list intersection: the one routine behind every candidate list the
// clique listers (clique/) and the generic pattern engine (pattern/) build
// from adjacency lists.
#ifndef DSD_GRAPH_INTERSECT_H_
#define DSD_GRAPH_INTERSECT_H_

#include <cstddef>
#include <span>

#include "graph/types.h"

namespace dsd {

/// Writes a ∩ b (both ascending) to `out`, which must have room for
/// min(|a|, |b|) ids, and returns the intersection's size. Gallops through
/// the longer list when the lengths are skewed; merges linearly otherwise.
///
/// `out` must not overlap either input. The merge writes one id ahead of
/// the result speculatively, and the inputs are swapped so that the shorter
/// one is walked first, so an `out` inside the longer list overwrites ids
/// before they are read. Debug builds assert it.
size_t IntersectSorted(std::span<const VertexId> a,
                       std::span<const VertexId> b, VertexId* out);

}  // namespace dsd

#endif  // DSD_GRAPH_INTERSECT_H_
