// Immutable undirected simple graph in CSR (compressed sparse row) form.
//
// This is the substrate every algorithm in the library operates on. The
// representation is the standard one used by high-performance graph systems:
// a flat offsets array of size n+1 and a flat, per-vertex-sorted neighbor
// array of size 2m. Sorted adjacency gives O(log d) HasEdge and linear-time
// sorted intersections for clique enumeration.
//
// Storage comes in two flavors behind one read API:
//   - *owned*: the CSR arrays live in vectors the graph owns (every builder
//     and generator produces this), and
//   - *borrowed*: the arrays live in externally owned memory — an mmap'ed
//     .dsdg file (src/storage/) — and the graph holds only typed pointers
//     plus a keep-alive handle that pins the mapping for as long as any
//     copy of the graph is alive. Nothing is copied: a 10^7-edge graph
//     "loads" by mapping the file and pointing at it.
// Accessors read through raw (pointer, size) views either way, so the
// algorithm layer cannot tell the flavors apart.
//
// Every graph additionally carries a *generation tag* (Generation()): a
// process-wide monotonic counter stamped whenever a graph's content comes
// into being — construction from CSR arrays (GraphBuilder::Build, the
// subgraph extractors, the mmap reader), the default constructor, and the
// restamping of a moved-from object. Because content is immutable after
// construction, equal tags imply equal content, which makes the tag a cheap
// identity key: DecompositionIndex (dsd/motif_core.h) serves a graph only
// when its generation matches the one it was built for, instead of hashing
// the whole CSR. Copies share the tag (identical content, so a shared index
// entry is correct by construction); moves transfer it and restamp the
// emptied source so a moved-from graph can never alias an entry recorded
// for the content that left it.
//
// Every content state also has one slot for its clique orientation (the
// degeneracy-ordered DAG the h-clique enumerator lists from; see
// src/clique/clique_enumerator.h). The clique layer fills the slot on first
// use; the graph only holds it. Copies share the slot, as they share the
// generation, because the orientation holds vertex ids only.
#ifndef DSD_GRAPH_GRAPH_H_
#define DSD_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.h"

namespace dsd {

struct CliqueOrientation;  // clique/clique_enumerator.h

/// One content state's lazily built clique orientation: `built` runs the
/// clique layer's build once, however many threads race to it, and
/// `orientation` then holds the result until the last graph sharing the
/// slot is gone. A shared_ptr binds its deleter where the orientation is
/// built, so graph/ never needs the complete type.
struct OrientationSlot {
  std::once_flag built;
  std::shared_ptr<const CliqueOrientation> orientation;
};

/// Immutable undirected simple graph (no self-loops, no parallel edges).
/// Construct via GraphBuilder, the generator/io helpers, or the storage
/// layer's mmap reader.
class Graph {
 public:
  /// Empty graph.
  Graph();

  /// Builds from prepared CSR arrays. offsets.size() == n+1,
  /// neighbors.size() == offsets.back(), each adjacency list sorted.
  /// GraphBuilder is the supported way to produce these.
  Graph(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors);

  /// Borrows prepared CSR arrays living in externally owned memory (an
  /// mmap'ed file). `keepalive` pins that memory: the graph and all its
  /// copies hold it, and the arrays must stay valid and unchanged for as
  /// long as any of them is alive. Same shape contract as the owning
  /// constructor. The storage layer is the intended caller.
  Graph(std::span<const EdgeId> offsets, std::span<const VertexId> neighbors,
        std::shared_ptr<const void> keepalive);

  /// Copies share the source's generation: the content is identical, so any
  /// answer cached under the tag is equally valid for the copy. They share
  /// the orientation slot too, so a clique orientation built through either
  /// serves both. A borrowed graph's copy shares the keep-alive handle (the
  /// mapping, not the data, is refcounted); an owned graph's copy
  /// duplicates the arrays.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);

  /// Moves transfer the generation and the orientation slot with the
  /// content and restamp the source (left as a valid empty graph) with a
  /// fresh tag and no slot, so identity-keyed caches can never serve the
  /// departed content's answers for it. Allocation-free, so the noexcept is
  /// honest.
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Number of vertices.
  VertexId NumVertices() const {
    return static_cast<VertexId>(num_offsets_ - 1);
  }

  /// Number of undirected edges.
  EdgeId NumEdges() const { return num_neighbors_ / 2; }

  /// Degree of v.
  EdgeId Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Maximum degree over all vertices (0 for the empty graph).
  EdgeId MaxDegree() const;

  /// Sorted neighbors of v.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_ + offsets_[v], neighbors_ + offsets_[v + 1]};
  }

  /// True iff the undirected edge {u, v} exists. O(log min(deg u, deg v)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// All edges as normalized (u < v) pairs, in CSR order.
  std::vector<Edge> Edges() const;

  /// The raw CSR offsets array, size NumVertices() + 1. With RawNeighbors()
  /// this is the graph's entire content — the storage layer serializes
  /// exactly these bytes, and bitwise equality of both views is content
  /// equality.
  std::span<const EdgeId> RawOffsets() const {
    return {offsets_, num_offsets_};
  }

  /// The raw packed neighbor array, size 2 * NumEdges().
  std::span<const VertexId> RawNeighbors() const {
    return {neighbors_, num_neighbors_};
  }

  /// True when the CSR arrays live in borrowed (mmap'ed) memory rather than
  /// heap vectors this graph owns.
  bool IsBorrowed() const { return keepalive_ != nullptr; }

  /// Bytes of CSR payload behind this graph: offsets + neighbors. For an
  /// owned graph that is heap cost; for a borrowed graph it is the mapped
  /// region's size — the resident-set cost once every page has been
  /// touched. Excludes the O(1) object header.
  size_t MemoryFootprintBytes() const {
    return num_offsets_ * sizeof(EdgeId) + num_neighbors_ * sizeof(VertexId);
  }

  /// Generation tag: process-wide unique per content state (see the header
  /// comment). Equal tags imply equal content; the converse need not hold
  /// (two independently built identical graphs get distinct tags).
  uint64_t Generation() const { return generation_; }

  /// The slot the clique layer fills with this content's orientation on
  /// first use. Null only for graphs that hold no CSR arrays of their own:
  /// default-constructed and moved-from ones, which are empty.
  OrientationSlot* Orientation() const { return orientation_.get(); }

 private:
  /// Next value of the process-wide generation counter (never reused).
  static uint64_t NextGeneration();

  /// Points the views at the owned vectors (empty vectors => the canonical
  /// empty-graph view over kEmptyOffsets).
  void PointAtOwned();

  /// Resets to the empty-graph state with a fresh generation (moved-from
  /// sources land here).
  void ResetToEmpty();

  // Exactly one of the two storage flavors is active: owned vectors
  // (keepalive_ == nullptr, views point into them) or borrowed memory
  // (keepalive_ != nullptr pins it, owned vectors empty).
  std::vector<EdgeId> owned_offsets_;
  std::vector<VertexId> owned_neighbors_;
  std::shared_ptr<const void> keepalive_;

  // The read views every accessor goes through. Always valid: the empty
  // graph points at kEmptyOffsets, so num_offsets_ >= 1 holds throughout.
  const EdgeId* offsets_;
  size_t num_offsets_;
  const VertexId* neighbors_;
  size_t num_neighbors_;

  uint64_t generation_;
  // Allocated with the content; shared by copies, transferred by moves.
  std::shared_ptr<OrientationSlot> orientation_;
};

}  // namespace dsd

#endif  // DSD_GRAPH_GRAPH_H_
