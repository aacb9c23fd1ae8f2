#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

namespace dsd {

namespace {

// The canonical empty-graph offsets array: n = 0, zero neighbor slots.
// Default-constructed and moved-from graphs point here, so every accessor
// stays valid without allocating.
constexpr EdgeId kEmptyOffsets[1] = {0};

}  // namespace

uint64_t Graph::NextGeneration() {
  // Starts at 1 so 0 can serve callers as a "no graph" sentinel. A 64-bit
  // counter cannot wrap in practice, so tags are never reused and an
  // identity-keyed cache can never confuse two content states.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Graph::PointAtOwned() {
  if (owned_offsets_.empty()) {
    offsets_ = kEmptyOffsets;
    num_offsets_ = 1;
    neighbors_ = nullptr;
    num_neighbors_ = 0;
  } else {
    offsets_ = owned_offsets_.data();
    num_offsets_ = owned_offsets_.size();
    neighbors_ = owned_neighbors_.data();
    num_neighbors_ = owned_neighbors_.size();
  }
}

void Graph::ResetToEmpty() {
  owned_offsets_.clear();
  owned_neighbors_.clear();
  keepalive_.reset();
  orientation_.reset();
  PointAtOwned();
  generation_ = NextGeneration();
}

Graph::Graph() : generation_(NextGeneration()) { PointAtOwned(); }

Graph::Graph(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors)
    : owned_offsets_(std::move(offsets)),
      owned_neighbors_(std::move(neighbors)),
      generation_(NextGeneration()),
      orientation_(std::make_shared<OrientationSlot>()) {
  assert(!owned_offsets_.empty());
  assert(owned_offsets_.back() == owned_neighbors_.size());
  PointAtOwned();
}

Graph::Graph(std::span<const EdgeId> offsets,
             std::span<const VertexId> neighbors,
             std::shared_ptr<const void> keepalive)
    : keepalive_(std::move(keepalive)),
      offsets_(offsets.data()),
      num_offsets_(offsets.size()),
      neighbors_(neighbors.data()),
      num_neighbors_(neighbors.size()),
      generation_(NextGeneration()),
      orientation_(std::make_shared<OrientationSlot>()) {
  assert(keepalive_ != nullptr);
  assert(!offsets.empty());
  assert(offsets.back() == neighbors.size());
}

Graph::Graph(const Graph& other)
    : owned_offsets_(other.owned_offsets_),
      owned_neighbors_(other.owned_neighbors_),
      keepalive_(other.keepalive_),
      generation_(other.generation_),
      orientation_(other.orientation_) {
  if (keepalive_ != nullptr) {
    // Borrowed content is shared, not duplicated: only the keep-alive
    // handle is refcounted, the views alias the same mapping.
    offsets_ = other.offsets_;
    num_offsets_ = other.num_offsets_;
    neighbors_ = other.neighbors_;
    num_neighbors_ = other.num_neighbors_;
  } else {
    PointAtOwned();
  }
}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) {
    owned_offsets_ = other.owned_offsets_;
    owned_neighbors_ = other.owned_neighbors_;
    keepalive_ = other.keepalive_;
    generation_ = other.generation_;
    orientation_ = other.orientation_;
    if (keepalive_ != nullptr) {
      offsets_ = other.offsets_;
      num_offsets_ = other.num_offsets_;
      neighbors_ = other.neighbors_;
      num_neighbors_ = other.num_neighbors_;
    } else {
      PointAtOwned();
    }
  }
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : owned_offsets_(std::move(other.owned_offsets_)),
      owned_neighbors_(std::move(other.owned_neighbors_)),
      keepalive_(std::move(other.keepalive_)),
      // Vector moves transfer the heap buffer, so the source's views stay
      // valid for the new owner — borrowed and owned flavors alike.
      offsets_(other.offsets_),
      num_offsets_(other.num_offsets_),
      neighbors_(other.neighbors_),
      num_neighbors_(other.num_neighbors_),
      generation_(other.generation_),
      orientation_(std::move(other.orientation_)) {
  other.ResetToEmpty();
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    owned_offsets_ = std::move(other.owned_offsets_);
    owned_neighbors_ = std::move(other.owned_neighbors_);
    keepalive_ = std::move(other.keepalive_);
    offsets_ = other.offsets_;
    num_offsets_ = other.num_offsets_;
    neighbors_ = other.neighbors_;
    num_neighbors_ = other.num_neighbors_;
    generation_ = other.generation_;
    orientation_ = std::move(other.orientation_);
    other.ResetToEmpty();
  }
  return *this;
}

EdgeId Graph::MaxDegree() const {
  EdgeId best = 0;
  for (VertexId v = 0; v < NumVertices(); ++v) best = std::max(best, Degree(v));
  return best;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices() || u == v) return false;
  // Search the shorter adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (VertexId v : Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

}  // namespace dsd
