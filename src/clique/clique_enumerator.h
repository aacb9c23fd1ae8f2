// h-clique enumeration via degeneracy-ordered DAG recursion.
//
// Implements the kClist algorithm of Danisch, Balalau and Sozio (WWW'18),
// which the paper uses as its clique-listing substrate [17]: orient every
// edge from lower to higher degeneracy rank (out-degrees are then bounded by
// the degeneracy), and recursively enumerate cliques inside shrinking
// candidate subgraphs.
//
// Cost model: the constructor is O(n + m) (one k-core decomposition plus a
// flat CSR DAG). Listing from a root is O(local): sorted intersections of
// out-lists no longer than the degeneracy, written into the per-depth
// buffers of a caller-owned Scratch, so a root neither allocates nor
// touches an O(n) array.
#ifndef DSD_CLIQUE_CLIQUE_ENUMERATOR_H_
#define DSD_CLIQUE_CLIQUE_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dsd {

/// Callback invoked once per clique instance with its vertex set (unsorted).
using CliqueCallback = std::function<void(std::span<const VertexId>)>;

/// Enumerates h-cliques of a graph. The constructor performs the degeneracy
/// ordering; Enumerate/Count/Degrees then run the kClist recursion.
class CliqueEnumerator {
 public:
  /// Reusable per-depth buffers, sized by MakeScratch(). One per worker:
  /// a scratch must not be shared between concurrent calls.
  struct Scratch {
    std::vector<VertexId> prefix;      // the clique being extended
    std::vector<VertexId> candidates;  // one degeneracy-sized slot per depth
  };

  /// h >= 1. h = 1 lists vertices, h = 2 lists edges.
  CliqueEnumerator(const Graph& graph, int h);

  /// Scratch buffers sized for this (graph, h) pair.
  Scratch MakeScratch() const;

  /// Invokes `cb` once per h-clique instance (each instance exactly once;
  /// vertex permutations are not distinguished, matching Definition 2).
  /// The span lists the root first, then the vertices in the order the
  /// recursion picked them (ascending id within each depth's candidates).
  void Enumerate(const CliqueCallback& cb) const;

  /// Enumerates only the cliques whose degeneracy-minimal vertex is `root`.
  /// The root sets {EnumerateFromRoot(v)}_v partition all instances, which
  /// is what the threaded Count and Degrees exploit. Thread-safe given one
  /// Scratch per thread: `this` is never mutated.
  void EnumerateFromRoot(VertexId root, Scratch& scratch,
                         const CliqueCallback& cb) const;

  /// Number of cliques EnumerateFromRoot(root) would list, without listing
  /// the last vertex of each.
  uint64_t CountFromRoot(VertexId root, Scratch& scratch) const;

  /// Per-vertex clique-degree contributions of root's cliques: calls
  /// add(u, k) so that, summed over the calls, u gains the number of those
  /// cliques containing it. Calls with k = 0 are skipped.
  void DegreesFromRoot(
      VertexId root, Scratch& scratch,
      const std::function<void(VertexId, uint64_t)>& add) const;

  /// Number of h-clique instances: mu(G, Psi), on `threads` workers
  /// sharding the roots (Section 6.3). 0 means "auto" (hardware
  /// concurrency); the count is clamped by the vertex count, and 1 is the
  /// plain sequential loop. Bit-identical for every thread count.
  uint64_t Count(unsigned threads = 1) const;

  /// Per-vertex clique-degrees deg_G(v, Psi) (Definition 3), with the same
  /// thread contract as Count.
  std::vector<uint64_t> Degrees(unsigned threads = 1) const;

  int h() const { return h_; }

 private:
  // Sorted-by-id out-neighbours of v: its neighbours of higher degeneracy
  // rank.
  std::span<const VertexId> Out(VertexId v) const {
    return {dag_targets_.data() + dag_offsets_[v],
            dag_targets_.data() + dag_offsets_[v + 1]};
  }

  // Runs the recursion from `root`, calling leaf(prefix, last) once per
  // group of cliques prefix ∪ {c}, c in last (|prefix| = h - 1).
  template <typename Leaf>
  void Walk(VertexId root, Scratch& scratch, Leaf& leaf) const;
  template <typename Leaf>
  void Extend(int depth, std::span<const VertexId> candidates,
              Scratch& scratch, Leaf& leaf) const;

  const Graph& graph_;
  int h_;
  // Flat CSR DAG, read through Out().
  std::vector<EdgeId> dag_offsets_;
  std::vector<VertexId> dag_targets_;
  // Longest out-list: the size of every per-depth candidate slot.
  size_t max_out_degree_ = 0;
};

}  // namespace dsd

#endif  // DSD_CLIQUE_CLIQUE_ENUMERATOR_H_
