// h-clique enumeration via degeneracy-ordered DAG recursion.
//
// Implements the kClist algorithm of Danisch, Balalau and Sozio (WWW'18),
// which the paper uses as its clique-listing substrate [17]: orient every
// edge from lower to higher degeneracy rank (out-degrees are then bounded by
// the degeneracy), and recursively enumerate cliques inside shrinking
// candidate subgraphs.
//
// The DAG depends on the graph alone, not on h or the call, so each graph
// content state builds it once (CliqueOrientation, held in the graph's
// orientation slot) and every enumerator on that graph or its copies reads
// it.
//
// Cost model: the first enumerator constructed on a graph pays O(n + m)
// (one k-core decomposition plus a flat CSR DAG, kept until the last copy
// of the graph is gone: (n + 1) * 8 + m * 4 bytes); later ones are O(1).
// Listing from a root is O(local): sorted intersections of out-lists no
// longer than the degeneracy, written into per-depth buffers that each
// thread owns and reuses, so a root neither allocates nor touches an O(n)
// array.
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

/// A graph's kClist orientation: every edge points from its endpoint of
/// lower degeneracy rank to the higher one, so out-degrees are bounded by
/// the degeneracy. Immutable once built.
struct CliqueOrientation {
  // Flat CSR DAG: v's out-list is targets[offsets[v], offsets[v + 1]),
  // sorted by id.
  std::vector<EdgeId> offsets;
  std::vector<VertexId> targets;
  // Longest out-list: the size of every per-depth candidate slot.
  size_t max_out_degree = 0;
};

/// The orientation of `graph`'s content, built on the first call for that
/// content (thread-safe: concurrent first calls build it once) and shared
/// by every copy of the graph until the last one is gone.
const CliqueOrientation& GraphOrientation(const Graph& graph);

/// Enumerates h-cliques of a graph. The constructor fetches the graph's
/// orientation (building it on the graph's first clique kernel);
/// Enumerate/Count/Degrees then run the kClist recursion.
class CliqueEnumerator {
 public:
  /// h >= 1. h = 1 lists vertices, h = 2 lists edges.
  CliqueEnumerator(const Graph& graph, int h);

  /// The orientation this enumerator lists from: the graph's shared one.
  const CliqueOrientation& orientation() const { return dag_; }

  /// Invokes `cb` once per h-clique instance (each instance exactly once;
  /// vertex permutations are not distinguished, matching Definition 2).
  /// The span lists the root first, then the vertices in the order the
  /// recursion picked them (ascending id within each depth's candidates).
  void Enumerate(const CliqueCallback& cb) const;

  /// Number of h-clique instances: mu(G, Psi), on `threads` workers
  /// sharding the roots (Section 6.3): every clique is listed from its
  /// degeneracy-minimal vertex, so the roots partition the instances. 0
  /// means "auto" (hardware concurrency); the count is clamped by the
  /// vertex count, and 1 is the plain sequential loop. Bit-identical for
  /// every thread count.
  uint64_t Count(unsigned threads = 1) const;

  /// Per-vertex clique-degrees deg_G(v, Psi) (Definition 3), with the same
  /// thread contract as Count.
  std::vector<uint64_t> Degrees(unsigned threads = 1) const;

  int h() const { return h_; }

 private:
  // Per-depth buffers of the recursion.
  struct Scratch {
    std::vector<VertexId> prefix;      // the clique being extended
    std::vector<VertexId> candidates;  // one degeneracy-sized slot per depth
  };

  // Grows `scratch` to at least this (graph, h) pair's needs; it may stay
  // larger, since depths are addressed by this enumerator's slot size.
  void Fit(Scratch& scratch) const;

  // The calling thread's Scratch, fitted. Count and Degrees use it rather
  // than a vector of per-worker Scratch: buffers allocated side by side by
  // one thread share cache lines, and workers writing their prefix and
  // candidates on every extension step would ping-pong those lines between
  // cores. Their loops run no caller code, so no call can nest inside
  // another on one thread's Scratch.
  Scratch& ThreadScratch() const;

  // Sorted-by-id out-neighbours of v, read through the cached views.
  std::span<const VertexId> Out(VertexId v) const {
    return {targets_ + offsets_[v], targets_ + offsets_[v + 1]};
  }

  // Runs the recursion from `root`, calling leaf(prefix, last) once per
  // group of cliques prefix ∪ {c}, c in last (|prefix| = h - 1).
  template <typename Leaf>
  void Walk(VertexId root, Scratch& scratch, Leaf& leaf) const;
  template <typename Leaf>
  void Extend(int depth, std::span<const VertexId> candidates,
              Scratch& scratch, Leaf& leaf) const;
  // Walks roots worker, worker + t, ... with the thread's Scratch.
  template <typename Leaf>
  void WalkStrided(unsigned worker, unsigned t, Leaf& leaf) const;

  const Graph& graph_;
  int h_;
  const CliqueOrientation& dag_;
  // dag_'s arrays, so the recursion's out-list lookups skip one load.
  const EdgeId* offsets_;
  const VertexId* targets_;
};

}  // namespace dsd

#endif  // DSD_CLIQUE_CLIQUE_ENUMERATOR_H_
