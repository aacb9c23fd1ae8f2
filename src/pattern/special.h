// Specialised pattern-degree kernels (appendix D of the paper, and a
// per-edge triangle formula for the basket that extends it).
//
// For star and loop (4-cycle "diamond") patterns the generic embedding
// enumerator is overkill: pattern-degrees have closed forms over 1- and 2-hop
// neighborhoods, reducing core decomposition from O(n d^x) to O(n d^2).
// The basket is a 4-cycle plus a roof triangle, so its degrees are sums over
// t(e), the number of alive triangles on edge e, and the 4-cycle counts of
// the 4-cycle formula's 2-path grouping. These kernels are cross-checked
// against the generic engine in tests.
//
// This header is the one home of those formulas. The degree and count passes
// take a thread count (per-vertex passes over ParallelForStrided; 1 is the
// plain inline loop), and the peel bodies are templates over the aliveness
// predicate and the report sink, so the sequential oracle (alive mask) and
// the batch peel kernels of parallel/parallel_peel.cpp (rank-prefix mask,
// survivor-only deltas) run the same code.
#ifndef DSD_PATTERN_SPECIAL_H_
#define DSD_PATTERN_SPECIAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/combinatorics.h"

namespace dsd {

/// Pattern-degrees for the x-star K_{1,x} restricted to alive vertices
/// (empty alive = all alive), on `threads` workers. Appendix D.1:
///   deg(v) = C(deg(v), x) + sum over neighbors u of C(deg(u) - 1, x - 1).
std::vector<uint64_t> StarDegrees(const Graph& graph, int x,
                                  std::span<const char> alive,
                                  unsigned threads = 1);

/// Number of x-star instances restricted to alive vertices:
/// each instance has a unique center, so mu = sum_v C(deg(v), x).
uint64_t StarCount(const Graph& graph, int x, std::span<const char> alive,
                   unsigned threads = 1);

/// Pattern-degrees for the 4-cycle restricted to alive vertices.
/// Appendix D.2: group the 2-paths leaving v by endpoint w; every pair of
/// distinct paths to the same w closes a 4-cycle, so
///   deg(v) = sum over 2-hop endpoints w of C(#paths(v, w), 2).
/// Each worker takes a FourCycleScratch (O(n)) for this pass only.
std::vector<uint64_t> FourCycleDegrees(const Graph& graph,
                                       std::span<const char> alive,
                                       unsigned threads = 1);

/// Number of 4-cycle instances restricted to alive vertices
/// (= sum of degrees / 4: each cycle contains 4 vertices).
uint64_t FourCycleCount(const Graph& graph, std::span<const char> alive,
                        unsigned threads = 1);

/// Pattern-degrees for the basket (house: a 4-cycle whose edge cd is also
/// the base of a roof triangle c-d-e) restricted to alive vertices. An
/// instance is a 4-cycle C, an edge f of C and an apex of f outside C.
/// With P_v(q) the number of 2-paths v-p-q (q != v) and
/// c4(vp) = sum over q in N(p) \ {v} of (P_v(q) - 1), the 4-cycles through
/// edge vp:
///   deg(v) = sum over neighbours p of [t(vp) c4(vp) - 4 C(t(vp), 2)
///              + sum over q in N(p) \ {v} of t(pq) (P_v(q) - 1)]
///          + sum over triangles {v, c, d} of [c4(cd) - 4 (t(cd) - 1)
///              - (t(vc) - 1) - (t(vd) - 1)].
/// The first sum has v on C (on f, then off f), the second v as the apex;
/// the 4 C(t, 2) and 4 (t - 1) terms drop the apexes that lie on C, four
/// per 2-triangle through v.
std::vector<uint64_t> BasketDegrees(const Graph& graph,
                                    std::span<const char> alive,
                                    unsigned threads = 1);

/// Number of basket instances restricted to alive vertices (= sum of
/// degrees / 5).
uint64_t BasketCount(const Graph& graph, std::span<const char> alive,
                     unsigned threads = 1);

/// Appendix D.1.2, star peeling: the instances v takes with it when it
/// leaves the graph, via the closed forms over v's 1- and 2-hop
/// neighborhood (O(d^2) instead of enumerating embeddings). `is_alive(u)`
/// says whether u is alive for this removal (false for v itself); every
/// other vertex's lost instances go to `report(u, count)`, which may fire
/// several times per u and with count 0. Returns the destroyed total.
template <typename AliveFn, typename ReportFn>
uint64_t StarPeelMember(const Graph& graph, int x, VertexId v,
                        const AliveFn& is_alive, const ReportFn& report) {
  const uint64_t ux = static_cast<uint64_t>(x);
  // D(w): degree of w among the alive vertices plus v (v participates in
  // the instances being destroyed although it is no longer alive).
  auto degree_with_v = [&](VertexId w) {
    uint64_t d = 0;
    for (VertexId u : graph.Neighbors(w)) d += u == v || is_alive(u);
    return d;
  };
  uint64_t dv = 0;  // D(v): v's alive neighbours
  for (VertexId u : graph.Neighbors(v)) dv += is_alive(u);
  uint64_t destroyed = Binomial(dv, ux);
  for (VertexId u : graph.Neighbors(v)) {
    if (!is_alive(u)) continue;
    const uint64_t du = degree_with_v(u);
    destroyed += Binomial(du - 1, ux - 1);
    // Case a: v is the center, u one of its tails — the other x-1 tails come
    // from N(v) \ {u}. Case b: u is the center with v as a tail.
    report(u, Binomial(dv - 1, ux - 1) + Binomial(du - 1, ux - 1));
    // Case c: u (the current neighbor) is the center of stars that have BOTH
    // v and some other alive tail t: every such star also disappears for t.
    if (du >= 2) {
      const uint64_t shared = Binomial(du - 2, ux - 2);
      if (shared > 0) {
        for (VertexId t : graph.Neighbors(u)) {
          if (t != v && is_alive(t)) report(t, shared);
        }
      }
    }
  }
  return destroyed;
}

/// Per-worker 2-path scratch of the 4-cycle formulas: a path counter per
/// vertex (all zero between uses) and the endpoints touched by one vertex.
struct FourCycleScratch {
  explicit FourCycleScratch(VertexId n) : paths(n, 0) {}
  std::vector<uint64_t> paths;
  std::vector<VertexId> endpoints;
};

/// This thread's FourCycleScratch, grown to at least n vertices, for the
/// two 4-cycle peel paths (the sequential peeler and the batch kernel);
/// the Degrees passes take per-pass scratch instead. Its path counters are
/// all zero between uses (FourCyclePeelMember leaves them so), so a peel
/// costs O(its 2-hop neighbourhood), not an O(n) scratch per bracket. The
/// scratch lives as long as its thread.
FourCycleScratch& ThisThreadFourCycleScratch(VertexId n);

/// Counts the alive 2-paths v-u-w (u, w alive, w != v) into scratch.paths,
/// listing each endpoint once in scratch.endpoints. The caller resets
/// paths[w] for the listed endpoints when done.
template <typename AliveFn>
void CountTwoPaths(const Graph& graph, VertexId v, const AliveFn& is_alive,
                   FourCycleScratch& scratch) {
  scratch.endpoints.clear();
  for (VertexId u : graph.Neighbors(v)) {
    if (!is_alive(u)) continue;
    for (VertexId w : graph.Neighbors(u)) {
      if (w == v || !is_alive(w)) continue;
      if (scratch.paths[w] == 0) scratch.endpoints.push_back(w);
      ++scratch.paths[w];
    }
  }
}

/// Appendix D.2.2, loop (4-cycle) peeling: same contract as StarPeelMember
/// for the diamond pattern, via 2-path group bookkeeping (O(d^2)); reports
/// only positive counts.
template <typename AliveFn, typename ReportFn>
uint64_t FourCyclePeelMember(const Graph& graph, VertexId v,
                             const AliveFn& is_alive,
                             FourCycleScratch& scratch,
                             const ReportFn& report) {
  // P(w): number of alive 2-paths v -> w. Every unordered pair of such paths
  // is a destroyed 4-cycle, and w is the corner opposite v in it.
  CountTwoPaths(graph, v, is_alive, scratch);
  std::vector<uint64_t>& paths = scratch.paths;
  uint64_t destroyed = 0;
  for (VertexId w : scratch.endpoints) {
    const uint64_t pairs = paths[w] * (paths[w] - 1) / 2;
    destroyed += pairs;
    if (pairs > 0) report(w, pairs);
  }
  // Middle vertices: u on the path v-u-w loses one cycle per OTHER path to
  // the same endpoint w.
  for (VertexId u : graph.Neighbors(v)) {
    if (!is_alive(u)) continue;
    uint64_t lost = 0;
    for (VertexId w : graph.Neighbors(u)) {
      if (w == v || !is_alive(w)) continue;
      lost += paths[w] - 1;
    }
    if (lost > 0) report(u, lost);
  }
  for (VertexId w : scratch.endpoints) paths[w] = 0;
  return destroyed;
}

}  // namespace dsd

#endif  // DSD_PATTERN_SPECIAL_H_
