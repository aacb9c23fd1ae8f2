#include "pattern/special.h"

#include <cassert>

#include "parallel/delta_accumulator.h"
#include "parallel/parallel_for.h"

namespace dsd {

namespace {

bool IsAlive(std::span<const char> alive, VertexId v) {
  return alive.empty() || alive[v] != 0;
}

// Alive degree of v.
uint64_t AliveDegree(const Graph& graph, std::span<const char> alive,
                     VertexId v) {
  if (alive.empty()) return graph.Degree(v);
  uint64_t d = 0;
  for (VertexId u : graph.Neighbors(v)) {
    if (alive[u]) ++d;
  }
  return d;
}

// Star degree of alive vertex v (appendix D.1): v as the center, plus v as
// a tail of a star centered at an alive neighbor u, whose remaining x-1
// tails come from u's other alive neighbors. Taking the views by value
// keeps them in registers across the out-of-line Binomial calls; read
// through a parallel loop body's captures they would be reloaded per call.
uint64_t StarDegree(const Graph& graph, uint64_t x,
                    std::span<const char> alive,
                    std::span<const uint64_t> alive_degree, VertexId v) {
  uint64_t d = Binomial(alive_degree[v], x);
  for (VertexId u : graph.Neighbors(v)) {
    if (IsAlive(alive, u)) d += Binomial(alive_degree[u] - 1, x - 1);
  }
  return d;
}

// One worker's scratch for a triangle pass: marks[u] != 0 iff u is an
// alive neighbour of the vertex being processed (all zero between
// vertices), and basket's apexes of one edge and 2-path counters. It lives
// for one pass, so nothing n-sized outlasts the call on the pool's
// long-lived helper threads.
struct alignas(64) TriangleScratch {
  TriangleScratch(VertexId n, bool with_two_paths)
      : marks(n, 0), two_paths(with_two_paths ? n : 0) {}
  std::vector<char> marks;
  std::vector<VertexId> apexes;
  FourCycleScratch two_paths;
};

std::vector<TriangleScratch> WorkerScratch(VertexId n, unsigned threads,
                                           bool with_two_paths) {
  return std::vector<TriangleScratch>(ResolveThreadCount(threads, n),
                                      TriangleScratch(n, with_two_paths));
}

// The order that picks which endpoint of an edge handles it: the one of
// larger (degree, id).
bool Below(const Graph& graph, VertexId u, VertexId v) {
  const EdgeId du = graph.Degree(u);
  const EdgeId dv = graph.Degree(v);
  return du < dv || (du == dv && u < v);
}

// Marks v's alive neighbours in s.marks; returns v's adjacency list.
std::span<const VertexId> MarkAliveNeighbors(const Graph& graph,
                                             std::span<const char> alive,
                                             VertexId v, TriangleScratch& s) {
  std::span<const VertexId> nv = graph.Neighbors(v);
  for (VertexId p : nv) s.marks[p] = IsAlive(alive, p);
  return nv;
}

void ClearMarks(std::span<const VertexId> nv, TriangleScratch& s) {
  for (VertexId p : nv) s.marks[p] = 0;
}

// t(e), the number of alive triangles on edge e, per adjacency slot (both
// directions; 0 for edges with a dead endpoint). Each alive edge is visited
// once, from its endpoint above the other: the smaller list is scanned
// against marks on the larger, so the pass costs O(sum over edges of min
// degree).
std::vector<uint32_t> TrianglesPerSlot(const Graph& graph,
                                       std::span<const char> alive,
                                       unsigned threads) {
  const VertexId n = graph.NumVertices();
  const std::span<const EdgeId> offsets = graph.RawOffsets();
  std::vector<uint32_t> tri(graph.RawNeighbors().size(), 0);
  std::vector<TriangleScratch> scratch = WorkerScratch(n, threads, false);
  ParallelForStrided(n, threads, [&](unsigned worker, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (!IsAlive(alive, v)) return;
    TriangleScratch& s = scratch[worker];
    const std::span<const VertexId> nv = MarkAliveNeighbors(graph, alive, v, s);
    for (size_t j = 0; j < nv.size(); ++j) {
      const VertexId p = nv[j];
      if (!s.marks[p] || !Below(graph, p, v)) continue;
      const std::span<const VertexId> np = graph.Neighbors(p);
      size_t k = 0;  // v = np[k]
      uint32_t t = 0;
      for (size_t x = 0; x < np.size(); ++x) {
        if (np[x] == v) {
          k = x;
        } else if (s.marks[np[x]]) {
          ++t;
        }
      }
      tri[offsets[v] + j] = t;
      tri[offsets[p] + k] = t;
    }
    ClearMarks(nv, s);
  });
  return tri;
}

// mu from pattern-degrees: every instance has `size` vertices.
uint64_t InstancesFromDegrees(const std::vector<uint64_t>& degrees,
                              int size) {
  uint64_t total = 0;
  for (uint64_t d : degrees) total += d;
  assert(total % static_cast<uint64_t>(size) == 0);
  return total / static_cast<uint64_t>(size);
}

}  // namespace

// Every pass below is a per-vertex loop in which each worker writes only the
// entries (or the partial sum) of its own strided vertices, so the result is
// the same for every thread count.

std::vector<uint64_t> StarDegrees(const Graph& graph, int x,
                                  std::span<const char> alive,
                                  unsigned threads) {
  // x == 1 (a single edge) is excluded: center and tail are then symmetric
  // and the closed form below would double count.
  assert(x >= 2);
  const VertexId n = graph.NumVertices();
  std::vector<uint64_t> alive_degree(n, 0);
  ParallelForStrided(n, threads, [&](unsigned, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (IsAlive(alive, v)) alive_degree[v] = AliveDegree(graph, alive, v);
  });
  std::vector<uint64_t> degrees(n, 0);
  ParallelForStrided(n, threads, [&](unsigned, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (IsAlive(alive, v)) {
      degrees[v] = StarDegree(graph, static_cast<uint64_t>(x), alive,
                              alive_degree, v);
    }
  });
  return degrees;
}

uint64_t StarCount(const Graph& graph, int x, std::span<const char> alive,
                   unsigned threads) {
  const VertexId n = graph.NumVertices();
  std::vector<PaddedCounter> partial(ResolveThreadCount(threads, n));
  ParallelForStrided(n, threads, [&](unsigned worker, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (!IsAlive(alive, v)) return;
    partial[worker].value +=
        Binomial(AliveDegree(graph, alive, v), static_cast<uint64_t>(x));
  });
  uint64_t total = 0;
  for (const PaddedCounter& p : partial) total += p.value;
  return total;
}

std::vector<uint64_t> FourCycleDegrees(const Graph& graph,
                                       std::span<const char> alive,
                                       unsigned threads) {
  const VertexId n = graph.NumVertices();
  auto is_alive = [alive](VertexId u) { return IsAlive(alive, u); };
  std::vector<uint64_t> degrees(n, 0);
  ParallelForStrided(n, threads, [&](unsigned, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (!is_alive(v)) return;
    FourCycleScratch& s = ThisThreadFourCycleScratch(n);
    CountTwoPaths(graph, v, is_alive, s);
    uint64_t d = 0;
    for (VertexId w : s.endpoints) {
      d += s.paths[w] * (s.paths[w] - 1) / 2;
      s.paths[w] = 0;
    }
    degrees[v] = d;
  });
  return degrees;
}

uint64_t FourCycleCount(const Graph& graph, std::span<const char> alive,
                        unsigned threads) {
  return InstancesFromDegrees(FourCycleDegrees(graph, alive, threads), 4);
}

// The basket pass below also writes other vertices' entries (an edge's
// apexes); those writes go through DeltaAccumulator's relaxed atomic adds,
// which commute, so the result is again the same for every thread count.
// Terms that are negative on their own (the corrections) wrap in uint64 and
// cancel in the sum, which is a count.

std::vector<uint64_t> BasketDegrees(const Graph& graph,
                                    std::span<const char> alive,
                                    unsigned threads) {
  const VertexId n = graph.NumVertices();
  const std::span<const EdgeId> offsets = graph.RawOffsets();
  const std::vector<uint32_t> tri = TrianglesPerSlot(graph, alive, threads);
  auto is_alive = [alive](VertexId u) { return IsAlive(alive, u); };
  DeltaAccumulator acc(n, ResolveThreadCount(threads, n));
  std::vector<TriangleScratch> scratch = WorkerScratch(n, threads, true);
  ParallelForStrided(n, threads, [&](unsigned w, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (!is_alive(v)) return;
    TriangleScratch& s = scratch[w];
    std::vector<uint64_t>& paths = s.two_paths.paths;  // P_v
    CountTwoPaths(graph, v, is_alive, s.two_paths);
    const std::span<const VertexId> nv = MarkAliveNeighbors(graph, alive, v, s);
    uint64_t own = 0;
    for (size_t j = 0; j < nv.size(); ++j) {
      const VertexId p = nv[j];
      if (!s.marks[p]) continue;
      const bool roof = Below(graph, p, v);  // v pushes vp's apex terms
      const std::span<const VertexId> np = graph.Neighbors(p);
      const uint32_t* t_p = tri.data() + offsets[p];
      uint64_t c4 = 0;
      uint64_t off_roof = 0;
      s.apexes.clear();
      for (size_t x = 0; x < np.size(); ++x) {
        const VertexId q = np[x];
        if (q == v || !is_alive(q)) continue;
        const uint64_t others = paths[q] - 1;  // 4-cycles v-p-q-?-v
        c4 += others;
        off_roof += t_p[x] * others;
        if (roof && s.marks[q]) s.apexes.push_back(q);
      }
      const uint64_t t = tri[offsets[v] + j];
      // 3 t (t - 1) is 4 C(t, 2), the apexes on C, plus this edge's part
      // of v's apex terms: each of the t triangles {v, p, r} takes off
      // t(vp) - 1.
      own += t * c4 + off_roof - 3 * t * (t - 1);
      for (VertexId a : s.apexes) acc.Add(w, a, c4 - 4 * (t - 1));
    }
    acc.Add(w, v, own);
    ClearMarks(nv, s);
    for (VertexId q : s.two_paths.endpoints) paths[q] = 0;
  });
  return std::move(acc).Finish();
}

uint64_t BasketCount(const Graph& graph, std::span<const char> alive,
                     unsigned threads) {
  return InstancesFromDegrees(BasketDegrees(graph, alive, threads), 5);
}

FourCycleScratch& ThisThreadFourCycleScratch(VertexId n) {
  thread_local FourCycleScratch scratch(0);
  if (scratch.paths.size() < n) scratch.paths.resize(n, 0);
  return scratch;
}

}  // namespace dsd
