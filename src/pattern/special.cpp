#include "pattern/special.h"

#include <cassert>

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
  uint64_t total = 0;
  for (uint64_t d : FourCycleDegrees(graph, alive, threads)) total += d;
  assert(total % 4 == 0);
  return total / 4;
}

FourCycleScratch& ThisThreadFourCycleScratch(VertexId n) {
  thread_local FourCycleScratch scratch(0);
  if (scratch.paths.size() < n) scratch.paths.resize(n, 0);
  return scratch;
}

uint64_t StarPeelVertex(const Graph& graph, int x, VertexId v,
                        std::span<const char> alive,
                        const std::function<void(VertexId, uint64_t)>& cb) {
  assert(x >= 2);
  return StarPeelMember(
      graph, x, v, [alive](VertexId u) { return IsAlive(alive, u); }, cb);
}

}  // namespace dsd
