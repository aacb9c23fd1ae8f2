#include "parallel/parallel_pattern.h"

#include <algorithm>

#include "parallel/chunked_accumulator.h"
#include "parallel/parallel_for.h"
#include "pattern/isomorphism.h"

namespace dsd {

namespace {

// One unit of generic-matcher work: a root, or one candidate-loop slice
// of a hub root (MatchFromRoot's slice parameters).
struct RootSlice {
  VertexId root;
  uint32_t slice;
  uint32_t num_slices;
};

// Static per-root shards leave a hub root pinning one worker while the
// others drain; splitting the hub's first-extension candidate loop into
// strided slices evens the load without touching the reduction (slices
// partition the root's embeddings exactly). The threshold is relative to
// the average degree with an absolute floor, so regular graphs stay on the
// cheap one-item-per-root path.
std::vector<RootSlice> BuildRootSlices(const Graph& graph, unsigned t) {
  const VertexId n = graph.NumVertices();
  const uint64_t average =
      n > 0 ? 2 * static_cast<uint64_t>(graph.NumEdges()) / n : 0;
  const uint64_t threshold =
      std::max<uint64_t>(32, 4 * std::max<uint64_t>(average, 1));
  std::vector<RootSlice> items;
  items.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t degree = graph.Degree(v);
    uint32_t slices = 1;
    if (t > 1 && degree >= threshold) {
      slices = static_cast<uint32_t>(
          std::min<uint64_t>(t, (degree + threshold - 1) / threshold));
    }
    for (uint32_t s = 0; s < slices; ++s) items.push_back({v, s, slices});
  }
  return items;
}

}  // namespace

std::vector<uint64_t> ParallelPatternDegrees(const Graph& graph,
                                             const PatternPlanSet& plans,
                                             std::span<const char> alive,
                                             unsigned threads) {
  const VertexId n = graph.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  PatternMatcher matcher(graph, plans);
  if (t == 1) return matcher.Degrees(alive);
  const std::vector<RootSlice> items = BuildRootSlices(graph, t);
  ChunkedAccumulator hits(n, t);
  ParallelForStrided(items.size(), t, [&](unsigned worker, uint64_t i) {
    const RootSlice& item = items[i];
    matcher.DegreesFromRoot(
        item.root, alive, matcher.ThreadScratch(),
        [&](VertexId u, uint64_t count) { hits.Add(worker, u, count); },
        item.slice, item.num_slices);
  });
  return std::move(hits).Finish();
}

std::vector<uint64_t> ParallelPatternDegrees(const Graph& graph,
                                             const Pattern& pattern,
                                             std::span<const char> alive,
                                             unsigned threads) {
  return ParallelPatternDegrees(graph, PatternPlanSet(pattern), alive, threads);
}

uint64_t ParallelPatternCount(const Graph& graph, const PatternPlanSet& plans,
                              std::span<const char> alive, unsigned threads) {
  const VertexId n = graph.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  PatternMatcher matcher(graph, plans);
  if (t == 1) return matcher.CountInstances(alive);
  const std::vector<RootSlice> items = BuildRootSlices(graph, t);
  std::vector<PaddedCounter> partial(t);
  ParallelForStrided(items.size(), t, [&](unsigned worker, uint64_t i) {
    const RootSlice& item = items[i];
    partial[worker].value += matcher.CountFromRoot(
        item.root, alive, matcher.ThreadScratch(), item.slice,
        item.num_slices);
  });
  uint64_t total = 0;
  for (const PaddedCounter& p : partial) total += p.value;
  return total;
}

uint64_t ParallelPatternCount(const Graph& graph, const Pattern& pattern,
                              std::span<const char> alive, unsigned threads) {
  return ParallelPatternCount(graph, PatternPlanSet(pattern), alive, threads);
}

}  // namespace dsd
