#include "parallel/parallel_clique.h"

#include "clique/clique_enumerator.h"
#include "parallel/chunked_accumulator.h"
#include "parallel/parallel_for.h"

namespace dsd {

uint64_t ParallelCliqueCount(const Graph& graph, int h, unsigned threads) {
  // Clamp by hardware AND vertex count: per-root partitioning has at most
  // NumVertices() units of work, so extra workers would only wake and idle.
  const unsigned t = ResolveThreadCount(threads, graph.NumVertices());
  CliqueEnumerator enumerator(graph, h);
  std::vector<CliqueEnumerator::Scratch> scratch;
  for (unsigned w = 0; w < t; ++w) scratch.push_back(enumerator.MakeScratch());
  std::vector<PaddedCounter> partial(t);
  ParallelForStrided(graph.NumVertices(), t,
                     [&](unsigned worker, uint64_t root) {
                       partial[worker].value += enumerator.CountFromRoot(
                           static_cast<VertexId>(root), scratch[worker]);
                     });
  uint64_t total = 0;
  for (const PaddedCounter& p : partial) total += p.value;
  return total;
}

std::vector<uint64_t> ParallelCliqueDegrees(const Graph& graph, int h,
                                            unsigned threads) {
  const unsigned t = ResolveThreadCount(threads, graph.NumVertices());
  CliqueEnumerator enumerator(graph, h);
  std::vector<CliqueEnumerator::Scratch> scratch;
  for (unsigned w = 0; w < t; ++w) scratch.push_back(enumerator.MakeScratch());
  // Chunk-owned shared accumulator: one n-sized totals array with buffered,
  // per-chunk-locked increments, so accumulator memory no longer scales
  // with the thread count (it used to be t private n-sized arrays). The
  // result stays bit-identical for every t: integer addition commutes.
  ChunkedAccumulator accumulator(graph.NumVertices(), t);
  ParallelForStrided(graph.NumVertices(), t,
                     [&](unsigned worker, uint64_t root) {
                       enumerator.DegreesFromRoot(
                           static_cast<VertexId>(root), scratch[worker],
                           [&](VertexId v, uint64_t count) {
                             accumulator.Add(worker, v, count);
                           });
                     });
  return std::move(accumulator).Finish();
}

}  // namespace dsd
