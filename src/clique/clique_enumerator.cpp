#include "clique/clique_enumerator.h"

#include <algorithm>
#include <cassert>

#include "core/kcore.h"
#include "graph/intersect.h"
#include "parallel/chunked_accumulator.h"
#include "parallel/parallel_for.h"

namespace dsd {

CliqueEnumerator::CliqueEnumerator(const Graph& graph, int h)
    : graph_(graph), h_(h), dag_offsets_(graph.NumVertices() + 1, 0) {
  assert(h >= 1);
  CoreDecomposition decomposition = KCoreDecomposition(graph);
  std::vector<VertexId> rank = DegeneracyRank(decomposition);
  dag_targets_.reserve(graph.NumEdges());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    // Graph adjacency is sorted by id, so each DAG list is too.
    for (VertexId w : graph.Neighbors(v)) {
      if (rank[w] > rank[v]) dag_targets_.push_back(w);
    }
    dag_offsets_[v + 1] = dag_targets_.size();
    max_out_degree_ = std::max<size_t>(max_out_degree_, Out(v).size());
  }
}

CliqueEnumerator::Scratch CliqueEnumerator::MakeScratch() const {
  // Depths 1..h-2 each write one intersection no longer than an out-list.
  const size_t slots = h_ > 2 ? static_cast<size_t>(h_ - 2) : 0;
  return {std::vector<VertexId>(h_),
          std::vector<VertexId>(slots * max_out_degree_)};
}

template <typename Leaf>
void CliqueEnumerator::Extend(int depth, std::span<const VertexId> candidates,
                              Scratch& scratch, Leaf& leaf) const {
  // prefix[0, depth) is a clique; `candidates` are its common successors.
  if (depth == h_ - 1) {
    // Every remaining candidate completes a clique.
    leaf(std::span<const VertexId>(scratch.prefix.data(), depth), candidates);
    return;
  }
  // Prune: not enough candidates left to reach size h.
  if (static_cast<int>(candidates.size()) < h_ - depth) return;
  VertexId* next =
      scratch.candidates.data() + static_cast<size_t>(depth - 1) *
                                      max_out_degree_;
  for (VertexId c : candidates) {
    // Survivors must be DAG-successors of every prefix vertex including c;
    // both ranges are sorted by vertex id.
    const size_t size = IntersectSorted(candidates, Out(c), next);
    scratch.prefix[depth] = c;
    Extend(depth + 1, {next, size}, scratch, leaf);
  }
}

template <typename Leaf>
void CliqueEnumerator::Walk(VertexId root, Scratch& scratch,
                            Leaf& leaf) const {
  if (h_ == 1) {
    Extend(0, {&root, 1}, scratch, leaf);
    return;
  }
  scratch.prefix[0] = root;
  Extend(1, Out(root), scratch, leaf);
}

void CliqueEnumerator::EnumerateFromRoot(VertexId root, Scratch& scratch,
                                         const CliqueCallback& cb) const {
  auto leaf = [&](std::span<const VertexId>,
                  std::span<const VertexId> last) {
    for (VertexId c : last) {
      scratch.prefix[h_ - 1] = c;
      cb(scratch.prefix);
    }
  };
  Walk(root, scratch, leaf);
}

uint64_t CliqueEnumerator::CountFromRoot(VertexId root,
                                         Scratch& scratch) const {
  uint64_t count = 0;
  auto leaf = [&count](std::span<const VertexId>,
                       std::span<const VertexId> last) {
    count += last.size();
  };
  Walk(root, scratch, leaf);
  return count;
}

void CliqueEnumerator::DegreesFromRoot(
    VertexId root, Scratch& scratch,
    const std::function<void(VertexId, uint64_t)>& add) const {
  auto leaf = [&add](std::span<const VertexId> prefix,
                     std::span<const VertexId> last) {
    if (last.empty()) return;
    for (VertexId u : prefix) add(u, last.size());
    for (VertexId c : last) add(c, 1);
  };
  Walk(root, scratch, leaf);
}

void CliqueEnumerator::Enumerate(const CliqueCallback& cb) const {
  Scratch scratch = MakeScratch();
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    EnumerateFromRoot(v, scratch, cb);
  }
}

uint64_t CliqueEnumerator::Count(unsigned threads) const {
  // Clamp by hardware AND vertex count: per-root partitioning has at most
  // NumVertices() units of work, so extra workers would only wake and idle.
  const unsigned t = ResolveThreadCount(threads, graph_.NumVertices());
  if (t == 1) {
    Scratch scratch = MakeScratch();
    uint64_t count = 0;
    for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
      count += CountFromRoot(v, scratch);
    }
    return count;
  }
  std::vector<Scratch> scratch;
  for (unsigned w = 0; w < t; ++w) scratch.push_back(MakeScratch());
  std::vector<PaddedCounter> partial(t);
  ParallelForStrided(graph_.NumVertices(), t,
                     [&](unsigned worker, uint64_t root) {
                       partial[worker].value += CountFromRoot(
                           static_cast<VertexId>(root), scratch[worker]);
                     });
  uint64_t total = 0;
  for (const PaddedCounter& p : partial) total += p.value;
  return total;
}

std::vector<uint64_t> CliqueEnumerator::Degrees(unsigned threads) const {
  const unsigned t = ResolveThreadCount(threads, graph_.NumVertices());
  if (t == 1) {
    Scratch scratch = MakeScratch();
    std::vector<uint64_t> degrees(graph_.NumVertices(), 0);
    auto leaf = [&degrees](std::span<const VertexId> prefix,
                           std::span<const VertexId> last) {
      for (VertexId u : prefix) degrees[u] += last.size();
      for (VertexId c : last) ++degrees[c];
    };
    for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
      Walk(v, scratch, leaf);
    }
    return degrees;
  }
  std::vector<Scratch> scratch;
  for (unsigned w = 0; w < t; ++w) scratch.push_back(MakeScratch());
  // One shared chunk-locked totals array rather than t private n-sized
  // ones; integer addition commutes, so every t gives the same bits.
  ChunkedAccumulator accumulator(graph_.NumVertices(), t);
  ParallelForStrided(graph_.NumVertices(), t,
                     [&](unsigned worker, uint64_t root) {
                       DegreesFromRoot(static_cast<VertexId>(root),
                                       scratch[worker],
                                       [&](VertexId v, uint64_t count) {
                                         accumulator.Add(worker, v, count);
                                       });
                     });
  return std::move(accumulator).Finish();
}

}  // namespace dsd
