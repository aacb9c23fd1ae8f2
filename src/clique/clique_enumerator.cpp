#include "clique/clique_enumerator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>

#include "core/kcore.h"
#include "graph/intersect.h"
#include "parallel/delta_accumulator.h"
#include "parallel/parallel_for.h"

namespace dsd {

namespace {

std::shared_ptr<const CliqueOrientation> BuildOrientation(const Graph& graph) {
  auto dag = std::make_shared<CliqueOrientation>();
  std::vector<VertexId> rank = DegeneracyRank(KCoreDecomposition(graph));
  dag->offsets.assign(graph.NumVertices() + 1, 0);
  dag->targets.reserve(graph.NumEdges());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    // Graph adjacency is sorted by id, so each DAG list is too.
    for (VertexId w : graph.Neighbors(v)) {
      if (rank[w] > rank[v]) dag->targets.push_back(w);
    }
    dag->offsets[v + 1] = dag->targets.size();
    dag->max_out_degree = std::max<size_t>(
        dag->max_out_degree, dag->offsets[v + 1] - dag->offsets[v]);
  }
  return dag;
}

}  // namespace

const CliqueOrientation& GraphOrientation(const Graph& graph) {
  OrientationSlot* slot = graph.Orientation();
  if (slot == nullptr) {
    // Only empty graphs have no slot, and they all share one orientation.
    assert(graph.NumVertices() == 0);
    static const CliqueOrientation kEmpty{{0}, {}, 0};
    return kEmpty;
  }
  std::call_once(slot->built,
                 [&] { slot->orientation = BuildOrientation(graph); });
  return *slot->orientation;
}

CliqueEnumerator::CliqueEnumerator(const Graph& graph, int h)
    : graph_(graph),
      h_(h),
      dag_(GraphOrientation(graph)),
      offsets_(dag_.offsets.data()),
      targets_(dag_.targets.data()) {
  assert(h >= 1);
}

void CliqueEnumerator::Fit(Scratch& scratch) const {
  // Depths 1..h-2 each write one intersection no longer than an out-list.
  const size_t slots = h_ > 2 ? static_cast<size_t>(h_ - 2) : 0;
  if (scratch.prefix.size() < static_cast<size_t>(h_)) {
    scratch.prefix.resize(h_);
  }
  if (scratch.candidates.size() < slots * dag_.max_out_degree) {
    scratch.candidates.resize(slots * dag_.max_out_degree);
  }
}

CliqueEnumerator::Scratch& CliqueEnumerator::ThreadScratch() const {
  thread_local Scratch scratch;
  Fit(scratch);
  return scratch;
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
                                      dag_.max_out_degree;
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

template <typename Leaf>
void CliqueEnumerator::WalkStrided(unsigned worker, unsigned t,
                                   Leaf& leaf) const {
  Scratch& scratch = ThreadScratch();
  for (uint64_t root = worker; root < graph_.NumVertices(); root += t) {
    Walk(static_cast<VertexId>(root), scratch, leaf);
  }
}

void CliqueEnumerator::Enumerate(const CliqueCallback& cb) const {
  // Its own Scratch, not the thread's: cb may count cliques itself.
  Scratch scratch;
  Fit(scratch);
  auto leaf = [&](std::span<const VertexId>,
                  std::span<const VertexId> last) {
    for (VertexId c : last) {
      scratch.prefix[h_ - 1] = c;
      cb({scratch.prefix.data(), static_cast<size_t>(h_)});
    }
  };
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) Walk(v, scratch, leaf);
}

uint64_t CliqueEnumerator::Count(unsigned threads) const {
  // Clamp by hardware AND vertex count: per-root partitioning has at most
  // NumVertices() units of work, so extra workers would only wake and idle.
  const unsigned t = ResolveThreadCount(threads, graph_.NumVertices());
  // Each worker counts in a local and writes its slot once.
  std::vector<uint64_t> partial(t, 0);
  ParallelForStrided(t, t, [&](unsigned worker, uint64_t) {
    uint64_t count = 0;
    auto leaf = [&count](std::span<const VertexId>,
                         std::span<const VertexId> last) {
      count += last.size();
    };
    WalkStrided(worker, t, leaf);
    partial[worker] = count;
  });
  uint64_t total = 0;
  for (uint64_t p : partial) total += p;
  return total;
}

std::vector<uint64_t> CliqueEnumerator::Degrees(unsigned threads) const {
  const unsigned t = ResolveThreadCount(threads, graph_.NumVertices());
  if (t == 1) {
    std::vector<uint64_t> degrees(graph_.NumVertices(), 0);
    auto leaf = [&degrees](std::span<const VertexId> prefix,
                           std::span<const VertexId> last) {
      for (VertexId u : prefix) degrees[u] += last.size();
      for (VertexId c : last) ++degrees[c];
    };
    WalkStrided(0, 1, leaf);
    return degrees;
  }
  // One shared totals array behind relaxed atomic adds rather than t
  // private n-sized ones; integer addition commutes, so every t gives the
  // same bits.
  DeltaAccumulator accumulator(graph_.NumVertices(), t);
  ParallelForStrided(t, t, [&](unsigned worker, uint64_t) {
    auto leaf = [&](std::span<const VertexId> prefix,
                    std::span<const VertexId> last) {
      if (last.empty()) return;
      for (VertexId u : prefix) accumulator.Add(worker, u, last.size());
      for (VertexId c : last) accumulator.Add(worker, c);
    };
    WalkStrided(worker, t, leaf);
  });
  return std::move(accumulator).Finish();
}

}  // namespace dsd
