#include "dsd/motif_core.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>

#include "dsd/measure.h"
#include "util/bucket_queue.h"
#include "util/timer.h"

namespace dsd {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedNs(SteadyClock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           since)
          .count());
}

}  // namespace

std::vector<VertexId> MotifCoreDecomposition::CoreVertices(uint64_t k) const {
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < core.size(); ++v) {
    if (core[v] >= k) vertices.push_back(v);
  }
  return vertices;
}

std::vector<VertexId> MotifCoreDecomposition::SuffixVertices(
    size_t start) const {
  std::vector<VertexId> vertices(
      removal_order.begin() + static_cast<ptrdiff_t>(start),
      removal_order.end());
  std::sort(vertices.begin(), vertices.end());
  return vertices;
}

std::vector<VertexId> MotifCoreDecomposition::BestResidualVertices() const {
  return SuffixVertices(best_residual_start);
}

std::optional<size_t> MotifCoreDecomposition::CoreStart(uint64_t k) const {
  if (!complete) return std::nullopt;
  return static_cast<size_t>(
      std::partition_point(removal_order.begin(), removal_order.end(),
                           [this, k](VertexId v) { return core[v] < k; }) -
      removal_order.begin());
}

std::optional<double> MotifCoreDecomposition::CoreDensity(uint64_t k) const {
  const std::optional<size_t> start = CoreStart(k);
  if (!start) return std::nullopt;
  return *start < residual_density.size() ? residual_density[*start] : 0.0;
}

void MotifCoreDecomposition::FillSuffix(size_t start,
                                        DensestResult& result) const {
  FillResult(SuffixVertices(start), residual_instances[start], result);
}

MotifCoreDecomposition MotifCoreDecompose(const Graph& graph,
                                          const MotifOracle& oracle,
                                          const ExecutionContext& ctx) {
  const VertexId n = graph.NumVertices();
  MotifCoreDecomposition result;
  result.core.assign(n, 0);
  result.removal_order.reserve(n);
  result.residual_density.reserve(n);
  result.residual_instances.reserve(n);
  if (n == 0) return result;

  result.degree = oracle.Degrees(graph, {}, ctx);
  std::vector<uint64_t> degree = result.degree;
  uint64_t remaining_instances = 0;
  uint64_t max_degree = 0;
  for (uint64_t d : degree) {
    remaining_instances += d;
    max_degree = std::max(max_degree, d);
  }
  assert(remaining_instances % oracle.MotifSize() == 0);
  remaining_instances /= oracle.MotifSize();
  result.total_instances = remaining_instances;

  // Batch-bracket peeling: a monotone bucket queue (lazy entries, dense
  // near band sized O(n) so astronomically large motif-degrees spill to its
  // far heap) yields whole lowest-degree brackets; each bracket is
  // removed through one PeelBatch call (which matches one-vertex-at-a-time
  // removal in ascending-id order exactly, so the decomposition is
  // deterministic and thread-count independent while a parallel oracle
  // shards large brackets across workers), then the survivors' summed
  // losses are subtracted and refiled.
  BucketQueue queue(std::min<uint64_t>(
      max_degree + 1, std::max<uint64_t>(64, 2 * static_cast<uint64_t>(n))));
  for (VertexId v = 0; v < n; ++v) queue.Push(v, degree[v]);

  std::vector<char> alive(n, 1);
  std::vector<uint64_t> delta(n, 0);
  std::vector<VertexId> touched;
  // One bracket buffer for the whole run: each pop trades its storage with
  // the popped bucket's, so neither side reallocates once warm.
  std::vector<VertexId> frontier;
  PeelEngineStats& stats = result.peel_stats;
  uint64_t k = 0;
  VertexId remaining_vertices = n;
  bool stopped = false;

  while (remaining_vertices > 0) {
    // Deadline/cancel poll at bracket granularity; PeelBatch additionally
    // polls inside huge brackets. A truncated decomposition is documented
    // as best-effort only.
    if (ctx.ShouldStop()) {
      stopped = true;
      break;
    }
    // The canonical within-bracket order (ascending vertex id): everything
    // downstream (densities, removal_order, survivor deltas) is derived
    // from this one order, so sequential and parallel peels agree bitwise.
    uint64_t bracket_degree = 0;
    const bool popped = queue.PopMinBucket(
        [&](VertexId v, uint64_t d) { return alive[v] != 0 && degree[v] == d; },
        &bracket_degree, &frontier);
    assert(popped);
    if (!popped) {
      // Defensive (cannot happen: every alive vertex has a live entry).
      // Degrade to the documented truncation semantics so removal_order
      // stays a permutation even if the invariant ever drifts.
      stopped = true;
      break;
    }
    std::sort(frontier.begin(), frontier.end());

    const auto count_start = SteadyClock::now();
    touched.clear();
    const std::vector<uint64_t> destroyed = oracle.PeelBatch(
        graph, frontier, {alive.data(), alive.size()},
        [&](VertexId u, uint64_t count) {
          if (delta[u] == 0 && count > 0) touched.push_back(u);
          delta[u] += count;
        },
        ctx);
    const uint64_t count_ns = ElapsedNs(count_start);
    stats.refill_ns += count_ns;
    stats.apply_stall_ns += count_ns;
    ++stats.brackets;
    assert(destroyed.size() <= frontier.size());

    // The core level rises only once a removal at this bracket actually
    // happened: a deadline firing inside the batch before any member was
    // processed must not inflate kmax past the deepest level peeled.
    if (!destroyed.empty()) k = std::max(k, bracket_degree);
    // Residual densities are recorded per removal (not per bracket): each
    // entry is the density of the graph right before that single vertex
    // leaves, exactly as in one-at-a-time peeling.
    for (size_t i = 0; i < destroyed.size(); ++i) {
      const VertexId v = frontier[i];
      assert(!alive[v]);
      result.residual_instances.push_back(remaining_instances);
      result.residual_density.push_back(
          static_cast<double>(remaining_instances) / remaining_vertices);
      if (result.residual_density.back() > result.best_residual_density) {
        result.best_residual_density = result.residual_density.back();
        result.best_residual_start = result.removal_order.size();
      }
      result.core[v] = k;
      result.removal_order.push_back(v);
      --remaining_vertices;
      assert(destroyed[i] <= remaining_instances);
      remaining_instances -= destroyed[i];
    }
    // Deltas reported for bracket members (dead by now) are dropped — their
    // removal is already accounted for.
    for (VertexId u : touched) {
      if (alive[u]) {
        assert(delta[u] <= degree[u]);
        degree[u] -= delta[u];
        queue.Push(u, degree[u]);
      }
      delta[u] = 0;
    }
    if (destroyed.size() < frontier.size()) {
      // PeelBatch hit the deadline mid-bracket: the unprocessed suffix is
      // still alive and joins the appended remainder below.
      stopped = true;
      break;
    }
  }
  assert(stopped || remaining_instances == 0);
  if (stopped) {
    // Keep removal_order a permutation of V so the suffix invariant behind
    // BestResidualVertices()/DensestAtLeast still holds: the recorded
    // residual densities were measured on "peeled suffix + everything still
    // alive", so the alive remainder must be part of every suffix. No
    // density entries are recorded for the unpeeled tail and core numbers
    // of unpeeled vertices stay at their last value — a truncated
    // decomposition is best-effort only (see header).
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) result.removal_order.push_back(v);
    }
  }
  result.kmax = k;
  result.complete = !stopped;
  return result;
}

std::shared_ptr<const MotifCoreDecomposition> DecompositionIndex::Find(
    const std::string& motif) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(motif);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

void DecompositionIndex::Insert(
    const std::string& motif,
    std::shared_ptr<const MotifCoreDecomposition> decomposition) {
  assert(decomposition->complete);
  const uint64_t bytes =
      decomposition->core.size() * sizeof(uint64_t) +
      decomposition->degree.size() * sizeof(uint64_t) +
      decomposition->removal_order.size() * sizeof(VertexId) +
      decomposition->residual_density.size() * sizeof(double) +
      decomposition->residual_instances.size() * sizeof(uint64_t);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.emplace(motif, std::move(decomposition)).second) {
    stats_.bytes += bytes;
  }
}

DecompositionIndex::Stats DecompositionIndex::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::shared_ptr<const MotifCoreDecomposition> DecomposeForSolve(
    const Graph& graph, const MotifOracle& oracle, const ExecutionContext& ctx,
    AlgoStats& stats) {
  Timer timer;
  DecompositionIndex* index =
      ctx.decompositions != nullptr && ctx.decompositions->Serves(graph)
          ? ctx.decompositions
          : nullptr;
  std::shared_ptr<const MotifCoreDecomposition> decomposition;
  if (index != nullptr) decomposition = index->Find(oracle.Name());
  if (decomposition == nullptr) {
    decomposition = std::make_shared<const MotifCoreDecomposition>(
        MotifCoreDecompose(graph, oracle, ctx));
    stats.peel.Add(decomposition->peel_stats);
    if (index != nullptr && decomposition->complete) {
      index->Insert(oracle.Name(), decomposition);
    }
  }
  stats.decomposition_seconds = timer.Seconds();
  stats.kmax = static_cast<uint32_t>(
      std::min<uint64_t>(decomposition->kmax, UINT32_MAX));
  return decomposition;
}

std::vector<VertexId> RestrictToCore(const Graph& graph,
                                     const MotifOracle& oracle,
                                     const std::vector<VertexId>& vertices,
                                     uint64_t k, const ExecutionContext& ctx,
                                     std::span<const VertexId> keep,
                                     std::span<const uint64_t> input_degree) {
  std::vector<VertexId> survivors(vertices);
  std::sort(survivors.begin(), survivors.end());
  if (k == 0 || survivors.empty()) return survivors;
  std::vector<char> kept(graph.NumVertices(), 0);
  for (VertexId v : keep) kept[v] = 1;
  std::vector<char> alive(graph.NumVertices(), 0);
  for (VertexId v : survivors) alive[v] = 1;
  // Keeps the survivors still alive; the result stays sorted.
  auto prune = [&survivors, &alive] {
    std::erase_if(survivors, [&alive](VertexId v) { return !alive[v]; });
  };

  // Bulk pass: one degree query over the input (or the caller's degrees)
  // drops every vertex that is under-supported even before any removal.
  // Most of a window or of all of V usually goes here, at no per-vertex
  // peel cost. All of V is queried through the empty all-alive mask, which
  // no oracle has to copy.
  std::vector<uint64_t> degree;
  if (input_degree.empty()) {
    const bool whole =
        std::find(alive.begin(), alive.end(), 0) == alive.end();
    degree = oracle.Degrees(
        graph, whole ? std::span<const char>() : std::span<const char>(alive),
        ctx);
    input_degree = degree;
  }
  for (VertexId v : survivors) {
    if (input_degree[v] < k && !kept[v]) alive[v] = 0;
  }
  const size_t before = survivors.size();
  prune();
  if (survivors.size() == before || survivors.empty() || ctx.ShouldStop()) {
    return survivors;
  }

  // One masked pass gives the survivors' degrees among themselves; then the
  // cascade is peeled to its fixpoint, each vertex removed once through
  // PeelBatch. The protected k-core is the unique maximal set whose
  // unprotected members all have degree >= k, so the removal order cannot
  // change the output. A stopped run returns a superset of the core, fine
  // for best-effort callers.
  degree = oracle.Degrees(graph, alive, ctx);
  std::vector<VertexId> frontier;
  for (VertexId v : survivors) {
    if (degree[v] < k && !kept[v]) frontier.push_back(v);
  }
  while (!frontier.empty() && !ctx.ShouldStop()) {
    std::vector<VertexId> next;
    const std::vector<uint64_t> destroyed = oracle.PeelBatch(
        graph, frontier, alive,
        [&](VertexId u, uint64_t count) {
          if (!alive[u]) return;
          const bool supported = degree[u] >= k;
          degree[u] -= count;
          if (supported && degree[u] < k && !kept[u]) next.push_back(u);
        },
        ctx);
    if (destroyed.size() < frontier.size()) break;
    std::sort(next.begin(), next.end());
    frontier = std::move(next);
  }
  prune();
  return survivors;
}

}  // namespace dsd
