#include "dsd/motif_core.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

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

// One persistent refill worker per pipelined decomposition: a single-slot
// task queue fed over a condition variable, so the per-bracket handoff
// costs a lock + notify instead of a thread spawn. The worker only ever
// runs the engine's count stage; the mutex handoff gives the usual
// happens-before edges, so the shared count scratch (delta array, touched
// list, the alive mask's temporary frontier-bit mutations) is never
// accessed concurrently — the solve thread touches it only while the
// worker is idle, and during an overlap the two threads write disjoint
// state (worker: count scratch + plan; solve thread: queue, degree-derived
// refile list, result arrays).
class RefillWorker {
 public:
  ~RefillWorker() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Hands `task` to the worker. Must not be called while a task is in
  /// flight (the engine launches at most one speculative count per
  /// bracket and always Awaits it in the same iteration).
  void Launch(std::function<void()> task) {
    if (!thread_.joinable()) {
      thread_ = std::thread([this] { Loop(); });
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      assert(!task_ && done_);
      task_ = std::move(task);
      done_ = false;
    }
    cv_.notify_all();
  }

  /// Blocks until the launched task finished.
  void Await() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [&] { return shutdown_ || task_ != nullptr; });
      if (shutdown_) return;
      std::function<void()> task = std::move(task_);
      task_ = nullptr;
      lock.unlock();
      task();
      lock.lock();
      done_ = true;
      cv_.notify_all();
    }
  }

  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::function<void()> task_;
  bool done_ = true;
  bool shutdown_ = false;
};

}  // namespace

std::vector<VertexId> MotifCoreDecomposition::CoreVertices(uint64_t k) const {
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < core.size(); ++v) {
    if (core[v] >= k) vertices.push_back(v);
  }
  return vertices;
}

std::vector<VertexId> MotifCoreDecomposition::BestResidualVertices() const {
  std::vector<VertexId> vertices(removal_order.begin() +
                                     static_cast<ptrdiff_t>(best_residual_start),
                                 removal_order.end());
  std::sort(vertices.begin(), vertices.end());
  return vertices;
}

void ApplyPeelDeltas(const PeelBatchPlan& plan, std::span<const char> alive,
                     std::span<uint64_t> degree, BucketQueue& queue) {
  // Deltas reported for bracket members (dead by now) are dropped — their
  // removal is already accounted for. Application is pure summation per
  // vertex, so the plan's delta order never matters.
  for (const auto& [u, delta] : plan.deltas) {
    if (!alive[u] || delta == 0) continue;
    assert(delta <= degree[u]);
    degree[u] -= delta;
    queue.Push(u, degree[u]);
  }
}

MotifCoreDecomposition MotifCoreDecompose(const Graph& graph,
                                          const MotifOracle& oracle,
                                          const ExecutionContext& ctx,
                                          const MotifCoreOptions& options) {
  const VertexId n = graph.NumVertices();
  MotifCoreDecomposition result;
  result.core.assign(n, 0);
  result.removal_order.reserve(n);
  result.residual_density.reserve(n);
  if (n == 0) return result;

  std::vector<uint64_t> degree = oracle.Degrees(graph, {}, ctx);
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
  // sparse far map) yields whole lowest-degree brackets; each bracket is
  // COUNTED through one CountPeelBatch call (which matches
  // one-vertex-at-a-time removal in ascending-id order exactly, so the
  // decomposition is deterministic and thread-count independent while a
  // parallel oracle shards large brackets across workers) and then APPLIED
  // by the engine: removals recorded, survivor degrees decremented, queue
  // refiled.
  BucketQueue queue(std::min<uint64_t>(
      max_degree + 1, std::max<uint64_t>(64, 2 * static_cast<uint64_t>(n))));
  for (VertexId v = 0; v < n; ++v) queue.Push(v, degree[v]);

  std::vector<char> alive(n, 1);
  // Count-stage scratch. Shared by the solve thread and the refill worker
  // but never concurrently: the handoff through RefillWorker's mutex
  // orders every access, and while a count is in flight the solve thread
  // stays out of `alive`, `delta` and `touched` entirely.
  std::vector<uint64_t> delta(n, 0);
  std::vector<VertexId> touched;

  // COUNT stage: runs `frontier` through the oracle under the current
  // alive mask and packages the result as a plan. The mask is bitwise
  // unchanged on return (CountPeelBatch's contract).
  auto count_bracket = [&](std::vector<VertexId> frontier,
                           uint64_t bracket_degree,
                           const ExecutionContext& count_ctx) {
    PeelBatchPlan plan;
    plan.frontier = std::move(frontier);
    plan.bracket_degree = bracket_degree;
    touched.clear();
    plan.destroyed = oracle.CountPeelBatch(
        graph, plan.frontier, {alive.data(), alive.size()},
        [&](VertexId u, uint64_t count) {
          if (delta[u] == 0) touched.push_back(u);
          delta[u] += count;
        },
        count_ctx);
    assert(plan.destroyed.size() <= plan.frontier.size());
    plan.deltas.reserve(touched.size());
    for (VertexId u : touched) {
      plan.deltas.emplace_back(u, delta[u]);
      delta[u] = 0;
    }
    return plan;
  };

  // Pops the next bracket in the canonical within-bracket order (ascending
  // vertex id). Everything downstream (densities, removal_order, survivor
  // deltas) is derived from this one order, so sequential and parallel
  // counts agree bitwise.
  auto pop_frontier = [&](uint64_t* bracket_degree) {
    std::vector<VertexId> frontier = queue.PopMinBucket(
        [&](VertexId v, uint64_t d) { return alive[v] != 0 && degree[v] == d; },
        bracket_degree);
    std::sort(frontier.begin(), frontier.end());
    return frontier;
  };

  PeelEngineStats& stats = result.peel_stats;
  uint64_t k = 0;
  VertexId remaining_vertices = n;
  bool stopped = false;

  // Residual densities are recorded per removal (not per bracket): each
  // entry is the density of the graph right before that single vertex
  // leaves, exactly as in one-at-a-time peeling.
  auto record_removals = [&](const PeelBatchPlan& plan) {
    for (size_t i = 0; i < plan.destroyed.size(); ++i) {
      const VertexId v = plan.frontier[i];
      assert(!alive[v]);
      result.residual_density.push_back(
          static_cast<double>(remaining_instances) / remaining_vertices);
      if (result.residual_density.back() > result.best_residual_density) {
        result.best_residual_density = result.residual_density.back();
        result.best_residual_start = result.removal_order.size();
      }
      result.core[v] = k;
      result.removal_order.push_back(v);
      --remaining_vertices;
      assert(plan.destroyed[i] <= remaining_instances);
      remaining_instances -= plan.destroyed[i];
    }
  };

  const bool pipelined = options.pipeline && ctx.threads >= 2;
  RefillWorker worker;  // thread spawned lazily on the first overlap
  const ExecutionContext worker_ctx =
      ctx.WithThreads(ctx.threads > 1 ? ctx.threads - 1 : 1);

  // Carried across iterations by the pipelined path: a committed
  // speculative plan, or (after a discarded prediction) a popped but
  // not-yet-counted frontier.
  std::optional<PeelBatchPlan> committed;
  std::optional<std::pair<std::vector<VertexId>, uint64_t>> pending_frontier;
  std::vector<std::pair<VertexId, uint64_t>> refile;  // (v, new degree)

  while (remaining_vertices > 0) {
    PeelBatchPlan plan;
    if (committed.has_value()) {
      // A committed speculative plan is already paid for — process it even
      // if the deadline just fired (its truncation, if any, is recorded
      // below), exactly as the serial engine records a count it truncated
      // mid-bracket. This keeps cancel-driven truncation bit-identical
      // between the engines: the flag fires at the same removal of the
      // same count either way.
      plan = std::move(*committed);
      committed.reset();
    } else {
      // Deadline/cancel poll at bracket granularity; the count stage
      // additionally polls inside huge brackets. A truncated decomposition
      // is documented as best-effort only.
      if (ctx.ShouldStop()) {
        stopped = true;
        break;
      }
      uint64_t bracket_degree = 0;
      std::vector<VertexId> frontier;
      if (pending_frontier.has_value()) {
        frontier = std::move(pending_frontier->first);
        bracket_degree = pending_frontier->second;
        pending_frontier.reset();
      } else {
        frontier = pop_frontier(&bracket_degree);
      }
      assert(!frontier.empty());
      if (frontier.empty()) {
        // Defensive (cannot happen: every alive vertex has a live entry).
        // Degrade to the documented truncation semantics so removal_order
        // stays a permutation even if the invariant ever drifts.
        stopped = true;
        break;
      }
      // Inline count: the solve thread stalls for the whole refill. This
      // is every bracket of the serial engine, and the first bracket (plus
      // any discarded prediction) of the pipelined one.
      const auto count_start = SteadyClock::now();
      plan = count_bracket(std::move(frontier), bracket_degree, ctx);
      const uint64_t count_ns = ElapsedNs(count_start);
      stats.refill_ns += count_ns;
      stats.apply_stall_ns += count_ns;
    }

    ++stats.brackets;
    const size_t processed = plan.destroyed.size();
    const bool truncated = processed < plan.frontier.size();
    // The core level rises only once a removal at this bracket actually
    // happened: a deadline firing inside the count before any member was
    // processed must not inflate kmax past the deepest level peeled.
    if (processed > 0) k = std::max(k, plan.bracket_degree);
    // APPLY the removals to the mask. From here on the mask and (after the
    // subtraction below) degree[] describe the post-bracket graph — the
    // state both the boundary probe and the speculative count need.
    for (size_t i = 0; i < processed; ++i) alive[plan.frontier[i]] = 0;

    if (!pipelined) {
      record_removals(plan);
      ApplyPeelDeltas(plan, {alive.data(), alive.size()},
                      {degree.data(), degree.size()}, queue);
      if (truncated) {
        // The count hit the deadline mid-bracket: the unprocessed suffix
        // is still alive and joins the appended remainder below.
        stopped = true;
        break;
      }
      continue;
    }

    // Pipelined apply, phase 1 (synchronous, O(touched)): subtract the
    // survivor degrees and stage the refile list. Cheap compared to the
    // count, and it must precede the boundary probe.
    refile.clear();
    uint64_t refile_min = std::numeric_limits<uint64_t>::max();
    for (const auto& [u, d] : plan.deltas) {
      if (!alive[u] || d == 0) continue;
      assert(d <= degree[u]);
      degree[u] -= d;
      refile.emplace_back(u, degree[u]);
      refile_min = std::min(refile_min, degree[u]);
    }

    const VertexId remaining_after =
        remaining_vertices - static_cast<VertexId>(processed);

    // Predict the next bracket and launch its count on the refill worker.
    // The probe yields the minimum bucket over UNTOUCHED entries only:
    // every refiled vertex's stale entries fail the degree[v] == d
    // predicate (its degree strictly decreased) and its fresh entry is not
    // pushed yet. Merging in the refiled survivors that now sit at the
    // overall minimum gives exactly the bracket the next pop must yield —
    // the prediction is exact by construction; the post-pop equality check
    // below is the validity gate that makes bit-identity unconditional.
    bool launched = false;
    PeelBatchPlan speculative;
    uint64_t speculative_count_ns = 0;
    if (!truncated && remaining_after > 0 && !ctx.ShouldStop()) {
      uint64_t peek_degree = 0;
      std::vector<VertexId> predicted = queue.PeekMinBucket(
          [&](VertexId v, uint64_t d) {
            return alive[v] != 0 && degree[v] == d;
          },
          &peek_degree);
      if (predicted.empty()) {
        peek_degree = std::numeric_limits<uint64_t>::max();
      }
      const uint64_t predicted_degree = std::min(peek_degree, refile_min);
      if (peek_degree > predicted_degree) predicted.clear();
      if (refile_min == predicted_degree) {
        for (const auto& [u, d] : refile) {
          if (d == predicted_degree) predicted.push_back(u);
        }
      }
      if (!predicted.empty()) {
        std::sort(predicted.begin(), predicted.end());
        ++stats.brackets_overlapped;
        launched = true;
        worker.Launch([&count_bracket, &speculative, &speculative_count_ns,
                       &worker_ctx, predicted = std::move(predicted),
                       predicted_degree]() mutable {
          const auto count_start = SteadyClock::now();
          speculative = count_bracket(std::move(predicted), predicted_degree,
                                      worker_ctx);
          speculative_count_ns = ElapsedNs(count_start);
        });
      }
    }

    // Pipelined apply, phase 2 — overlapped with the speculative count:
    // record the removals and refile the survivors. Nothing here reads the
    // alive mask or the count scratch, which the worker owns while the
    // overlap is in flight.
    record_removals(plan);
    queue.PushAll(refile);

    if (launched) {
      const auto wait_start = SteadyClock::now();
      worker.Await();
      stats.apply_stall_ns += ElapsedNs(wait_start);
      stats.refill_ns += speculative_count_ns;
    }

    if (truncated) {
      stopped = true;
      break;
    }
    if (launched) {
      // Validity check: commit the speculative plan iff the real pop
      // yields exactly the predicted bracket at the predicted level. A
      // mismatch (which would mean an engine invariant drifted — hence the
      // debug assert) discards the plan and recounts the popped frontier
      // inline next iteration, so outputs stay bit-identical no matter
      // what.
      uint64_t actual_degree = 0;
      std::vector<VertexId> actual = pop_frontier(&actual_degree);
      if (actual == speculative.frontier &&
          actual_degree == speculative.bracket_degree) {
        ++stats.speculation_hits;
        committed = std::move(speculative);
      } else {
        assert(false && "peel pipeline: prediction diverged from pop");
        ++stats.speculation_misses;
        if (!actual.empty()) {
          pending_frontier.emplace(std::move(actual), actual_degree);
        }
      }
    } else if (remaining_after > 0) {
      // No prediction was possible (stop-poll raced, or — defensively —
      // the probe came back empty): the next bracket pays an inline count.
      ++stats.speculation_misses;
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
      decomposition->removal_order.size() * sizeof(VertexId) +
      decomposition->residual_density.size() * sizeof(double);
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
                                     uint64_t k,
                                     const ExecutionContext& ctx) {
  // Batch rounds: recompute degrees on the survivor set, drop every vertex
  // below k, repeat to fixpoint. Unlike incremental peeling this costs
  // nothing per *removed* vertex — crucial for CoreApp, whose windows are
  // peeled at a level that usually annihilates them outright.
  std::vector<VertexId> survivors(vertices);
  std::sort(survivors.begin(), survivors.end());
  // The deadline poll matters here: each round is a full motif-degree pass,
  // so an unpolled fixpoint loop could overshoot a blown budget by many
  // passes. A stopped run returns the not-yet-fixpoint survivor set — a
  // superset of the core, fine for best-effort callers.
  //
  // Rounds query the parent graph under an alive mask (not a rebuilt
  // induced subgraph): same reduction inside the oracle, but the queries
  // are keyed by the parent's generation tag, so a survivor set revisited
  // across calls — CoreExact re-restricting at the same level — hits the
  // CachingOracle.
  std::vector<char> alive(graph.NumVertices(), 0);
  for (VertexId v : survivors) alive[v] = 1;
  while (!survivors.empty() && !ctx.ShouldStop()) {
    std::vector<uint64_t> degree = oracle.Degrees(graph, alive, ctx);
    std::vector<VertexId> next;
    next.reserve(survivors.size());
    for (VertexId v : survivors) {
      if (degree[v] >= k) {
        next.push_back(v);
      } else {
        alive[v] = 0;
      }
    }
    if (next.size() == survivors.size()) break;
    survivors = std::move(next);
  }
  return survivors;
}

}  // namespace dsd
