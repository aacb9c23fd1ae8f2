// Data-parallel loop used by the parallel algorithms of Section 6.3.
//
// Static strided partitioning, no work stealing: the workloads it carries
// (per-root clique enumeration, per-vertex closed forms) are balanced
// enough by strided assignment over sliced items that anything fancier is
// not worth the machinery. The peel kernels, whose parts vary by orders of
// magnitude, run one claim loop per worker on top of it.
//
// Workers persist: the process keeps one pool of parked helper threads. A
// call with t workers borrows t-1 of them (spawning any the pool lacks),
// and the caller and its helpers claim the t worker slots until none is
// left, so a call costs a wake-up instead of t thread spawns — which is
// what lets a peel bracket of one or two members go parallel. The caller
// never waits for a helper that has not woken yet: it runs the unclaimed
// slots itself and takes the helper back. Helpers are lent to one call at
// a time, so concurrent callers (server lanes, each on its own grant) never
// run more than their own t workers, and the pool holds only as many
// helpers as calls have needed at once. A call made from inside a running
// loop body runs its workers inline on that thread, so nesting cannot
// multiply threads.
#ifndef DSD_PARALLEL_PARALLEL_FOR_H_
#define DSD_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <cstdint>
#include <thread>

namespace dsd {

/// Number of worker threads to use when the caller passes 0 ("auto").
inline unsigned ResolveThreadCount(unsigned requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Same, additionally clamped by the number of parallel work items: a
/// 6-vertex graph on a 64-core box gets 6 workers, not 64 idle ones.
/// Always returns >= 1 (so zero work items still yield a valid count).
inline unsigned ResolveThreadCount(unsigned requested, uint64_t work_items) {
  const uint64_t cap = std::max<uint64_t>(work_items, 1);
  return static_cast<unsigned>(
      std::min<uint64_t>(ResolveThreadCount(requested), cap));
}

/// A per-worker reduction slot padded to its own cache line: workers that
/// bump their slot on a hot inner loop (per enumerated instance) would
/// otherwise false-share one line and serialise on its ping-pong.
struct alignas(64) PaddedCounter {
  uint64_t value = 0;
};

namespace internal {

/// Runs body(context, w) once for every worker slot w in [0, t) (t >= 2),
/// each slot on one thread: the caller's or a borrowed helper's (all on
/// the calling thread when called from inside a loop body). Returns after
/// every slot has finished.
void RunOnWorkers(unsigned t, void (*body)(void*, unsigned), void* context);

}  // namespace internal

/// Runs fn over [0, n) on `threads` workers (clamped by n) in strided
/// blocks: worker w handles indices w, w+T, w+2T, ... — striding balances
/// skewed per-index costs (hub vertices) across workers. Worker indices are
/// below the clamped count, so per-worker state sized by
/// ResolveThreadCount(threads, n) fits. An exception fn throws on any
/// worker reaches the caller once every worker has stopped.
///
/// fn must be callable as fn(unsigned thread_index, uint64_t index).
template <typename Fn>
void ParallelForStrided(uint64_t n, unsigned threads, Fn fn) {
  const unsigned t = ResolveThreadCount(threads, n);
  auto run = [&fn, n, t](unsigned worker) {
    for (uint64_t i = worker; i < n; i += t) fn(worker, i);
  };
  if (t == 1) {
    run(0);
    return;
  }
  internal::RunOnWorkers(
      t,
      [](void* context, unsigned worker) {
        (*static_cast<decltype(run)*>(context))(worker);
      },
      &run);
}

}  // namespace dsd

#endif  // DSD_PARALLEL_PARALLEL_FOR_H_
