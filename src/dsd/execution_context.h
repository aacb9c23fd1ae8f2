// ExecutionContext: the execution policy of one solve, made explicit in the
// API (threads, deadline, cooperative cancellation).
//
// The paper's Section 6.3 parallelizability claim lives in the threaded
// counting functions and the src/parallel/ kernels; the context is how the
// public API reaches them. Every hot oracle query (MotifOracle::Degrees /
// CountInstances / PeelBatch) takes a context and the built-in oracles run
// it on ctx.threads workers, so one knob at the SolveRequest level buys
// wall-clock speedup everywhere those queries dominate. The deadline and cancel flag give long runs a cooperative stop:
// algorithms poll ShouldStop() at loop granularity and bail out with their
// best answer so far (dsd::Solve then reports DeadlineExceeded instead of
// returning the truncated result).
#ifndef DSD_DSD_EXECUTION_CONTEXT_H_
#define DSD_DSD_EXECUTION_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace dsd {

class DecompositionIndex;

/// Per-run execution policy, passed (by const reference) through
/// Solver::Run into the oracle's hot queries. Copyable and cheap; the
/// default-constructed context means "sequential, no deadline, not
/// cancellable" and is what every legacy call site gets implicitly.
struct ExecutionContext {
  using Clock = std::chrono::steady_clock;

  /// Effective worker budget for parallel-capable oracles; always >= 1.
  /// This is a resolved count (the 0 = "auto" substitution happens at the
  /// SolveRequest boundary), so oracles use it as-is, clamping only by the
  /// work actually available (e.g. vertex count).
  unsigned threads = 1;

  /// Wall-clock deadline; the epoch value (default) means "none".
  Clock::time_point deadline{};

  /// Optional external kill switch. The pointee must outlive every run that
  /// sees this context. nullptr means "not cancellable".
  const std::atomic<bool>* cancelled = nullptr;

  /// Optional store of complete whole-graph decompositions (motif_core.h)
  /// that DecomposeForSolve reads before peeling and fills after. The
  /// pointee must outlive every run that sees this context. nullptr means
  /// "always decompose": batch solves never set it.
  DecompositionIndex* decompositions = nullptr;

  /// A sequential context: 1 thread, no deadline, no cancel flag.
  static ExecutionContext Sequential() { return ExecutionContext(); }

  /// Copy of this context with a different worker budget (0 is normalised
  /// to 1: the context always names a concrete count).
  ExecutionContext WithThreads(unsigned t) const {
    ExecutionContext ctx = *this;
    ctx.threads = t > 0 ? t : 1;
    return ctx;
  }

  /// Copy of this context expiring `seconds` from now (<= 0 expires
  /// immediately, matching "the budget is already spent").
  ExecutionContext WithDeadlineAfter(double seconds) const {
    ExecutionContext ctx = *this;
    ctx.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    return ctx;
  }

  /// Copy of this context observing `flag` as a kill switch.
  ExecutionContext WithCancelFlag(const std::atomic<bool>* flag) const {
    ExecutionContext ctx = *this;
    ctx.cancelled = flag;
    return ctx;
  }

  bool HasDeadline() const { return deadline != Clock::time_point{}; }

  /// True once the deadline has passed (false when none is set).
  bool Expired() const { return HasDeadline() && Clock::now() >= deadline; }

  /// True once the cancel flag has been raised (false when none is set).
  bool Cancelled() const {
    return cancelled != nullptr && cancelled->load(std::memory_order_relaxed);
  }

  /// The cooperative-stop poll: cancelled or past deadline. Algorithms call
  /// this at iteration granularity and return their best-so-far answer when
  /// it fires; exactness claims hold only for runs where it never fired.
  bool ShouldStop() const { return Cancelled() || Expired(); }
};

/// Amortised per-iteration stop poll for hot loops whose iterations vary
/// wildly in cost (a peel removal can be nanoseconds on a sparse periphery
/// or milliseconds through a hub). The cancel flag is a relaxed atomic load,
/// so it is checked on EVERY call — cancellation truncates at exactly the
/// iteration it was raised, which is what makes cancel-driven truncation
/// deterministic for the differential tests. The deadline is a clock read,
/// so it is sampled on an adaptive stride: the poller measures how many
/// iterations elapse per clock read and resizes the stride toward one read
/// per ~1ms of wall clock, replacing fixed "every 64 removals" cadences
/// that overshoot on cheap iterations and under-poll on expensive ones.
/// When the context has no deadline, no clock is ever read.
class DeadlinePoller {
 public:
  explicit DeadlinePoller(const ExecutionContext& ctx) : ctx_(ctx) {}

  /// Call once per iteration. True once the run should stop.
  bool ShouldStop() {
    if (ctx_.Cancelled()) return true;
    if (!ctx_.HasDeadline()) return false;
    if (++since_check_ < stride_) return false;
    const auto now = ExecutionContext::Clock::now();
    if (now >= ctx_.deadline) return true;
    if (have_last_) {
      // Retarget: `stride_` iterations took `elapsed`; scale toward one
      // clock read per kTarget. Growth/shrink is clamped to 16x per
      // adjustment so one anomalous measurement cannot blind the poller.
      const auto elapsed = now - last_check_;
      const double ratio =
          elapsed.count() > 0
              ? static_cast<double>(kTargetNs) /
                    static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            elapsed)
                            .count())
              : 16.0;
      const double scaled =
          static_cast<double>(stride_) * std::min(16.0, std::max(ratio, 0.0625));
      stride_ = static_cast<uint64_t>(
          std::min(scaled, static_cast<double>(kMaxStride)));
      if (stride_ == 0) stride_ = 1;
    }
    last_check_ = now;
    have_last_ = true;
    since_check_ = 0;
    return false;
  }

 private:
  static constexpr uint64_t kTargetNs = 1'000'000;  // ~1ms between clock reads
  static constexpr uint64_t kMaxStride = uint64_t{1} << 20;

  const ExecutionContext& ctx_;
  uint64_t stride_ = 1;  // first deadline-bearing call always reads the clock
  uint64_t since_check_ = 0;
  ExecutionContext::Clock::time_point last_check_{};
  bool have_last_ = false;
};

}  // namespace dsd

#endif  // DSD_DSD_EXECUTION_CONTEXT_H_
