#include "parallel/parallel_for.h"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

namespace dsd::internal {

namespace {

// True on a thread while it runs a loop body (and for a helper's whole
// life): a ParallelForStrided call from there runs inline.
thread_local bool t_in_loop = false;

// One call in flight: t worker slots, claimed by the caller and by the
// helpers lent to it until none is left.
struct Call {
  Call(void (*body_in)(void*, unsigned), void* context_in, unsigned t)
      : body(body_in), context(context_in), slots(t) {}

  void (*const body)(void*, unsigned);
  void* const context;
  const unsigned slots;
  std::atomic<unsigned> next_slot{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // the first exception a helper's slot threw

  void RunSlots() {
    for (unsigned slot;
         (slot = next_slot.fetch_add(1, std::memory_order_relaxed)) < slots;) {
      body(context, slot);
    }
  }

  // A helper's slots, with any exception handed to the caller to rethrow.
  void HelpRunSlots() {
    try {
      RunSlots();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  }
};

// A parked helper thread. The lending caller assigns it a call; the helper
// claims it (kAssigned -> kRunning) when it wakes, or the caller takes it
// back unclaimed (kAssigned -> kIdle) once its own slots are done. Exactly
// one of the two compare-exchanges wins, so a helper that is slow to wake
// costs its caller nothing: the caller runs the slots itself and never
// waits for a helper that has not started. A helper that did start is
// waited for, since it reads the caller's stack.
class Helper {
 public:
  Helper() : thread_(&Helper::Serve, this) {}
  Helper(const Helper&) = delete;
  Helper& operator=(const Helper&) = delete;

  void Assign(Call* call) {
    call_ = call;
    state_.store(kAssigned, std::memory_order_release);
    state_.notify_all();
  }

  void Reclaim() {
    uint32_t expected = kAssigned;
    if (state_.compare_exchange_strong(expected, kIdle)) return;
    while (state_.load(std::memory_order_acquire) == kRunning) {
      state_.wait(kRunning, std::memory_order_acquire);
    }
  }

 private:
  enum : uint32_t { kIdle, kAssigned, kRunning };

  void Serve() {
    t_in_loop = true;
    for (;;) {
      state_.wait(kIdle, std::memory_order_acquire);
      uint32_t expected = kAssigned;
      if (!state_.compare_exchange_strong(expected, kRunning)) continue;
      call_->HelpRunSlots();
      state_.store(kIdle, std::memory_order_release);
      state_.notify_all();
    }
  }

  alignas(64) std::atomic<uint32_t> state_{kIdle};
  Call* call_ = nullptr;  // written before kAssigned, read after kRunning
  std::thread thread_;
};

// The process's parked helpers. A call borrows t-1 idle ones, spawning
// any shortfall, and returns them when it is done, so the pool only ever
// holds as many helpers as calls have needed at once: callers on their
// own grants (server lanes) draw from it without exceeding their t, and
// never share a helper within a call. The pool is never destroyed, so its
// helpers stay parked until the process exits: a thread still inside a
// call when the process exits cannot find the pool gone.
class HelperPool {
 public:
  static HelperPool& Get() {
    static HelperPool* pool = new HelperPool;
    return *pool;
  }

  void Run(unsigned t, void (*body)(void*, unsigned), void* context) {
    Call call(body, context, t);
    std::vector<Helper*> lent = Borrow(t - 1);
    for (Helper* helper : lent) helper->Assign(&call);
    std::exception_ptr error;
    try {
      call.RunSlots();
    } catch (...) {
      error = std::current_exception();
    }
    // A running helper reads `call` until it is done, so take every
    // helper back before leaving, thrown or not.
    for (Helper* helper : lent) helper->Reclaim();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      idle_.insert(idle_.end(), lent.begin(), lent.end());
    }
    if (!error) error = call.error;
    if (error) std::rethrow_exception(error);
  }

 private:
  std::vector<Helper*> Borrow(unsigned count) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Helper*> lent;
    lent.reserve(count);
    while (lent.size() < count && !idle_.empty()) {
      lent.push_back(idle_.back());
      idle_.pop_back();
    }
    try {
      while (lent.size() < count) {
        helpers_.push_back(std::make_unique<Helper>());
        lent.push_back(helpers_.back().get());
      }
    } catch (...) {  // a failed spawn: keep the idle helpers lendable
      idle_.insert(idle_.end(), lent.begin(), lent.end());
      throw;
    }
    return lent;
  }

  std::mutex mutex_;  // guards helpers_ and idle_
  std::vector<std::unique_ptr<Helper>> helpers_;  // every helper spawned
  std::vector<Helper*> idle_;                     // those not lent out
};

}  // namespace

void RunOnWorkers(unsigned t, void (*body)(void*, unsigned), void* context) {
  if (t_in_loop) {
    for (unsigned w = 0; w < t; ++w) body(context, w);
    return;
  }
  struct InLoop {
    InLoop() { t_in_loop = true; }
    ~InLoop() { t_in_loop = false; }
  } in_loop;
  HelperPool::Get().Run(t, body, context);
}

}  // namespace dsd::internal
