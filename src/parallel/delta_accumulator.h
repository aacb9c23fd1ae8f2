// DeltaAccumulator: one shared per-index counter array for the parallel
// degree and peel kernels.
//
// The per-root kernels (clique and pattern degree counting) and the
// frontier peel kernels scatter increments across the whole vertex range.
// Private n-sized arrays per worker would cost threads x n memory, so all
// workers add into ONE n-sized totals array with relaxed atomic adds; the
// result is bit-identical to sequential accumulation for every thread
// count and interleaving, because uint64 addition commutes. In front of
// the atomics each worker merges repeated adds to the same index in a
// small direct-mapped cache, because without it every worker hammers a
// hub's counter line (an atomic-only variant ran a 4-thread basket peel
// bracket over 3x slower). Memory is n + threads x cache, independent of
// n in the per-worker term.
//
// Usage (w = worker index from ParallelForStrided, sized by the SAME
// clamped thread count the loop uses):
//   DeltaAccumulator acc(n, t);
//   ParallelForStrided(n, t, [&](unsigned w, uint64_t root) {
//     ... acc.Add(w, v) for every incremented index v ...
//   });
//   std::vector<uint64_t> totals = std::move(acc).Finish();
//
// The peel kernels, which run one small loop per bracket, keep one
// default-constructed accumulator per calling thread instead: Reset before
// each loop and Drain after it. The worker whose add first turns a counter
// non-zero lists it in its own touched list, and Drain visits only those
// counters and zeroes them again, so a bracket costs O(its deltas), never
// O(n).
#ifndef DSD_PARALLEL_DELTA_ACCUMULATOR_H_
#define DSD_PARALLEL_DELTA_ACCUMULATOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

namespace dsd {

class DeltaAccumulator {
 public:
  /// Accumulates into `size` counters on behalf of `workers` workers (the
  /// clamped count actually run — see ResolveThreadCount's 2-arg overload).
  /// Fill with Add, then Finish.
  explicit DeltaAccumulator(uint64_t size, unsigned workers) {
    Reset(size, workers);
  }

  /// The reusable form: Reset before each loop, Drain after it.
  DeltaAccumulator() : track_touched_(true) {}

  /// Lays the accumulator out for a loop of `workers` workers over `size`
  /// counters. Every counter must be zero (fresh or drained); storage only
  /// grows, so a warm accumulator allocates nothing here.
  void Reset(uint64_t size, unsigned workers) {
    num_workers_ = std::max(workers, 1u);
    if (totals_.size() < size) totals_.resize(size, 0);
    if (workers_.size() < num_workers_) workers_.resize(num_workers_);
    if (num_workers_ > 1) {
      for (unsigned w = 0; w < num_workers_; ++w) {
        workers_[w].slots.resize(kCacheSlots, {kEmptySlot, 0});
      }
    }
  }

  DeltaAccumulator(const DeltaAccumulator&) = delete;
  DeltaAccumulator& operator=(const DeltaAccumulator&) = delete;

  /// Adds `count` (default 1) to `index`, called by `worker` (its
  /// ParallelForStrided index). Single-worker runs write straight through;
  /// parallel runs merge the increment into the worker's cache slot for
  /// `index`, adding the slot's previous sum to the totals when the slot
  /// held another index. Zero adds are ignored, so an untouched counter is
  /// never reported and a touched one is listed once.
  void Add(unsigned worker, uint64_t index, uint64_t count = 1) {
    if (count == 0) return;
    if (num_workers_ == 1) {
      Credit(workers_[0], index, count);
      return;
    }
    Worker& self = workers_[worker];
    const auto at = static_cast<uint32_t>((index * kSlotHash) >>
                                          (64 - kCacheBits));
    Entry& slot = self.slots[at];
    if (slot.index == index) {
      slot.count += count;
      return;
    }
    if (slot.index == kEmptySlot) {
      self.used.push_back(at);
    } else {
      const uint64_t before =
          std::atomic_ref<uint64_t>(totals_[slot.index])
              .fetch_add(slot.count, std::memory_order_relaxed);
      if (track_touched_ && before == 0) self.touched.push_back(slot.index);
    }
    slot = {index, count};
  }

  /// Flushes the worker caches and returns the totals. Call after all
  /// workers have joined (single-threaded).
  std::vector<uint64_t> Finish() && {
    FlushCaches();
    return std::move(totals_);
  }

  /// The reusable form's read-out, also single-threaded after the join:
  /// calls fn(index, total) once for every counter the loop made non-zero,
  /// in no particular order, and zeroes it again.
  template <typename Fn>
  void Drain(const Fn& fn) {
    FlushCaches();
    for (Worker& worker : workers_) {
      for (uint64_t index : worker.touched) {
        fn(index, totals_[index]);
        totals_[index] = 0;
      }
      worker.touched.clear();
    }
  }

 private:
  struct Entry {
    uint64_t index;
    uint64_t count;
  };

  // One worker's merged adds (direct-mapped slots, index kEmptySlot when
  // free, and the slots in use, so a flush visits only those) and the
  // counters it turned non-zero. Padded so workers never share a line.
  struct alignas(64) Worker {
    std::vector<Entry> slots;
    std::vector<uint32_t> used;
    std::vector<uint64_t> touched;
  };

  static constexpr unsigned kCacheBits = 9;
  static constexpr size_t kCacheSlots = size_t{1} << kCacheBits;
  static constexpr uint64_t kEmptySlot = UINT64_MAX;
  static constexpr uint64_t kSlotHash = 0x9E3779B97F4A7C15ull;  // Fibonacci

  // Single-threaded add: the one-worker write-through and the flush.
  void Credit(Worker& worker, uint64_t index, uint64_t count) {
    uint64_t& total = totals_[index];
    if (track_touched_ && total == 0) worker.touched.push_back(index);
    total += count;
  }

  // Single-threaded: every worker's cached slots.
  void FlushCaches() {
    for (Worker& worker : workers_) {
      for (uint32_t at : worker.used) {
        Entry& slot = worker.slots[at];
        Credit(worker, slot.index, slot.count);
        slot = {kEmptySlot, 0};
      }
      worker.used.clear();
    }
  }

  std::vector<uint64_t> totals_;
  bool track_touched_ = false;
  unsigned num_workers_ = 1;
  std::vector<Worker> workers_;
};

}  // namespace dsd

#endif  // DSD_PARALLEL_DELTA_ACCUMULATOR_H_
