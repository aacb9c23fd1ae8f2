// ChunkedAccumulator: a shared per-index counter array for the parallel
// degree kernels, with chunked vertex-range ownership.
//
// The per-root kernels (clique and pattern degree counting) scatter +1
// increments across the whole vertex range: an instance rooted at r bumps
// every member's counter. The original design gave each worker a private
// n-sized array and merged after the join — correct and lock-free, but the
// accumulator memory scaled as threads x n, which dominates on huge graphs
// once per-core thread budgets are real. This class keeps ONE n-sized
// totals array and partitions it into contiguous chunks, each guarded by
// its own mutex; workers buffer increments per chunk in small fixed-size
// staging vectors and flush a chunk's buffer under that chunk's lock when
// it fills. In front of the staging, each worker merges repeated adds to
// the same index in a small direct-mapped cache: a root's or a peeled
// member's instances hit the same few hundred neighbours over and over,
// and without the merge every worker would stage (and flush, under the
// same chunk lock) one entry per hit. Memory is n + threads x (cache +
// chunks x buffer) (independent of n in the per-worker term), contention
// is bounded by the chunk count, and the result is bit-identical to
// sequential accumulation for every thread count and flush interleaving,
// because uint64 addition commutes.
//
// Usage (w = worker index from ParallelForStrided, sized by the SAME
// clamped thread count the loop uses):
//   ChunkedAccumulator acc(n, t);
//   ParallelForStrided(n, t, [&](unsigned w, uint64_t root) {
//     ... acc.Add(w, v) for every incremented index v ...
//   });
//   std::vector<uint64_t> totals = std::move(acc).Finish();
//
// The peel kernels, which run one small loop per bracket, keep one
// default-constructed accumulator per calling thread instead: Reset before
// each loop and Drain after it. Drain visits only the counters the loop
// touched (each chunk lists them as they first turn non-zero) and zeroes
// them again, so a bracket costs O(its deltas), never O(n).
#ifndef DSD_PARALLEL_CHUNKED_ACCUMULATOR_H_
#define DSD_PARALLEL_CHUNKED_ACCUMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

namespace dsd {

class ChunkedAccumulator {
 public:
  /// Accumulates into `size` counters on behalf of `workers` workers (the
  /// clamped count actually run — see ResolveThreadCount's 2-arg overload;
  /// sizing by the unclamped budget would resurrect the memory scaling
  /// this class exists to remove). Fill with Add, then Finish.
  explicit ChunkedAccumulator(uint64_t size, unsigned workers) {
    Reset(size, workers);
  }

  /// The reusable form: Reset before each loop, Drain after it.
  ChunkedAccumulator() : track_touched_(true) {}

  /// Lays the accumulator out for a loop of `workers` workers over `size`
  /// counters. Every counter must be zero (fresh or drained); storage only
  /// grows, so a warm accumulator allocates nothing here.
  void Reset(uint64_t size, unsigned workers) {
    workers_ = std::max(workers, 1u);
    chunk_shift_ = ChunkShift(size, workers_);
    num_chunks_ = workers_ > 1 ? ((size >> chunk_shift_) + 1) : 1;
    if (totals_.size() < size) totals_.resize(size, 0);
    if (locks_.size() < num_chunks_) {
      locks_ = std::vector<ChunkLock>(num_chunks_);
    }
    if (track_touched_ && touched_.size() < num_chunks_) {
      touched_.resize(num_chunks_);
    }
    // Buffers grow on demand (geometric push_back, capped by the flush
    // threshold): eagerly reserving workers x chunks x threshold up front
    // would reintroduce budget-proportional memory for workloads that
    // never touch most (worker, chunk) pairs.
    if (workers_ > 1) {
      const size_t buffers = static_cast<size_t>(workers_) * num_chunks_;
      if (staging_.size() < buffers) staging_.resize(buffers);
      if (caches_.size() < workers_) caches_.resize(workers_);
      for (WorkerCache& cache : caches_) {
        cache.slots.resize(kCacheSlots, {kEmptySlot, 0});
      }
    }
  }

  ChunkedAccumulator(const ChunkedAccumulator&) = delete;
  ChunkedAccumulator& operator=(const ChunkedAccumulator&) = delete;

  /// Adds `count` (default 1) to `index`, called by `worker` (its
  /// ParallelForStrided index). Single-worker runs write straight through;
  /// parallel runs merge the increment into the worker's cache slot for
  /// `index`, staging the slot's previous index when it differs, and flush
  /// a chunk's staging under its lock when the buffer fills. Weighted adds
  /// exist for the closed-form peel kernels, whose per-vertex deltas are
  /// binomial counts — staging those as repeated unit entries would be
  /// unbounded.
  void Add(unsigned worker, uint64_t index, uint64_t count = 1) {
    if (workers_ == 1) {
      Credit(index, count);
      return;
    }
    WorkerCache& cache = caches_[worker];
    const auto at = static_cast<uint32_t>((index * kSlotHash) >>
                                          (64 - kCacheBits));
    Entry& slot = cache.slots[at];
    if (slot.index == index) {
      slot.count += count;
      return;
    }
    if (slot.index == kEmptySlot) {
      cache.used.push_back(at);
    } else {
      Stage(worker, slot);
    }
    slot = {index, count};
  }

  /// Drains every staging buffer and returns the totals. Call after all
  /// workers have joined (single-threaded), which is why no locks are
  /// needed for the leftover partial buffers.
  std::vector<uint64_t> Finish() && {
    FlushAll();
    return std::move(totals_);
  }

  /// The reusable form's read-out, also single-threaded after the join:
  /// calls fn(index, total) once for every counter the loop made non-zero,
  /// in no particular order, and zeroes it again.
  template <typename Fn>
  void Drain(const Fn& fn) {
    FlushAll();
    for (std::vector<uint64_t>& touched : touched_) {
      for (uint64_t index : touched) {
        fn(index, totals_[index]);
        totals_[index] = 0;
      }
      touched.clear();
    }
  }

 private:
  struct Entry {
    uint64_t index;
    uint64_t count;
  };

  static constexpr size_t kFlushThreshold = 1024;
  static constexpr unsigned kCacheBits = 9;
  static constexpr size_t kCacheSlots = size_t{1} << kCacheBits;
  static constexpr uint64_t kEmptySlot = UINT64_MAX;
  static constexpr uint64_t kSlotHash = 0x9E3779B97F4A7C15ull;  // Fibonacci

  /// Power-of-two chunk width (as a shift) giving roughly one chunk per
  /// worker: chunk routing on the hot Add path is a shift, not a division.
  static unsigned ChunkShift(uint64_t size, unsigned workers) {
    if (workers <= 1) return 63;  // everything in chunk 0
    uint64_t target = size / workers + 1;  // ~workers chunks
    unsigned shift = 0;
    while ((uint64_t{1} << shift) < target) ++shift;
    return shift;
  }

  // Adds under the index's chunk lock (or single-threaded), listing the
  // counter in its chunk's touched list when it first turns non-zero.
  void Credit(uint64_t index, uint64_t count) {
    uint64_t& total = totals_[index];
    if (track_touched_ && total == 0 && count > 0) {
      touched_[index >> chunk_shift_].push_back(index);
    }
    total += count;
  }

  void Stage(unsigned worker, const Entry& entry) {
    const uint64_t chunk = entry.index >> chunk_shift_;
    std::vector<Entry>& buffer =
        staging_[static_cast<size_t>(worker) * num_chunks_ + chunk];
    buffer.push_back(entry);
    if (buffer.size() >= kFlushThreshold) FlushBuffer(chunk, buffer);
  }

  void FlushBuffer(uint64_t chunk, std::vector<Entry>& buffer) {
    std::lock_guard<std::mutex> lock(locks_[chunk].mutex);
    for (const Entry& entry : buffer) Credit(entry.index, entry.count);
    buffer.clear();
  }

  // Single-threaded: the cached slots and leftover partial buffers of
  // every worker.
  void FlushAll() {
    for (WorkerCache& cache : caches_) {
      for (uint32_t at : cache.used) {
        Entry& slot = cache.slots[at];
        Credit(slot.index, slot.count);
        slot = {kEmptySlot, 0};
      }
      cache.used.clear();
    }
    for (std::vector<Entry>& buffer : staging_) {
      for (const Entry& entry : buffer) Credit(entry.index, entry.count);
      buffer.clear();
    }
  }

  // Padded so neighbouring chunk locks don't share a cache line.
  struct alignas(64) ChunkLock {
    std::mutex mutex;
  };

  std::vector<uint64_t> totals_;
  bool track_touched_ = false;
  unsigned workers_ = 1;
  unsigned chunk_shift_ = 63;
  uint64_t num_chunks_ = 1;
  std::vector<ChunkLock> locks_;
  // staging_[worker * num_chunks_ + chunk]: (index, count) pairs awaiting
  // their addition.
  std::vector<std::vector<Entry>> staging_;
  // One worker's merged adds, not yet staged: direct-mapped slots (index
  // kEmptySlot when free) and the slots in use, so a flush visits only
  // those. Padded so workers never share a line of their bookkeeping.
  struct alignas(64) WorkerCache {
    std::vector<Entry> slots;
    std::vector<uint32_t> used;
  };
  std::vector<WorkerCache> caches_;
  // touched_[chunk]: the chunk's counters made non-zero since the last
  // Drain (reusable form only).
  std::vector<std::vector<uint64_t>> touched_;
};

}  // namespace dsd

#endif  // DSD_PARALLEL_CHUNKED_ACCUMULATOR_H_
