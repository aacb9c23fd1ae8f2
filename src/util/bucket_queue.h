// BucketQueue: the monotone bucket queue behind the batch-bracket peeling
// engine (dsd/motif_core.cpp).
//
// Classic Batagelj-Zaversnik core peeling indexes vertices by degree in an
// array of buckets, giving O(1) work per degree update — but it assumes
// degrees fit an array index. Motif-degrees do not: an h-clique degree can be
// C(core(v), h-1) and a 3-star degree C(deg(v), 3), far larger than n. This
// queue therefore splits the degree axis in two:
//   - a dense "near" band of buckets covering the small degrees where most
//     peeling activity happens: O(1) push, cursor-scan pop;
//   - a "far" band for the huge degrees: one flat binary min-heap of
//     (degree, vertex) pairs, O(log #entries) per push and pop, touched
//     only when the near band is empty.
// A push allocates nothing once the vectors have grown to the run's
// working set: the heap is one vector, and popped near buckets trade
// storage with the caller's output buffer instead of giving it up.
//
// Entries are lazy: a degree update pushes a fresh (vertex, degree) entry
// and the stale older entry is discarded when its degree is popped — the
// caller's `is_current` predicate (typically "alive and degree unchanged")
// decides. A stale entry must never become current again: MotifCoreDecompose
// guarantees it, since degrees only fall and dead vertices stay dead. That
// lets PopMinBucket sweep the far heap early: a peel that lowers hub
// degrees many times would otherwise hold every superseded far entry until
// its degree came up (hundreds of thousands for a 30k-vertex 3-star peel),
// so once the heap has doubled since its last sweep, plus a small floor, a
// pop first drops the entries the predicate rejects. That is amortised
// O(1) per push, and keeps the heap within twice its live size at the last
// sweep plus the floor.
//
// PopMinBucket hands back the entire lowest live bucket at once,
// which is exactly the bracket the batch peeling engine wants. The near
// cursor moves backward when an update lands below it, so pops are
// non-decreasing only between such updates (the monotone-bucket-queue
// contract core peeling needs, since the running core level k is a max),
// and a backward move makes later pops rescan the buckets it skipped: the
// scan work is not bounded by pushes plus the band width. Within one
// bucket the pop order is unspecified; callers wanting a canonical order
// sort it.
#ifndef DSD_UTIL_BUCKET_QUEUE_H_
#define DSD_UTIL_BUCKET_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace dsd {

class BucketQueue {
 public:
  /// Degrees < `near_limit` are bucketed densely; the rest go to the far
  /// heap. Callers size the band by the work at hand, e.g.
  /// min(max_degree + 1, max(64, 2n)) — O(n) memory, never O(max_degree).
  explicit BucketQueue(uint64_t near_limit)
      : near_limit_(std::max<uint64_t>(near_limit, 1)),
        near_(static_cast<size_t>(near_limit_)) {}

  /// Lazy insert of (v, degree). Called once when v first gets a degree and
  /// once per degree change; older entries for v become stale and are
  /// filtered out at pop time by the caller's predicate.
  void Push(VertexId v, uint64_t degree) {
    if (degree < near_limit_) {
      near_[static_cast<size_t>(degree)].push_back(v);
      ++near_entries_;
      cursor_ = std::min(cursor_, degree);
    } else {
      far_.emplace_back(degree, v);
      std::push_heap(far_.begin(), far_.end(), std::greater<>());
    }
  }

  /// Replaces *bucket with the lowest-degree live bucket: every vertex v
  /// with is_current(v, d) for the minimal degree d holding at least one
  /// such vertex, and sets *bucket_degree = d. Stale entries met along the
  /// way are discarded for good. *bucket's old contents are dropped but its
  /// storage is recycled, so a caller that passes the same buffer every
  /// time allocates only while buckets grow. Returns false, leaving *bucket
  /// empty, only when no live entry remains anywhere.
  template <typename IsCurrent>
  bool PopMinBucket(IsCurrent&& is_current, uint64_t* bucket_degree,
                    std::vector<VertexId>* bucket) {
    // Sweep stale far entries once the heap has doubled (see the header).
    if (far_.size() > 2 * far_swept_ + kFarSweepFloor) {
      far_.erase(std::remove_if(far_.begin(), far_.end(),
                                [&](const std::pair<uint64_t, VertexId>& e) {
                                  return !is_current(e.second, e.first);
                                }),
                 far_.end());
      std::make_heap(far_.begin(), far_.end(), std::greater<>());
      far_swept_ = far_.size();
    }
    while (near_entries_ > 0) {
      while (cursor_ < near_limit_ &&
             near_[static_cast<size_t>(cursor_)].empty()) {
        ++cursor_;
      }
      if (cursor_ >= near_limit_) break;  // defensive: count/invariant drift
      // The emptied bucket keeps the caller's old storage for later pushes.
      bucket->clear();
      bucket->swap(near_[static_cast<size_t>(cursor_)]);
      near_entries_ -= bucket->size();
      if (Filter(bucket, cursor_, is_current)) {
        *bucket_degree = cursor_;
        return true;
      }
    }
    while (!far_.empty()) {
      const uint64_t degree = far_.front().first;
      bucket->clear();
      do {
        std::pop_heap(far_.begin(), far_.end(), std::greater<>());
        bucket->push_back(far_.back().second);
        far_.pop_back();
      } while (!far_.empty() && far_.front().first == degree);
      if (Filter(bucket, degree, is_current)) {
        *bucket_degree = degree;
        return true;
      }
    }
    bucket->clear();
    return false;
  }

  /// Far-heap entries, live or stale. After any PopMinBucket this is at
  /// most 2 * (live far entries at the last sweep) + kFarSweepFloor.
  size_t FarEntries() const { return far_.size(); }

  /// Heap size below which PopMinBucket never sweeps stale far entries.
  static constexpr size_t kFarSweepFloor = 1024;

 private:
  // Drops the entries of *bucket that are not current at `degree`; true iff
  // any remain.
  template <typename IsCurrent>
  static bool Filter(std::vector<VertexId>* bucket, uint64_t degree,
                     IsCurrent&& is_current) {
    bucket->erase(std::remove_if(bucket->begin(), bucket->end(),
                                 [&](VertexId v) {
                                   return !is_current(v, degree);
                                 }),
                  bucket->end());
    return !bucket->empty();
  }

  uint64_t near_limit_;
  std::vector<std::vector<VertexId>> near_;
  // No near entry exists below cursor_: Push below it pulls it back,
  // PopMinBucket advances it past exhausted buckets.
  uint64_t cursor_ = 0;
  size_t near_entries_ = 0;  // entries (live or stale) in the near band
  // Min-heap (std::greater) of far-band (degree, vertex) entries.
  std::vector<std::pair<uint64_t, VertexId>> far_;
  size_t far_swept_ = 0;  // far_.size() right after the last sweep
};

}  // namespace dsd

#endif  // DSD_UTIL_BUCKET_QUEUE_H_
