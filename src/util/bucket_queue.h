// BucketQueue: the monotone bucket queue behind the batch-bracket peeling
// engine (dsd/motif_core.cpp).
//
// Classic Batagelj-Zaversnik core peeling indexes vertices by degree in an
// array of buckets, giving O(1) amortised work per degree update — but it
// assumes degrees fit an array index. Motif-degrees do not: an h-clique
// degree can be C(core(v), h-1), astronomically larger than n. This queue
// therefore splits the degree axis in two: a dense "near" band of buckets
// covering the small degrees where almost all peeling activity happens
// (O(1) push, cursor-scan pop), and a sparse ordered "far" map for the rare
// huge degrees (O(log #distinct-degrees), touched only when the near band
// empties). Degrees only decrease during peeling, so entries migrate from
// far to near and each vertex enters any given bucket at most once.
//
// Entries are lazy, like the heap this replaces: a degree update pushes a
// fresh (vertex, degree) entry and the stale older entry is discarded when
// its bucket is popped — the caller's `is_current` predicate (typically
// "alive and degree unchanged") decides. PopMinBucket hands back the entire
// lowest live bucket at once, which is exactly the bracket the batch
// peeling engine wants; the min cursor moves backward when an update lands
// below it, so the pop order is globally non-decreasing only per bracket
// (the monotone-bucket-queue contract core peeling needs, since the running
// core level k is a max).
#ifndef DSD_UTIL_BUCKET_QUEUE_H_
#define DSD_UTIL_BUCKET_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace dsd {

class BucketQueue {
 public:
  /// Degrees < `near_limit` are bucketed densely; the rest go to the sparse
  /// far map. Callers size the band by the work at hand, e.g.
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
      far_[degree].push_back(v);
    }
  }

  /// Removes and returns the lowest-degree live bucket: every vertex v with
  /// is_current(v, d) for the minimal degree d holding at least one such
  /// vertex. Stale entries met along the way are discarded for good. Sets
  /// *bucket_degree = d. Returns an empty vector (in insertion order
  /// otherwise — callers wanting a canonical order sort it) only when no
  /// live entry remains anywhere.
  template <typename IsCurrent>
  std::vector<VertexId> PopMinBucket(IsCurrent&& is_current,
                                     uint64_t* bucket_degree) {
    while (near_entries_ > 0) {
      while (cursor_ < near_limit_ &&
             near_[static_cast<size_t>(cursor_)].empty()) {
        ++cursor_;
      }
      if (cursor_ >= near_limit_) break;  // defensive: count/invariant drift
      std::vector<VertexId> bucket =
          std::move(near_[static_cast<size_t>(cursor_)]);
      near_[static_cast<size_t>(cursor_)].clear();
      near_entries_ -= bucket.size();
      const uint64_t degree = cursor_;
      Filter(bucket, degree, is_current);
      if (!bucket.empty()) {
        *bucket_degree = degree;
        return bucket;
      }
    }
    while (!far_.empty()) {
      auto it = far_.begin();
      const uint64_t degree = it->first;
      std::vector<VertexId> bucket = std::move(it->second);
      far_.erase(it);
      Filter(bucket, degree, is_current);
      if (!bucket.empty()) {
        *bucket_degree = degree;
        return bucket;
      }
    }
    return {};
  }

 private:
  template <typename IsCurrent>
  static void Filter(std::vector<VertexId>& bucket, uint64_t degree,
                     IsCurrent&& is_current) {
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [&](VertexId v) {
                                  return !is_current(v, degree);
                                }),
                 bucket.end());
  }

  uint64_t near_limit_;
  std::vector<std::vector<VertexId>> near_;
  // No live near bucket exists below cursor_: Push below it pulls it back,
  // PopMinBucket advances it past exhausted buckets. Total scan work is
  // bounded by pushes + the band width, the O(1)-amortised invariant.
  uint64_t cursor_ = 0;
  size_t near_entries_ = 0;  // entries (live or stale) in the near band
  std::map<uint64_t, std::vector<VertexId>> far_;
};

}  // namespace dsd

#endif  // DSD_UTIL_BUCKET_QUEUE_H_
