// CachingOracle: a memoizing decorator for the oracle hot calls.
//
// CoreExact, CoreApp and the query-anchored solver repeatedly evaluate
// Degrees / CountInstances on (k, Psi)-core restrictions of the same graph:
// RestrictToCore runs degree passes over its input and survivors, Pruning2
// re-measures components after raising the core level, and the best
// candidate is re-measured when results are finalised. Each such query
// re-enumerates motif instances from scratch — far more expensive than a
// linear scan of its input. This
// decorator memoizes both queries, keyed by the graph's generation tag
// (Graph::Generation() — process-wide unique per content state, see
// graph/graph.h) plus a hash of the alive mask. The tag makes the key O(1)
// in the graph (no CSR walk on the hot path; only the mask, when present,
// is scanned), while staleness stays impossible by construction: any
// structural change produces a different Graph with a different tag, and a
// changed alive mask changes the mask hash. The flip side of identity
// keying is that two independently built content-identical graphs no
// longer share entries — callers that want hits must re-query the same
// graph (or a copy), which is exactly what the solvers do.
#ifndef DSD_DSD_CACHING_ORACLE_H_
#define DSD_DSD_CACHING_ORACLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsd/motif_oracle.h"

namespace dsd {

/// Memoizing MotifOracle decorator. Owns the wrapped oracle. Thread-safe
/// and built for sharing: dsd_server keeps ONE instance per resident graph
/// and routes every concurrent request on that graph through it, so the
/// memo is sharded — entries hash-partition across independently locked
/// shards, concurrent readers of different keys never contend, and the
/// hit/miss counters are lock-free atomics bumped outside any shard lock.
/// A shard's lock is held only for the lookup/copy or insertion, never
/// during the wrapped computation.
class CachingOracle : public MotifOracle {
 public:
  /// Hit/miss counters, per query kind (for tests and instrumentation).
  struct CacheStats {
    uint64_t degree_hits = 0;
    uint64_t degree_misses = 0;
    uint64_t count_hits = 0;
    uint64_t count_misses = 0;
  };

  /// Wraps `inner` (must not be null). `max_cached_bytes` bounds the memory
  /// held in memoized degree vectors; the budget is split evenly across the
  /// shards, and when an insertion would exceed a shard's slice that shard
  /// is cleared first (simple, and the working set of one solve — a handful
  /// of shrinking cores — fits far below the default).
  explicit CachingOracle(std::unique_ptr<MotifOracle> inner,
                         size_t max_cached_bytes = size_t{64} << 20);
  ~CachingOracle() override;

  int MotifSize() const override { return inner_->MotifSize(); }
  std::string Name() const override { return inner_->Name(); }
  uint64_t PeelVertex(const Graph& graph, VertexId v,
                      std::span<const char> alive,
                      const PeelCallback& cb) const override;
  std::vector<uint64_t> PeelBatch(const Graph& graph,
                                  std::span<const VertexId> frontier,
                                  std::span<char> alive, const PeelCallback& cb,
                                  const ExecutionContext& ctx) const override;
  std::vector<InstanceGroup> Groups(const Graph& graph,
                                    std::span<const char> alive) const override;
  std::vector<uint64_t> CoreNumberUpperBounds(
      const Graph& graph) const override;
  unsigned MaxUsefulThreads() const override {
    return inner_->MaxUsefulThreads();
  }
  const MotifOracle& Underlying() const override {
    return inner_->Underlying();
  }

  /// Counters since construction (or the last ResetCacheStats).
  CacheStats cache_stats() const;
  void ResetCacheStats();

  const MotifOracle& inner() const { return *inner_; }

 protected:
  std::vector<uint64_t> DegreesImpl(const Graph& graph,
                                    std::span<const char> alive,
                                    const ExecutionContext& ctx) const override;
  uint64_t CountInstancesImpl(const Graph& graph, std::span<const char> alive,
                              const ExecutionContext& ctx) const override;

 private:
  struct Key {
    // Identity key of a (graph, alive) query: the graph's generation tag
    // (unique per content state — see graph/graph.h), the vertex count and
    // alive population packed into one word, and an FNV-1a hash of the
    // alive vertex ids. An all-alive mask is canonicalised to the same key
    // as the empty ("everything alive") span, so the two spellings share
    // entries — they answer identically.
    uint64_t generation;
    uint64_t size_word;  // NumVertices and alive-population packed together.
    uint64_t mask_hash;
    bool operator==(const Key& other) const {
      return generation == other.generation && size_word == other.size_word &&
             mask_hash == other.mask_hash;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.mask_hash ^
                                 (key.generation * 0x9E3779B97F4A7C15ull));
    }
  };

  static Key MakeKey(const Graph& graph, std::span<const char> alive);

  /// Hash-partitioned slice of the memo. Each shard has its own lock and
  /// byte budget, so concurrent requests touching different cores (almost
  /// always different keys) proceed without contending. Memoized degree
  /// vectors for masked queries are stored compact (alive vertices' values
  /// in vertex order — the dead entries are zeros by the oracle contract)
  /// and re-expanded against the query mask on a hit, so a shrinking-core
  /// peel does not fill the byte budget with n-sized vectors of mostly
  /// zeros.
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, std::vector<uint64_t>, KeyHash> degrees;
    std::unordered_map<Key, uint64_t, KeyHash> counts;
    size_t cached_bytes = 0;
  };
  static constexpr size_t kNumShards = 8;

  Shard& ShardFor(const Key& key) const {
    // The low bits feed the unordered_map buckets; take high bits here so
    // shard choice and in-shard bucketing stay independent.
    return shards_[(KeyHash()(key) >> 57) % kNumShards];
  }

  /// Called with `shard.mutex` held: clears the shard if admitting
  /// `incoming_bytes` would overflow its slice of the byte budget.
  void MaybeEvict(Shard& shard, size_t incoming_bytes) const;

  std::unique_ptr<MotifOracle> inner_;
  size_t max_cached_bytes_per_shard_;

  mutable std::array<Shard, kNumShards> shards_;
  // Lock-free counters (relaxed: they order nothing, they only count).
  // Snapshots via cache_stats() are per-counter consistent, not mutually —
  // good enough for hit-rate reporting and tests that quiesce first.
  mutable std::atomic<uint64_t> degree_hits_{0};
  mutable std::atomic<uint64_t> degree_misses_{0};
  mutable std::atomic<uint64_t> count_hits_{0};
  mutable std::atomic<uint64_t> count_misses_{0};
};

}  // namespace dsd

#endif  // DSD_DSD_CACHING_ORACLE_H_
