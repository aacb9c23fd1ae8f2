#include "dsd/caching_oracle.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace dsd {

namespace {

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001B3ull;

// Canonical mask hash for "every vertex alive" (the empty span and any
// all-ones mask), chosen to be unreachable by the FNV stream below only in
// the probabilistic sense — the generation + size_word components make an
// accidental collision harmless in practice (same graph, same population).
constexpr uint64_t kFullMaskHash = 0ull;

}  // namespace

CachingOracle::CachingOracle(std::unique_ptr<MotifOracle> inner,
                             size_t max_cached_bytes)
    : inner_(std::move(inner)),
      max_cached_bytes_per_shard_(
          std::max<size_t>(max_cached_bytes / kNumShards, 1)) {
  assert(inner_ != nullptr);
}

CachingOracle::~CachingOracle() = default;

CachingOracle::Key CachingOracle::MakeKey(const Graph& graph,
                                          std::span<const char> alive) {
  // O(1) in the graph: the generation tag carries the structural identity,
  // so only the mask (when present) is scanned — never the CSR arrays.
  const VertexId n = graph.NumVertices();
  uint64_t population = n;
  uint64_t hash = kFullMaskHash;
  if (!alive.empty()) {
    population = 0;
    uint64_t h = kFnvOffset;
    for (VertexId v = 0; v < n; ++v) {
      // Skip dead vertices a word at a time: a measured candidate set of a
      // large graph is a mask of mostly zero bytes, and a byte loop over it
      // costs n iterations whose speed swings with code placement.
      if (v % 8 == 0 && n - v >= 8) {
        uint64_t word;
        std::memcpy(&word, alive.data() + v, sizeof(word));
        if (word == 0) {
          v += 7;
          continue;
        }
      }
      if (!alive[v]) continue;
      ++population;
      // Hash alive vertex ids rather than raw mask bytes, so any nonzero
      // char spelling of "alive" produces the same key.
      h = (h ^ v) * kFnvPrime;
    }
    // A mask with every vertex alive answers exactly like the empty span;
    // canonicalise so the two spellings share cache entries.
    hash = population == n ? kFullMaskHash : h;
  }
  Key key;
  key.generation = graph.Generation();
  key.size_word = (static_cast<uint64_t>(n) << 32) ^ population;
  key.mask_hash = hash;
  return key;
}

void CachingOracle::MaybeEvict(Shard& shard, size_t incoming_bytes) const {
  if (shard.cached_bytes + incoming_bytes <= max_cached_bytes_per_shard_) {
    return;
  }
  shard.degrees.clear();
  shard.counts.clear();
  shard.cached_bytes = 0;
}

namespace {

// size_word = (n << 32) ^ population with population <= n < 2^32, so the
// halves unpack cleanly.
inline bool FullPopulation(uint64_t size_word) {
  return (size_word >> 32) == (size_word & 0xFFFFFFFFull);
}

}  // namespace

std::vector<uint64_t> CachingOracle::DegreesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  const Key key = MakeKey(graph, alive);
  const bool full = FullPopulation(key.size_word);
  Shard& shard = ShardFor(key);
  {
    bool found = false;
    std::vector<uint64_t> compact;
    {
      // Copy the entry under the lock (O(population)); expansion against
      // the query mask happens outside it so concurrent queries never
      // queue behind an O(n) scatter.
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.degrees.find(key);
      if (it != shard.degrees.end()) {
        found = true;
        compact = it->second;
      }
    }
    // Counters are atomics bumped outside the shard lock: they are shared
    // by every thread, the shard ideally by none.
    if (found) {
      degree_hits_.fetch_add(1, std::memory_order_relaxed);
      if (full) return compact;  // Full-population entries store expanded.
      // Re-expand: equal key implies an equal mask, so the alive positions
      // line up with the compact entry's order.
      std::vector<uint64_t> expanded(graph.NumVertices(), 0);
      size_t j = 0;
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        if (alive[v]) expanded[v] = compact[j++];
      }
      return expanded;
    }
    degree_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  // Compute outside the lock: a concurrent identical miss wastes work but
  // never blocks unrelated queries behind an expensive enumeration.
  std::vector<uint64_t> degrees = inner_->Degrees(graph, alive, ctx);
  std::vector<uint64_t> stored;
  if (full) {
    stored = degrees;
  } else {
    // Dead vertices' degrees are 0 by the oracle contract; store only the
    // alive values so entry size tracks the (shrinking) core, not n.
    stored.reserve(key.size_word & 0xFFFFFFFFull);
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      if (alive[v]) stored.push_back(degrees[v]);
    }
  }
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const size_t bytes = stored.size() * sizeof(uint64_t);
    MaybeEvict(shard, bytes);
    if (shard.degrees.emplace(key, std::move(stored)).second) {
      shard.cached_bytes += bytes;
    }
  }
  return degrees;
}

uint64_t CachingOracle::CountInstancesImpl(const Graph& graph,
                                           std::span<const char> alive,
                                           const ExecutionContext& ctx) const {
  const Key key = MakeKey(graph, alive);
  Shard& shard = ShardFor(key);
  {
    bool found = false;
    uint64_t cached = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.counts.find(key);
      if (it != shard.counts.end()) {
        found = true;
        cached = it->second;
      }
    }
    if (found) {
      count_hits_.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
    count_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t count = inner_->CountInstances(graph, alive, ctx);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    MaybeEvict(shard, sizeof(uint64_t));
    if (shard.counts.emplace(key, count).second) {
      shard.cached_bytes += sizeof(uint64_t);
    }
  }
  return count;
}

uint64_t CachingOracle::PeelVertex(const Graph& graph, VertexId v,
                                   std::span<const char> alive,
                                   const PeelCallback& cb) const {
  return inner_->PeelVertex(graph, v, alive, cb);
}

std::vector<uint64_t> CachingOracle::PeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  // Forwarded: each batch runs against a fresh alive prefix, so there is
  // nothing to memoize — but the inner oracle may parallelise the bracket.
  return inner_->PeelBatch(graph, frontier, alive, cb, ctx);
}

std::vector<InstanceGroup> CachingOracle::Groups(
    const Graph& graph, std::span<const char> alive) const {
  return inner_->Groups(graph, alive);
}

std::vector<uint64_t> CachingOracle::CoreNumberUpperBounds(
    const Graph& graph) const {
  return inner_->CoreNumberUpperBounds(graph);
}

CachingOracle::CacheStats CachingOracle::cache_stats() const {
  CacheStats stats;
  stats.degree_hits = degree_hits_.load(std::memory_order_relaxed);
  stats.degree_misses = degree_misses_.load(std::memory_order_relaxed);
  stats.count_hits = count_hits_.load(std::memory_order_relaxed);
  stats.count_misses = count_misses_.load(std::memory_order_relaxed);
  return stats;
}

void CachingOracle::ResetCacheStats() {
  degree_hits_.store(0, std::memory_order_relaxed);
  degree_misses_.store(0, std::memory_order_relaxed);
  count_hits_.store(0, std::memory_order_relaxed);
  count_misses_.store(0, std::memory_order_relaxed);
}

}  // namespace dsd
