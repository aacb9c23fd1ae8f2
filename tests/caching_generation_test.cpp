// Generation-tagged graph identity and the identity-keyed CachingOracle.
//
// The cache key is (Graph::Generation(), alive-mask hash): the generation
// tag is process-wide unique per content state, so stale hits are
// impossible by construction — every mutation path (rebuilding through
// GraphBuilder, extracting a subgraph, moving a graph out) produces a
// fresh tag. The suite drives each of those paths between queries and
// uses the hit/miss counters to prove both directions: mutated content
// never hits, and — the whole point of the redesign — the O(n + m)
// content fingerprint no longer runs on the hot path, observable because
// two content-identical but independently built graphs now get distinct
// cache slots (a content fingerprint would have shared them).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "dsd/caching_oracle.h"
#include "dsd/motif_oracle.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/subgraph.h"

namespace dsd {
namespace {

Graph TriangleChain() {
  GraphBuilder builder;
  // Two triangles sharing vertex 2, plus a pendant.
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(2, 4);
  builder.AddEdge(4, 5);
  return builder.Build();
}

// ---------------------------------------------------------------------------
// Generation tags

TEST(GraphGenerationTest, EveryConstructionGetsAFreshTag) {
  Graph a = TriangleChain();
  Graph b = TriangleChain();  // identical content, independent build
  Graph c;                    // empty
  EXPECT_NE(a.Generation(), 0u);
  EXPECT_NE(a.Generation(), b.Generation());
  EXPECT_NE(a.Generation(), c.Generation());
  EXPECT_NE(b.Generation(), c.Generation());
}

TEST(GraphGenerationTest, TagsAreMonotonic) {
  Graph a = TriangleChain();
  Graph b = TriangleChain();
  EXPECT_LT(a.Generation(), b.Generation());
}

TEST(GraphGenerationTest, CopiesShareTheTag) {
  Graph a = TriangleChain();
  Graph b = a;
  EXPECT_EQ(a.Generation(), b.Generation());
  Graph c;
  c = a;
  EXPECT_EQ(a.Generation(), c.Generation());
}

TEST(GraphGenerationTest, MoveTransfersTheTagAndRestampsTheSource) {
  Graph a = TriangleChain();
  const uint64_t tag = a.Generation();
  Graph b = std::move(a);
  EXPECT_EQ(b.Generation(), tag);
  // The moved-from graph is a valid empty graph under a fresh tag, so it
  // can never alias cache entries recorded for the content that left it.
  EXPECT_EQ(a.NumVertices(), 0u);
  EXPECT_NE(a.Generation(), tag);
  Graph c = TriangleChain();
  const uint64_t c_tag = c.Generation();
  a = std::move(c);
  EXPECT_EQ(a.Generation(), c_tag);
  EXPECT_NE(c.Generation(), c_tag);
  EXPECT_EQ(c.NumVertices(), 0u);
}

TEST(GraphGenerationTest, SubgraphExtractionGetsItsOwnTag) {
  Graph g = TriangleChain();
  std::vector<VertexId> vertices = {0, 1, 2};
  Subgraph first = InducedSubgraph(g, vertices);
  Subgraph second = InducedSubgraph(g, vertices);
  EXPECT_NE(first.graph.Generation(), g.Generation());
  EXPECT_NE(first.graph.Generation(), second.graph.Generation());
}

// ---------------------------------------------------------------------------
// Identity-keyed caching: staleness is impossible

TEST(CachingGenerationTest, BuilderRebuildBetweenQueriesCannotServeStale) {
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  CliqueOracle reference(3);

  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  Graph before = builder.Build();
  EXPECT_EQ(oracle.Degrees(before, {}), reference.Degrees(before, {}));
  EXPECT_EQ(oracle.CountInstances(before, {}), 1u);

  // "Mutate": rebuild with one more triangle and query the new graph.
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(0, 3);
  Graph after = builder.Build();
  EXPECT_EQ(oracle.Degrees(after, {}), reference.Degrees(after, {}));
  EXPECT_EQ(oracle.CountInstances(after, {}), 2u);

  CachingOracle::CacheStats stats = oracle.cache_stats();
  EXPECT_EQ(stats.degree_hits, 0u);
  EXPECT_EQ(stats.degree_misses, 2u);
  EXPECT_EQ(stats.count_hits, 0u);
  EXPECT_EQ(stats.count_misses, 2u);
}

TEST(CachingGenerationTest, SubgraphQueriesGetTheirOwnSlots) {
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  CliqueOracle reference(3);
  Graph g = TriangleChain();
  EXPECT_EQ(oracle.CountInstances(g, {}), reference.CountInstances(g, {}));

  std::vector<VertexId> vertices = {0, 1, 2, 3};
  Subgraph sub = InducedSubgraph(g, vertices);
  // The extracted subgraph is a different content state: its query must
  // miss (and answer for ITS content), not reuse the parent's entry.
  EXPECT_EQ(oracle.CountInstances(sub.graph, {}),
            reference.CountInstances(sub.graph, {}));
  CachingOracle::CacheStats stats = oracle.cache_stats();
  EXPECT_EQ(stats.count_hits, 0u);
  EXPECT_EQ(stats.count_misses, 2u);
}

TEST(CachingGenerationTest, AliveMaskMutationMissesAndRestoredMaskHits) {
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  CliqueOracle reference(3);
  Graph g = gen::PlantedClique(60, 0.1, 8, 11);

  std::vector<char> alive(g.NumVertices(), 1);
  alive[3] = 0;
  const std::vector<uint64_t> masked = oracle.Degrees(g, alive);
  EXPECT_EQ(masked, reference.Degrees(g, alive));

  alive[7] = 0;  // mutate the mask between queries
  EXPECT_EQ(oracle.Degrees(g, alive), reference.Degrees(g, alive));
  EXPECT_EQ(oracle.cache_stats().degree_hits, 0u);
  EXPECT_EQ(oracle.cache_stats().degree_misses, 2u);

  alive[7] = 1;  // restore: identical (graph, mask) again
  EXPECT_EQ(oracle.Degrees(g, alive), masked);
  EXPECT_EQ(oracle.cache_stats().degree_hits, 1u);
}

TEST(CachingGenerationTest, EverySingleVertexMaskGetsItsOwnEntry) {
  // The mask hash skips all-zero 8-byte words: a one-vertex mask must still
  // key on its vertex wherever it sits in its word, the tail past the last
  // full word included (61 vertices), and so must the complement masks.
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  CliqueOracle reference(3);
  Graph g = gen::PlantedClique(61, 0.1, 8, 11);
  const uint64_t n = g.NumVertices();
  ASSERT_NE(n % 8, 0u);
  for (VertexId v = 0; v < n; ++v) {
    std::vector<char> one(n, 0);
    one[v] = 1;
    EXPECT_EQ(oracle.CountInstances(g, one), 0u) << v;
    std::vector<char> all_but_one(n, 1);
    all_but_one[v] = 0;
    EXPECT_EQ(oracle.CountInstances(g, all_but_one),
              reference.CountInstances(g, all_but_one))
        << v;
  }
  EXPECT_EQ(oracle.cache_stats().count_hits, 0u);
  EXPECT_EQ(oracle.cache_stats().count_misses, 2 * n);
  std::vector<char> last(n, 0);
  last[n - 1] = 3;  // any nonzero char spells "alive"
  EXPECT_EQ(oracle.CountInstances(g, last), 0u);
  EXPECT_EQ(oracle.cache_stats().count_hits, 1u);
}

TEST(CachingGenerationTest, MovedFromGraphCannotAliasItsOldEntries) {
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  Graph g = TriangleChain();
  const uint64_t count = oracle.CountInstances(g, {});
  EXPECT_EQ(count, 2u);

  Graph stolen = std::move(g);
  // The content (and its tag) moved: the new owner hits the warm entry.
  EXPECT_EQ(oracle.CountInstances(stolen, {}), count);
  EXPECT_EQ(oracle.cache_stats().count_hits, 1u);
  // The moved-from graph is empty under a fresh tag: its query misses and
  // answers for the empty content, never the departed triangles.
  EXPECT_EQ(oracle.CountInstances(g, {}), 0u);
  EXPECT_EQ(oracle.cache_stats().count_hits, 1u);
  EXPECT_EQ(oracle.cache_stats().count_misses, 2u);
}

// ---------------------------------------------------------------------------
// The fingerprint is gone from the hot path

TEST(CachingGenerationTest, ContentTwinsNoLongerShareEntries) {
  // Under the old content fingerprint two byte-identical graphs hashed to
  // the same key, so the twin's first query HIT. Identity keying must make
  // it miss — the observable proof that no content hashing runs per query.
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  Graph a = TriangleChain();
  Graph b = TriangleChain();
  EXPECT_EQ(oracle.CountInstances(a, {}), oracle.CountInstances(b, {}));
  CachingOracle::CacheStats stats = oracle.cache_stats();
  EXPECT_EQ(stats.count_hits, 0u);
  EXPECT_EQ(stats.count_misses, 2u);
}

TEST(CachingGenerationTest, CopiedGraphSharesEntriesByTag) {
  // The flip side: a copy carries the tag, so it may (correctly) reuse the
  // original's entries without any hashing of its content.
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  Graph a = TriangleChain();
  const uint64_t count = oracle.CountInstances(a, {});
  Graph b = a;
  EXPECT_EQ(oracle.CountInstances(b, {}), count);
  CachingOracle::CacheStats stats = oracle.cache_stats();
  EXPECT_EQ(stats.count_hits, 1u);
  EXPECT_EQ(stats.count_misses, 1u);
}

TEST(CachingGenerationTest, AllAliveMaskCanonicalisesToEmptySpan) {
  // An all-ones mask answers exactly like the empty span; the key
  // canonicalisation keeps them one entry (a hit, not a second miss).
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  Graph g = TriangleChain();
  const uint64_t count = oracle.CountInstances(g, {});
  std::vector<char> all_alive(g.NumVertices(), 1);
  EXPECT_EQ(oracle.CountInstances(g, all_alive), count);
  // Any nonzero char spells "alive": same canonical key again.
  std::vector<char> all_alive_2s(g.NumVertices(), 2);
  EXPECT_EQ(oracle.CountInstances(g, all_alive_2s), count);
  CachingOracle::CacheStats stats = oracle.cache_stats();
  EXPECT_EQ(stats.count_hits, 2u);
  EXPECT_EQ(stats.count_misses, 1u);
}

// ---------------------------------------------------------------------------
// Concurrent sharing (the dsd_server usage: one CachingOracle per resident
// graph, hammered by every in-flight request). This suite carries the unit
// label, so CI's TSan job races it: a data race in the sharded maps, the
// atomic hit/miss counters, or the eviction path surfaces here.

TEST(CachingConcurrencyTest, ConcurrentMixedQueriesAreRaceFreeAndCoherent) {
  CachingOracle oracle(std::make_unique<CliqueOracle>(3));
  CliqueOracle reference(3);
  Graph g = gen::PlantedClique(120, 0.05, 8, 21);

  // Distinct masks -> distinct keys spread across shards; repeated rounds
  // -> guaranteed hit traffic concurrent with insertions.
  const unsigned kThreads = 8;
  const int kRounds = 6;
  std::vector<std::vector<char>> masks;
  for (unsigned m = 0; m < kThreads; ++m) {
    std::vector<char> mask(g.NumVertices(), 1);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if ((v + m) % (m + 2) == 0) mask[v] = 0;
    }
    masks.push_back(std::move(mask));
  }

  std::atomic<uint64_t> checksum{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        // Each worker walks every mask, offset by its index, mixing
        // first-miss insertions with hits on entries other workers filled,
        // plus stats reads racing both.
        const std::vector<char>& mask = masks[(t + round) % kThreads];
        std::vector<uint64_t> degrees = oracle.Degrees(g, mask);
        uint64_t count = oracle.CountInstances(g, mask);
        checksum.fetch_add(count + degrees[0], std::memory_order_relaxed);
        (void)oracle.cache_stats();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // Quiesced: counters must account for every call, and every cached
  // answer must equal the uncached reference.
  CachingOracle::CacheStats stats = oracle.cache_stats();
  EXPECT_EQ(stats.degree_hits + stats.degree_misses,
            uint64_t{kThreads} * kRounds);
  EXPECT_EQ(stats.count_hits + stats.count_misses,
            uint64_t{kThreads} * kRounds);
  // Each of the kThreads distinct masks misses at least once.
  EXPECT_GE(stats.degree_misses, uint64_t{kThreads});
  EXPECT_GE(stats.degree_hits, 1u);
  for (const std::vector<char>& mask : masks) {
    EXPECT_EQ(oracle.Degrees(g, mask), reference.Degrees(g, mask));
    EXPECT_EQ(oracle.CountInstances(g, mask),
              reference.CountInstances(g, mask));
  }
}

TEST(CachingConcurrencyTest, ConcurrentEvictionChurnIsRaceFree) {
  // A byte budget small enough that insertions evict constantly: the
  // clear-then-insert path races lookups and other insertions.
  CachingOracle oracle(std::make_unique<CliqueOracle>(3),
                       /*max_cached_bytes=*/256);
  Graph g = gen::PlantedClique(80, 0.05, 6, 22);

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 8; ++t) {
    workers.emplace_back([&, t]() {
      std::vector<char> mask(g.NumVertices(), 1);
      for (int round = 0; round < 12; ++round) {
        mask[(t * 13 + round) % g.NumVertices()] ^= 1;
        std::vector<uint64_t> degrees = oracle.Degrees(g, mask);
        ASSERT_EQ(degrees.size(), g.NumVertices());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  CliqueOracle reference(3);
  EXPECT_EQ(oracle.Degrees(g, {}), reference.Degrees(g, {}));
}

}  // namespace
}  // namespace dsd
