// Tests for dsd/motif_oracle: CliqueOracle vs PatternOracle consistency,
// peeling callbacks, groups, and core-number upper bounds.
#include <gtest/gtest.h>

#include <map>

#include "dsd/motif_oracle.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace dsd {
namespace {

TEST(CliqueOracle, Names) {
  EXPECT_EQ(CliqueOracle(2).Name(), "edge");
  EXPECT_EQ(CliqueOracle(3).Name(), "triangle");
  EXPECT_EQ(CliqueOracle(5).Name(), "5-clique");
}

class OracleEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// CliqueOracle and PatternOracle(Clique(h)) must agree on everything: the
// clique problem is a special case of the pattern problem (Section 7).
TEST_P(OracleEquivalenceTest, CliqueAndPatternOraclesAgree) {
  auto [seed, h] = GetParam();
  Graph g = gen::ErdosRenyi(24, 0.35, seed);
  CliqueOracle clique(h);
  PatternOracle pattern(Pattern::Clique(h));

  EXPECT_EQ(clique.MotifSize(), pattern.MotifSize());
  EXPECT_EQ(clique.Degrees(g, {}), pattern.Degrees(g, {}));
  EXPECT_EQ(clique.CountInstances(g, {}), pattern.CountInstances(g, {}));

  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 0; v < g.NumVertices(); v += 4) alive[v] = 0;
  EXPECT_EQ(clique.Degrees(g, alive), pattern.Degrees(g, alive));
  EXPECT_EQ(clique.CountInstances(g, alive), pattern.CountInstances(g, alive));

  // Peeling any vertex destroys the same instances with the same companions.
  for (VertexId v = 0; v < g.NumVertices(); v += 5) {
    if (!alive[v]) continue;
    std::vector<char> mask = alive;
    mask[v] = 0;
    std::map<VertexId, uint64_t> clique_hits;
    std::map<VertexId, uint64_t> pattern_hits;
    uint64_t c1 = clique.PeelVertex(g, v, mask, [&](VertexId u, uint64_t c) {
      clique_hits[u] += c;
    });
    uint64_t c2 = pattern.PeelVertex(g, v, mask, [&](VertexId u, uint64_t c) {
      pattern_hits[u] += c;
    });
    EXPECT_EQ(c1, c2);
    EXPECT_EQ(clique_hits, pattern_hits);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleEquivalenceTest,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(2, 5)));

TEST(CliqueOracle, PeelConsistentWithDegreeDrop) {
  // Peeling v and recomputing degrees must equal applying the callback.
  Graph g = gen::ErdosRenyi(30, 0.3, 17);
  CliqueOracle oracle(3);
  std::vector<char> alive(g.NumVertices(), 1);
  std::vector<uint64_t> degrees = oracle.Degrees(g, alive);
  VertexId v = 7;
  alive[v] = 0;
  oracle.PeelVertex(g, v, alive, [&degrees](VertexId u, uint64_t c) {
    ASSERT_GE(degrees[u], c);
    degrees[u] -= c;
  });
  degrees[v] = 0;
  std::vector<uint64_t> recomputed = oracle.Degrees(g, alive);
  EXPECT_EQ(degrees, recomputed);
}

TEST(PatternOracle, PeelConsistentWithDegreeDrop) {
  Graph g = gen::ErdosRenyi(22, 0.3, 19);
  PatternOracle oracle(Pattern::Diamond());
  std::vector<char> alive(g.NumVertices(), 1);
  std::vector<uint64_t> degrees = oracle.Degrees(g, alive);
  for (VertexId v : {3u, 11u, 17u}) {
    alive[v] = 0;
    oracle.PeelVertex(g, v, alive, [&degrees](VertexId u, uint64_t c) {
      ASSERT_GE(degrees[u], c);
      degrees[u] -= c;
    });
    degrees[v] = 0;
    EXPECT_EQ(degrees, oracle.Degrees(g, alive)) << "after removing " << v;
  }
}

// At 1 thread PatternOracle::PeelBatch peels a bracket with one shared peel
// scratch; it must equal a loop of PeelVertex calls, each with a fresh one.
// A hub-heavy graph with some vertices already dead, so scratch state that
// leaked from one member to the next would change the counts.
TEST(PatternOracle, PeelBatchMatchesFreshScratchLoop) {
  Graph g = gen::BarabasiAlbert(240, 4, 29);
  const VertexId n = g.NumVertices();
  std::vector<char> alive(n, 1);
  for (VertexId v = 2; v < n; v += 7) alive[v] = 0;
  std::vector<VertexId> frontier;  // every 3rd alive vertex, hubs included
  for (VertexId v = 0; v < n; v += 3) {
    if (alive[v]) frontier.push_back(v);
  }
  for (const Pattern& pattern :
       {Pattern::Diamond(), Pattern::Star(3), Pattern::Basket()}) {
    PatternOracle oracle(pattern);
    std::vector<char> batch_alive = alive;
    std::map<VertexId, uint64_t> batch_hits;
    const std::vector<uint64_t> batch_destroyed = oracle.PeelBatch(
        g, frontier, {batch_alive.data(), batch_alive.size()},
        [&](VertexId u, uint64_t c) { batch_hits[u] += c; },
        ExecutionContext());

    std::vector<char> loop_alive = alive;
    std::map<VertexId, uint64_t> loop_hits;
    std::vector<uint64_t> loop_destroyed;
    for (VertexId v : frontier) {
      loop_alive[v] = 0;
      loop_destroyed.push_back(
          oracle.PeelVertex(g, v, loop_alive, [&](VertexId u, uint64_t c) {
            loop_hits[u] += c;
          }));
    }
    std::erase_if(batch_hits, [](const auto& kv) { return kv.second == 0; });
    std::erase_if(loop_hits, [](const auto& kv) { return kv.second == 0; });

    uint64_t total = 0;
    for (uint64_t d : loop_destroyed) total += d;
    EXPECT_GT(total, 0u) << pattern.name();
    EXPECT_EQ(batch_destroyed, loop_destroyed) << pattern.name();
    EXPECT_EQ(batch_hits, loop_hits) << pattern.name();
    EXPECT_EQ(batch_alive, loop_alive) << pattern.name();
  }
}

TEST(CliqueOracle, GroupsAreSingletonInstances) {
  Graph g = gen::ErdosRenyi(20, 0.4, 23);
  CliqueOracle oracle(3);
  auto groups = oracle.Groups(g, {});
  EXPECT_EQ(groups.size(), oracle.CountInstances(g, {}));
  for (const auto& grp : groups) {
    EXPECT_EQ(grp.multiplicity, 1u);
    EXPECT_EQ(grp.vertices.size(), 3u);
  }
}

TEST(PatternOracle, GroupMultiplicitiesSumToInstanceCount) {
  Graph g = gen::ErdosRenyi(18, 0.4, 29);
  for (const Pattern& p :
       {Pattern::Diamond(), Pattern::TwoStar(), Pattern::C3Star()}) {
    PatternOracle oracle(p);
    uint64_t total = 0;
    for (const auto& grp : oracle.Groups(g, {})) total += grp.multiplicity;
    EXPECT_EQ(total, oracle.CountInstances(g, {})) << p.name();
  }
}

TEST(CliqueOracle, CoreBoundDominatesCoreNumber) {
  // gamma(v) = C(core(v), h-1) must upper-bound the clique-core number;
  // verified against full decomposition in motif_core_test. Here: bounds are
  // monotone in h and nonzero where triangles exist.
  Graph g = gen::PlantedClique(60, 0.05, 8, 41);
  CliqueOracle oracle(3);
  auto bounds = oracle.CoreNumberUpperBounds(g);
  auto degrees = oracle.Degrees(g, {});
  uint64_t max_bound = 0;
  for (uint64_t b : bounds) max_bound = std::max(max_bound, b);
  // The planted K8 forces core number 7 => gamma >= C(7,2) = 21 somewhere.
  EXPECT_GE(max_bound, 21u);
  (void)degrees;
}

TEST(PatternOracle, CoreBoundIsExactDegree) {
  Graph g = gen::ErdosRenyi(20, 0.3, 43);
  PatternOracle oracle(Pattern::C3Star());
  EXPECT_EQ(oracle.CoreNumberUpperBounds(g), oracle.Degrees(g, {}));
}

TEST(Oracles, EmptyGraphBehaviour) {
  Graph g;
  CliqueOracle clique(3);
  EXPECT_EQ(clique.CountInstances(g, {}), 0u);
  EXPECT_TRUE(clique.Degrees(g, {}).empty());
  PatternOracle pattern(Pattern::TwoStar());
  EXPECT_EQ(pattern.CountInstances(g, {}), 0u);
}

}  // namespace
}  // namespace dsd
