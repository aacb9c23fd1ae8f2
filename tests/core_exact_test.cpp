// Tests for dsd/core_exact: CoreExact's correctness (vs Exact/brute force),
// pruning toggles (Figure 10's variants), and instrumentation.
#include <gtest/gtest.h>

#include "dsd/brute_force.h"
#include "dsd/core_exact.h"
#include "dsd/exact.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace dsd {
namespace {

TEST(CoreExact, PaperExample5EdgeDensity) {
  // Figure 5: kmax = 4 (edge cores). S1 = dense 7-vertex blob with 15 edges
  // (density 15/7), S2 = K5 (density 2), S3 = S1 ∪ S2 ∪ connectors. The EDS
  // is S1. We reconstruct an analogous graph: S1 = K6 minus nothing with an
  // extra vertex wired to 3 members (7 vertices, 18 edges), S2 = K5.
  GraphBuilder b;
  for (VertexId u = 0; u < 6; ++u)
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  b.AddEdge(6, 0);
  b.AddEdge(6, 1);
  b.AddEdge(6, 2);
  for (VertexId u = 7; u < 12; ++u)
    for (VertexId v = u + 1; v < 12; ++v) b.AddEdge(u, v);
  b.AddEdge(5, 7);  // bridge
  Graph g = b.Build();
  CliqueOracle edge(2);
  DensestResult r = CoreExact(g, edge);
  // S1 density = 18/7 ≈ 2.571 beats K5's 2.
  EXPECT_EQ(r.vertices, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_NEAR(r.density, 18.0 / 7.0, 1e-9);
}

TEST(CoreExact, AgreesWithExactOnPlantedGraphs) {
  for (int seed = 0; seed < 8; ++seed) {
    Graph g = gen::PlantedClique(60, 0.06, 9, seed);
    for (int h = 2; h <= 4; ++h) {
      CliqueOracle oracle(h);
      DensestResult core = CoreExact(g, oracle);
      DensestResult exact = Exact(g, oracle);
      EXPECT_NEAR(core.density, exact.density, 1e-9)
          << "seed " << seed << " h " << h;
    }
  }
}

TEST(CoreExact, EmptyNoInstanceAndTinyGraphs) {
  CliqueOracle tri(3);
  EXPECT_EQ(CoreExact(Graph(), tri).density, 0.0);
  GraphBuilder star;
  for (VertexId v = 1; v <= 4; ++v) star.AddEdge(0, v);
  DensestResult r = CoreExact(star.Build(), tri);
  EXPECT_EQ(r.density, 0.0);
  EXPECT_TRUE(r.vertices.empty());
}

TEST(CoreExact, DisconnectedComponentsBothConsidered) {
  // Component A: K4 (edge density 1.5); component B: K6 (density 2.5).
  GraphBuilder b;
  for (VertexId u = 0; u < 4; ++u)
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  for (VertexId u = 4; u < 10; ++u)
    for (VertexId v = u + 1; v < 10; ++v) b.AddEdge(u, v);
  Graph g = b.Build();
  DensestResult r = CoreExact(g, CliqueOracle(2));
  EXPECT_EQ(r.vertices, (std::vector<VertexId>{4, 5, 6, 7, 8, 9}));
  EXPECT_DOUBLE_EQ(r.density, 2.5);
}

class PruningVariantTest : public ::testing::TestWithParam<int> {};

TEST_P(PruningVariantTest, AllPruningCombinationsCorrect) {
  // Figure 10 isolates Pruning1/2; every combination must stay exact.
  const int mask = GetParam();
  CoreExactOptions options;
  options.pruning1 = mask & 1;
  options.pruning2 = mask & 2;
  for (int seed = 0; seed < 4; ++seed) {
    Graph g = gen::ErdosRenyi(30, 0.25, seed);
    for (int h = 2; h <= 3; ++h) {
      CliqueOracle oracle(h);
      DensestResult variant = CoreExact(g, oracle, options);
      DensestResult reference = Exact(g, oracle);
      EXPECT_NEAR(variant.density, reference.density, 1e-9)
          << "mask " << mask << " seed " << seed << " h " << h;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMasks, PruningVariantTest, ::testing::Range(0, 4));

TEST(CoreExact, StatsDecompositionTimeAndKmax) {
  Graph g = gen::PlantedClique(80, 0.05, 10, 5);
  CliqueOracle tri(3);
  DensestResult r = CoreExact(g, tri);
  EXPECT_GT(r.stats.kmax, 0u);
  EXPECT_GE(r.stats.decomposition_seconds, 0.0);
  EXPECT_LE(r.stats.decomposition_seconds, r.stats.total_seconds + 1e-9);
  EXPECT_GT(r.stats.located_vertices, 0u);
  EXPECT_LE(r.stats.located_vertices, g.NumVertices());
}

TEST(CoreExact, TrackNetworkSizesShrinks) {
  // Figure 9's claim: core-located networks are (weakly) smaller than the
  // whole-graph network, and shrink as iterations proceed.
  Graph g = gen::PlantedClique(100, 0.04, 12, 7);
  CoreExactOptions options;
  options.track_network_sizes = true;
  DensestResult r = CoreExact(g, CliqueOracle(3), options);
  ASSERT_GE(r.stats.flow_network_sizes.size(), 2u);
  // Entry 0 = whole-graph network; all later entries must not exceed it.
  for (size_t i = 1; i < r.stats.flow_network_sizes.size(); ++i) {
    EXPECT_LE(r.stats.flow_network_sizes[i], r.stats.flow_network_sizes[0]);
  }
}

TEST(CorePExact, MatchesPExactForPatterns) {
  for (int seed = 0; seed < 5; ++seed) {
    Graph g = gen::ErdosRenyi(16, 0.35, seed);
    for (const Pattern& p :
         {Pattern::Diamond(), Pattern::TwoStar(), Pattern::C3Star()}) {
      PatternOracle oracle(p);
      DensestResult core = CorePExact(g, oracle);
      DensestResult baseline = PExact(g, oracle);
      EXPECT_NEAR(core.density, baseline.density, 1e-9)
          << p.name() << " seed " << seed;
    }
  }
}

class CoreExactBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(CoreExactBruteForceTest, EdgeAndTriangleMatchBruteForce) {
  Graph g = gen::ErdosRenyi(12, 0.4, GetParam());
  for (int h = 2; h <= 3; ++h) {
    CliqueOracle oracle(h);
    DensestResult core = CoreExact(g, oracle);
    DensestResult brute = BruteForceDensest(g, oracle);
    EXPECT_NEAR(core.density, brute.density, 1e-9)
        << "seed " << GetParam() << " h " << h;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreExactBruteForceTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace dsd
