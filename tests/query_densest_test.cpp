// Tests for dsd/query_densest (Section 6.3's query-anchored variant):
// brute-force agreement, anchoring invariants, core-location sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dsd/core_exact.h"
#include "dsd/query_densest.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace dsd {
namespace {

bool Contains(const std::vector<VertexId>& haystack, VertexId needle) {
  return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

TEST(QueryDensest, AnswerAlwaysContainsQuery) {
  Graph g = gen::PlantedClique(60, 0.05, 10, 3);
  CliqueOracle edge(2);
  for (VertexId q = 0; q < g.NumVertices(); q += 7) {
    std::vector<VertexId> query = {q};
    DensestResult r = QueryDensest(g, edge, query);
    EXPECT_TRUE(Contains(r.vertices, q)) << "query " << q;
  }
}

TEST(QueryDensest, EmptyQueryFallsBackToCoreExact) {
  Graph g = gen::ErdosRenyi(30, 0.2, 5);
  CliqueOracle edge(2);
  DensestResult anchored = QueryDensest(g, edge, {});
  DensestResult plain = CoreExact(g, edge);
  EXPECT_NEAR(anchored.density, plain.density, 1e-9);
}

TEST(QueryDensest, QueryInsideCdsChangesNothing) {
  // If the query vertex already belongs to the unconstrained CDS, the
  // anchored optimum equals the unconstrained one.
  Graph g = gen::PlantedClique(50, 0.05, 9, 7);
  CliqueOracle edge(2);
  DensestResult plain = CoreExact(g, edge);
  ASSERT_FALSE(plain.vertices.empty());
  std::vector<VertexId> query = {plain.vertices.front()};
  DensestResult anchored = QueryDensest(g, edge, query);
  EXPECT_NEAR(anchored.density, plain.density, 1e-9);
}

TEST(QueryDensest, RemoteVertexLowersDensity) {
  // Anchoring on a pendant vertex far from the dense blob must cost density.
  GraphBuilder b;
  for (VertexId u = 0; u < 6; ++u)
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);  // pendant chain
  Graph g = b.Build();
  CliqueOracle edge(2);
  DensestResult plain = CoreExact(g, edge);
  std::vector<VertexId> query = {7};
  DensestResult anchored = QueryDensest(g, edge, query);
  EXPECT_TRUE(Contains(anchored.vertices, 7));
  EXPECT_LT(anchored.density, plain.density);
  EXPECT_GT(anchored.density, 0.0);
}

TEST(QueryDensest, AnchoredSuffixAlreadyOptimalTakesOneSolve) {
  // K6 on 0..5, the query vertex 6 hanging off 0, and a long path from 6:
  // Q's core number is 1, so the x-core is the whole sparse graph, while
  // the best residual suffix (the K6) plus Q is already optimal at 16/7.
  GraphBuilder b;
  for (VertexId u = 0; u < 6; ++u)
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  b.AddEdge(0, 6);
  for (VertexId v = 6; v < 30; ++v) b.AddEdge(v, v + 1);
  Graph g = b.Build();
  CliqueOracle edge(2);
  std::vector<VertexId> query = {6};
  DensestResult r = QueryDensest(g, edge, query);
  EXPECT_EQ(r.vertices, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(r.density, 16.0 / 7.0);
  EXPECT_EQ(r.stats.binary_search_iterations, 1);
  EXPECT_EQ(r.stats.located_vertices, 7u);
}

class QueryBruteForceTest : public ::testing::TestWithParam<int> {};

// Ties resolve to the union of the optimal Q-supersets, which is also the
// largest one BruteForceQueryDensest keeps, so members match exactly.
void ExpectSameAnswer(const DensestResult& fast, const DensestResult& brute) {
  EXPECT_EQ(fast.vertices, brute.vertices);
  EXPECT_EQ(fast.density, brute.density);
}

TEST_P(QueryBruteForceTest, MatchesBruteForceSingleAnchor) {
  Graph g = gen::ErdosRenyi(11, 0.35, GetParam());
  CliqueOracle edge(2);
  for (VertexId q = 0; q < g.NumVertices(); q += 3) {
    std::vector<VertexId> query = {q};
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " anchor " +
                 std::to_string(q));
    ExpectSameAnswer(QueryDensest(g, edge, query),
                     BruteForceQueryDensest(g, edge, query));
  }
}

TEST_P(QueryBruteForceTest, MatchesBruteForceMultiAnchor) {
  Graph g = gen::ErdosRenyi(11, 0.4, GetParam() + 500);
  CliqueOracle edge(2);
  std::vector<VertexId> query = {0, static_cast<VertexId>(
                                        g.NumVertices() / 2)};
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  ExpectSameAnswer(QueryDensest(g, edge, query),
                   BruteForceQueryDensest(g, edge, query));
}

TEST_P(QueryBruteForceTest, MatchesBruteForceTriangleMotif) {
  Graph g = gen::ErdosRenyi(10, 0.5, GetParam() + 900);
  CliqueOracle tri(3);
  std::vector<VertexId> query = {1};
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  ExpectSameAnswer(QueryDensest(g, tri, query),
                   BruteForceQueryDensest(g, tri, query));
}

TEST_P(QueryBruteForceTest, MatchesBruteForceTwoStarTwoAnchors) {
  Graph g = gen::ErdosRenyi(10, 0.4, GetParam() + 1300);
  PatternOracle two_star(Pattern::TwoStar());
  std::vector<VertexId> query = {2, 7};
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  ExpectSameAnswer(QueryDensest(g, two_star, query),
                   BruteForceQueryDensest(g, two_star, query));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryBruteForceTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace dsd
