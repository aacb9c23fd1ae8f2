// Tests for graph/: CSR graph, builder, io, subgraph, connectivity, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/connectivity.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "graph/subgraph.h"

namespace dsd {
namespace {

Graph TriangleWithTail() {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  builder.AddEdge(2, 3);
  return builder.Build();
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_TRUE(g.Edges().empty());
}

TEST(Graph, BasicAccessors) {
  Graph g = TriangleWithTail();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(2), 3u);
  EXPECT_EQ(g.Degree(3), 1u);
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(Graph, HasEdgeSymmetry) {
  Graph g = TriangleWithTail();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(Graph, HasEdgeOutOfRange) {
  Graph g = TriangleWithTail();
  EXPECT_FALSE(g.HasEdge(0, 99));
  EXPECT_FALSE(g.HasEdge(99, 0));
}

TEST(Graph, NeighborsSorted) {
  Graph g = TriangleWithTail();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto nbrs = g.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
  auto n2 = g.Neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(n2.begin(), n2.end()),
            (std::vector<VertexId>{0, 1, 3}));
}

TEST(Graph, EdgesNormalized) {
  Graph g = TriangleWithTail();
  std::vector<Edge> edges = g.Edges();
  EXPECT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) EXPECT_LT(e.first, e.second);
}

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);  // duplicate, reversed
  builder.AddEdge(0, 1);  // duplicate
  builder.AddEdge(1, 1);  // self-loop
  Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(GraphBuilder, IsolatedVerticesViaEnsure) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.EnsureVertices(5);
  Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.Degree(4), 0u);
}

TEST(GraphBuilder, EmptyBuild) {
  GraphBuilder builder;
  Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 0u);
}

TEST(GraphIo, ParseBasicEdgeList) {
  auto result = io::ParseEdgeList("# comment\n0 1\n1 2\n\n% another\n2 0\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Graph& g = result.value();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(GraphIo, RemapsSparseIds) {
  auto result = io::ParseEdgeList("1000 2000\n2000 7\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumVertices(), 3u);
  EXPECT_EQ(result.value().NumEdges(), 2u);
}

TEST(GraphIo, RejectsGarbage) {
  EXPECT_FALSE(io::ParseEdgeList("0 x\n").ok());
  EXPECT_FALSE(io::ParseEdgeList("0\n").ok());
  EXPECT_FALSE(io::ParseEdgeList("0 1 extra\n").ok());
  EXPECT_FALSE(io::ParseEdgeList("hello\n").ok());
}

TEST(GraphIo, AcceptsWindowsLineEndings) {
  auto result = io::ParseEdgeList("0 1\r\n1 2\r\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumEdges(), 2u);
}

TEST(GraphIo, RoundTrip) {
  Graph g = TriangleWithTail();
  auto parsed = io::ParseEdgeList(io::ToEdgeList(g));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().NumVertices(), g.NumVertices());
  EXPECT_EQ(parsed.value().NumEdges(), g.NumEdges());
  for (const Edge& e : g.Edges()) {
    EXPECT_TRUE(parsed.value().HasEdge(e.first, e.second));
  }
}

TEST(GraphIo, LoadMissingFileFails) {
  auto result = io::LoadEdgeList("/nonexistent/path/graph.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

TEST(GraphIo, SaveAndLoad) {
  Graph g = TriangleWithTail();
  std::string path = testing::TempDir() + "/dsd_io_test.txt";
  ASSERT_TRUE(io::SaveEdgeList(g, path).ok());
  auto loaded = io::LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumEdges(), g.NumEdges());
}

TEST(Subgraph, InducedKeepsInternalEdges) {
  Graph g = TriangleWithTail();
  std::vector<VertexId> pick = {0, 1, 2};
  Subgraph sub = InducedSubgraph(g, pick);
  EXPECT_EQ(sub.graph.NumVertices(), 3u);
  EXPECT_EQ(sub.graph.NumEdges(), 3u);
  EXPECT_EQ(sub.to_parent, pick);
}

TEST(Subgraph, DropsCrossEdges) {
  Graph g = TriangleWithTail();
  std::vector<VertexId> pick = {0, 3};
  Subgraph sub = InducedSubgraph(g, pick);
  EXPECT_EQ(sub.graph.NumVertices(), 2u);
  EXPECT_EQ(sub.graph.NumEdges(), 0u);
}

TEST(Subgraph, ToParentMapsBack) {
  Graph g = TriangleWithTail();
  Subgraph sub = InducedSubgraph(g, std::vector<VertexId>{1, 3});
  std::vector<VertexId> local = {0, 1};
  EXPECT_EQ(sub.ToParent(local), (std::vector<VertexId>{1, 3}));
}

TEST(Subgraph, UnsortedInputHandled) {
  Graph g = TriangleWithTail();
  Subgraph sub = InducedSubgraph(g, std::vector<VertexId>{2, 0, 1});
  EXPECT_EQ(sub.to_parent, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(sub.graph.NumEdges(), 3u);
}

TEST(Connectivity, SingleComponent) {
  Graph g = TriangleWithTail();
  ComponentLabels labels = ConnectedComponents(g);
  EXPECT_EQ(labels.num_components, 1u);
}

TEST(Connectivity, MultipleComponents) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 3);
  builder.EnsureVertices(5);  // vertex 4 isolated
  Graph g = builder.Build();
  ComponentLabels labels = ConnectedComponents(g);
  EXPECT_EQ(labels.num_components, 3u);
  auto groups = labels.Groups();
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(labels.component[0], labels.component[1]);
  EXPECT_EQ(labels.component[2], labels.component[3]);
  EXPECT_NE(labels.component[0], labels.component[2]);
}

TEST(Connectivity, BfsDistances) {
  // Path 0-1-2-3.
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  Graph g = builder.Build();
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(Eccentricity(g, 0), 3u);
  EXPECT_EQ(Eccentricity(g, 1), 2u);
}

TEST(Connectivity, BfsUnreachable) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.EnsureVertices(3);
  auto dist = BfsDistances(builder.Build(), 0);
  EXPECT_EQ(dist[2], UINT32_MAX);
}

TEST(Stats, PathGraph) {
  GraphBuilder builder;
  for (VertexId v = 0; v + 1 < 10; ++v) builder.AddEdge(v, v + 1);
  GraphStats stats = ComputeStats(builder.Build());
  EXPECT_EQ(stats.num_vertices, 10u);
  EXPECT_EQ(stats.num_edges, 9u);
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_EQ(stats.diameter, 9u);
  EXPECT_EQ(stats.max_degree, 2u);
  EXPECT_NEAR(stats.average_degree, 1.8, 1e-9);
}

TEST(Stats, EmptyGraph) {
  GraphStats stats = ComputeStats(Graph());
  EXPECT_EQ(stats.num_vertices, 0u);
  EXPECT_EQ(stats.num_components, 0u);
  EXPECT_EQ(stats.diameter, 0u);
}

// ---------------------------------------------------------------------------
// Generation tags: the identity DecompositionIndex::Serves keys on. Every
// path that makes new content (building, extracting a subgraph, moving a
// graph out) gets a fresh tag; copies share it.

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
  // can never alias index entries recorded for the content that left it.
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

}  // namespace
}  // namespace dsd
