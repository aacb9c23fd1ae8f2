// Tests for clique/: enumeration counts, degrees, alive-restricted queries,
// cross-checked against naive combination scanning.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <thread>

#include "clique/clique_degree.h"
#include "clique/clique_enumerator.h"
#include "dsd/motif_oracle.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/intersect.h"
#include "graph/subgraph.h"
#include "util/combinatorics.h"

namespace dsd {
namespace {

// Naive h-clique count by scanning all C(n, h) subsets.
uint64_t NaiveCliqueCount(const Graph& g, int h) {
  const VertexId n = g.NumVertices();
  uint64_t count = 0;
  std::vector<VertexId> pick(h);
  std::function<void(int, VertexId)> rec = [&](int depth, VertexId start) {
    if (depth == h) {
      for (int i = 0; i < h; ++i) {
        for (int j = i + 1; j < h; ++j) {
          if (!g.HasEdge(pick[i], pick[j])) return;
        }
      }
      ++count;
      return;
    }
    for (VertexId v = start; v < n; ++v) {
      pick[depth] = v;
      rec(depth + 1, v + 1);
    }
  };
  rec(0, 0);
  return count;
}

TEST(CliqueEnumerator, EdgesAreTwoCliques) {
  Graph g = gen::ErdosRenyi(60, 0.1, 3);
  EXPECT_EQ(CliqueEnumerator(g, 2).Count(), g.NumEdges());
}

TEST(CliqueEnumerator, CompleteGraphCounts) {
  GraphBuilder b;
  const int n = 8;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  Graph g = b.Build();
  for (int h = 2; h <= 6; ++h) {
    EXPECT_EQ(CliqueEnumerator(g, h).Count(), Binomial(n, h)) << h;
  }
}

TEST(CliqueEnumerator, TriangleFreeGraph) {
  // Bipartite graphs have no triangles.
  GraphBuilder b;
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = 5; v < 10; ++v) b.AddEdge(u, v);
  Graph g = b.Build();
  EXPECT_EQ(CliqueEnumerator(g, 3).Count(), 0u);
  EXPECT_EQ(CliqueEnumerator(g, 4).Count(), 0u);
}

TEST(CliqueEnumerator, EachInstanceOnceAndValid) {
  Graph g = gen::ErdosRenyi(40, 0.25, 5);
  std::set<std::vector<VertexId>> seen;
  CliqueEnumerator enumerator(g, 3);
  enumerator.Enumerate([&](std::span<const VertexId> c) {
    std::vector<VertexId> sorted(c.begin(), c.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(seen.insert(sorted).second) << "duplicate instance";
    for (size_t i = 0; i < sorted.size(); ++i) {
      for (size_t j = i + 1; j < sorted.size(); ++j) {
        EXPECT_TRUE(g.HasEdge(sorted[i], sorted[j]));
      }
    }
  });
  EXPECT_EQ(seen.size(), NaiveCliqueCount(g, 3));
}

TEST(CliqueEnumerator, DegreesSumToHTimesCount) {
  Graph g = gen::ErdosRenyi(50, 0.2, 7);
  for (int h = 2; h <= 5; ++h) {
    CliqueEnumerator enumerator(g, h);
    auto degrees = enumerator.Degrees();
    uint64_t sum = 0;
    for (uint64_t d : degrees) sum += d;
    EXPECT_EQ(sum, static_cast<uint64_t>(h) * enumerator.Count()) << h;
  }
}

TEST(CliqueEnumerator, PaperFigure1Example) {
  // Figure 2(a): path A-B plus triangle-ish B,C,D: edges AB, BC, BD, CD.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  CliqueEnumerator triangles(g, 3);
  EXPECT_EQ(triangles.Count(), 1u);
  auto degrees = triangles.Degrees();
  EXPECT_EQ(degrees[0], 0u);  // A
  EXPECT_EQ(degrees[1], 1u);  // B
  EXPECT_EQ(degrees[2], 1u);  // C
  EXPECT_EQ(degrees[3], 1u);  // D
}

class CliqueCountRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CliqueCountRandomTest, MatchesNaive) {
  auto [seed, h] = GetParam();
  Graph g = gen::ErdosRenyi(30, 0.3, seed);
  EXPECT_EQ(CliqueEnumerator(g, h).Count(), NaiveCliqueCount(g, h));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CliqueCountRandomTest,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(2, 7)));

TEST(CliqueDegreeWithin, AliveMaskRestricts) {
  // Two triangles sharing vertex 0: {0,1,2} and {0,3,4}.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  b.AddEdge(0, 4);
  b.AddEdge(3, 4);
  Graph g = b.Build();
  std::vector<char> alive(5, 1);
  auto all = CliqueDegreesWithin(g, 3, alive);
  EXPECT_EQ(all[0], 2u);
  alive[1] = 0;  // kill one triangle
  auto rest = CliqueDegreesWithin(g, 3, alive);
  EXPECT_EQ(rest[0], 1u);
  EXPECT_EQ(rest[1], 0u);
  EXPECT_EQ(rest[3], 1u);
}

TEST(CliqueDegreeWithin, EdgeFastPathMatchesEnumerator) {
  // h = 2 degrees and counts are alive-neighbour counts; they must equal
  // the enumerator's on the induced alive subgraph, dead vertices at 0.
  CliqueOracle edge(2);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = gen::ErdosRenyi(50, 0.15, seed);
    for (int keep_every : {1, 2, 3}) {
      std::vector<char> alive(g.NumVertices(), 0);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        alive[v] = (v + seed) % keep_every == 0;
      }
      const Subgraph sub = InducedAliveSubgraph(g, alive);
      const std::vector<uint64_t> local =
          CliqueEnumerator(sub.graph, 2).Degrees();
      std::vector<uint64_t> expected(g.NumVertices(), 0);
      for (VertexId i = 0; i < local.size(); ++i) {
        expected[sub.to_parent[i]] = local[i];
      }
      EXPECT_EQ(CliqueDegreesWithin(g, 2, alive), expected) << seed;
      EXPECT_EQ(edge.CountInstances(g, alive),
                CliqueEnumerator(sub.graph, 2).Count())
          << seed;
    }
    EXPECT_EQ(CliqueDegreesWithin(g, 2, {}), CliqueEnumerator(g, 2).Degrees());
    EXPECT_EQ(edge.CountInstances(g, {}), CliqueEnumerator(g, 2).Count());
  }
}

// ---------------------------------------------------------------------------
// The graph-owned orientation: one DAG per content state, shared by every
// enumerator on the graph and its copies, and listing exactly as a DAG built
// afresh for the same CSR arrays.

// A graph with the same CSR arrays as `g` but a fresh generation and slot.
Graph Rebuilt(const Graph& g) {
  return Graph(std::vector<EdgeId>(g.RawOffsets().begin(),
                                   g.RawOffsets().end()),
               std::vector<VertexId>(g.RawNeighbors().begin(),
                                     g.RawNeighbors().end()));
}

// Every instance Enumerate lists, flattened in listing order.
std::vector<VertexId> Listing(const Graph& g, int h) {
  std::vector<VertexId> flat;
  CliqueEnumerator(g, h).Enumerate([&](std::span<const VertexId> clique) {
    flat.insert(flat.end(), clique.begin(), clique.end());
  });
  return flat;
}

TEST(CliqueOrientation, SharedAcrossCliqueSizesAndCopies) {
  const Graph g = gen::PowerLawWithCommunities(400, 3, 8, 10, 0.9, 5);
  const Graph copy = g;  // shares the slot
  const CliqueOrientation* dag = &GraphOrientation(g);
  for (int h : {3, 4, 5}) {
    EXPECT_EQ(&CliqueEnumerator(g, h).orientation(), dag) << h;
    EXPECT_EQ(&CliqueEnumerator(copy, h).orientation(), dag) << h;
  }
  const Graph late_copy = g;  // taken after the build
  EXPECT_EQ(&CliqueEnumerator(late_copy, 4).orientation(), dag);
  // Every edge is oriented exactly once.
  EXPECT_EQ(dag->targets.size(), g.NumEdges());
  EXPECT_EQ(dag->offsets.size(), g.NumVertices() + 1u);
}

TEST(CliqueOrientation, SharedDagListsLikeAFreshOne) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = seed % 2 == 0
                        ? gen::ErdosRenyi(60, 0.2, seed)
                        : gen::PowerLawWithCommunities(500, 3, 8, 10, 0.9,
                                                       seed);
    for (int h : {3, 4, 5}) {
      // `g` reuses the DAG its first call built; `fresh` builds its own.
      const Graph fresh = Rebuilt(g);
      EXPECT_NE(&CliqueEnumerator(fresh, h).orientation(),
                &CliqueEnumerator(g, h).orientation());
      for (unsigned threads : {1u, 4u}) {
        EXPECT_EQ(CliqueEnumerator(g, h).Count(threads),
                  CliqueEnumerator(fresh, h).Count(threads))
            << seed << " h=" << h << " t=" << threads;
        EXPECT_EQ(CliqueEnumerator(g, h).Degrees(threads),
                  CliqueEnumerator(fresh, h).Degrees(threads))
            << seed << " h=" << h << " t=" << threads;
      }
      EXPECT_EQ(Listing(g, h), Listing(fresh, h)) << seed << " h=" << h;
      EXPECT_EQ(GraphOrientation(g).targets, GraphOrientation(fresh).targets);
    }
  }
}

TEST(CliqueOrientation, MovedFromAndRebuiltGraphsGetTheirOwn) {
  Graph g = gen::ErdosRenyi(60, 0.2, 11);
  const uint64_t triangles = CliqueEnumerator(g, 3).Count();
  const CliqueOrientation* dag = &GraphOrientation(g);
  Graph moved = std::move(g);
  // The DAG travels with the content; the emptied source lists nothing.
  EXPECT_EQ(&GraphOrientation(moved), dag);
  EXPECT_NE(&GraphOrientation(g), dag);
  EXPECT_EQ(CliqueEnumerator(g, 3).Count(), 0u);
  EXPECT_EQ(CliqueEnumerator(g, 1).Count(), 0u);
  // Content assigned into the moved-from graph arrives with a new slot.
  g = Rebuilt(moved);
  EXPECT_NE(&GraphOrientation(g), dag);
  EXPECT_EQ(CliqueEnumerator(g, 3).Count(), triangles);
  EXPECT_EQ(CliqueEnumerator(moved, 3).Count(), triangles);
}

TEST(CliqueOrientation, MaskedDegreesStillListTheAliveSubgraph) {
  // A masked query orients its induced alive subgraph, not the parent's
  // shared DAG; its degrees must equal the per-vertex companion listing,
  // before and after the parent's DAG exists.
  const Graph g = gen::PowerLawWithCommunities(300, 3, 8, 10, 0.9, 23);
  for (int h : {3, 4}) {
    std::vector<char> alive(g.NumVertices(), 1);
    for (VertexId v = 0; v < g.NumVertices(); v += 3) alive[v] = 0;
    std::vector<uint64_t> expected(g.NumVertices(), 0);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (!alive[v]) continue;
      EnumerateCliquesContaining(g, h, v, alive,
                                 [&](std::span<const VertexId>) {
                                   ++expected[v];
                                 });
    }
    for (unsigned threads : {1u, 4u}) {
      EXPECT_EQ(CliqueDegreesWithin(g, h, alive, threads), expected) << h;
      CliqueEnumerator(g, h).Count(threads);  // the parent's DAG exists now
      EXPECT_EQ(CliqueDegreesWithin(g, h, alive, threads), expected) << h;
    }
  }
}

TEST(EnumerateCliquesContaining, ReportsCompanions) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  Graph g = b.Build();
  std::vector<char> alive(4, 1);
  std::set<std::vector<VertexId>> rests;
  EnumerateCliquesContaining(g, 3, 0, alive,
                             [&](std::span<const VertexId> rest) {
                               std::vector<VertexId> r(rest.begin(), rest.end());
                               std::sort(r.begin(), r.end());
                               rests.insert(r);
                             });
  EXPECT_EQ(rests.size(), 1u);
  EXPECT_TRUE(rests.count({1, 2}));
}

TEST(EnumerateCliquesContaining, EdgeCase) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  Graph g = b.Build();
  std::vector<char> alive(3, 1);
  int count = 0;
  EnumerateCliquesContaining(g, 2, 0, alive,
                             [&](std::span<const VertexId>) { ++count; });
  EXPECT_EQ(count, 2);
  alive[2] = 0;
  count = 0;
  EnumerateCliquesContaining(g, 2, 0, alive,
                             [&](std::span<const VertexId>) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(EnumerateCliquesContaining, RespectsAliveForLargerCliques) {
  // K5: removing vertices from alive shrinks the 4-cliques through v.
  GraphBuilder b;
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  Graph g = b.Build();
  std::vector<char> alive(5, 1);
  int count = 0;
  EnumerateCliquesContaining(g, 4, 0, alive,
                             [&](std::span<const VertexId>) { ++count; });
  EXPECT_EQ(count, 4);  // choose 3 companions among {1,2,3,4}: C(4,3)
  alive[4] = 0;
  count = 0;
  EnumerateCliquesContaining(g, 4, 0, alive,
                             [&](std::span<const VertexId>) { ++count; });
  EXPECT_EQ(count, 1);  // only {1,2,3} remains: C(3,3)
}

// Reference for EnumerateCliquesContaining: every (h-1)-subset of v's alive
// neighbours that is pairwise adjacent, each as a sorted vector.
std::multiset<std::vector<VertexId>> ReferenceCompanions(
    const Graph& g, int h, VertexId v, std::span<const char> alive) {
  std::vector<VertexId> neighbours;
  for (VertexId u : g.Neighbors(v)) {
    if (alive.empty() || alive[u]) neighbours.push_back(u);
  }
  std::multiset<std::vector<VertexId>> out;
  std::vector<VertexId> pick;
  std::function<void(size_t)> rec = [&](size_t start) {
    if (static_cast<int>(pick.size()) == h - 1) {
      out.insert(pick);
      return;
    }
    for (size_t i = start; i < neighbours.size(); ++i) {
      const VertexId u = neighbours[i];
      bool adjacent = true;
      for (VertexId p : pick) adjacent = adjacent && g.HasEdge(p, u);
      if (!adjacent) continue;
      pick.push_back(u);
      rec(i + 1);
      pick.pop_back();
    }
  };
  rec(0);
  return out;
}

// Every vertex's reported companion sets, checked against the reference
// under one mask; each reported span must be strictly ascending.
void ExpectCompanionsMatchReference(const Graph& g, int h,
                                    std::span<const char> alive,
                                    const std::string& label) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::multiset<std::vector<VertexId>> got;
    EnumerateCliquesContaining(
        g, h, v, alive, [&](std::span<const VertexId> rest) {
          ASSERT_EQ(rest.size(), static_cast<size_t>(h - 1));
          EXPECT_TRUE(std::adjacent_find(rest.begin(), rest.end(),
                                         std::greater_equal<VertexId>()) ==
                      rest.end())
              << label << " v=" << v << ": span not ascending";
          got.emplace(rest.begin(), rest.end());
        });
    EXPECT_EQ(got, ReferenceCompanions(g, h, v, alive))
        << label << " h=" << h << " v=" << v;
  }
}

TEST(EnumerateCliquesContaining, MatchesReferenceUnderMasks) {
  // ErdosRenyi graphs, plus a power-law graph whose hubs are hundreds of
  // times longer than a low-degree vertex's neighbourhood: the skewed
  // (galloping) intersection branch.
  std::vector<std::pair<std::string, Graph>> graphs;
  for (uint64_t seed : {1, 2}) {
    graphs.emplace_back("er" + std::to_string(seed),
                        gen::ErdosRenyi(40, 0.3, seed));
  }
  graphs.emplace_back("powerlaw",
                      gen::PowerLawWithCommunities(600, 3, 8, 10, 0.9, 17));
  const Graph& hubby = graphs.back().second;
  ASSERT_GT(hubby.MaxDegree(), 16u * 3u);
  for (const auto& [name, g] : graphs) {
    const VertexId n = g.NumVertices();
    std::vector<char> all(n, 1);
    std::vector<char> every_second(n, 0);
    for (VertexId v = 0; v < n; v += 2) every_second[v] = 1;
    std::vector<char> random(n, 0);
    std::mt19937_64 rng(n);
    for (VertexId v = 0; v < n; ++v) random[v] = rng() % 3 != 0;
    for (int h = 2; h <= 6; ++h) {
      ExpectCompanionsMatchReference(g, h, {}, name + "/empty");
      ExpectCompanionsMatchReference(g, h, all, name + "/all");
      ExpectCompanionsMatchReference(g, h, every_second, name + "/second");
      ExpectCompanionsMatchReference(g, h, random, name + "/random");
    }
  }
}

// a ∩ b both ways round, each into its own buffer, against
// std::set_intersection.
void ExpectIntersection(const std::vector<VertexId>& a,
                        const std::vector<VertexId>& b,
                        const std::string& label) {
  std::vector<VertexId> expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
  for (bool swap : {false, true}) {
    std::vector<VertexId> out(std::min(a.size(), b.size()));
    const size_t size = swap ? IntersectSorted(b, a, out.data())
                             : IntersectSorted(a, b, out.data());
    out.resize(size);
    EXPECT_EQ(out, expected) << label << (swap ? " (swapped)" : "");
  }
}

TEST(IntersectSorted, MatchesSetIntersectionBalancedAndSkewed) {
  std::mt19937_64 rng(5);
  for (size_t long_size : {0u, 1u, 7u, 40u, 600u, 5000u}) {
    for (size_t short_size : {0u, 1u, 3u, 40u}) {
      const size_t universe = 4 * std::max(long_size, short_size) + 8;
      auto draw = [&](size_t size) {
        std::set<VertexId> ids;
        while (ids.size() < size) ids.insert(rng() % universe);
        return std::vector<VertexId>(ids.begin(), ids.end());
      };
      const std::vector<VertexId> a = draw(short_size);
      ExpectIntersection(a, draw(long_size),
                         std::to_string(short_size) + " x " +
                             std::to_string(long_size));
    }
  }
}

TEST(IntersectSorted, SingleDisjointEqualAndGallopBoundaryCases) {
  // Single elements: a hit, a miss, and one id against a long list: its
  // first, middle and last ids, ids between two of its ids, and one past
  // its end.
  ExpectIntersection({4}, {4}, "single hit");
  ExpectIntersection({4}, {5}, "single miss");
  std::vector<VertexId> evens;
  for (VertexId v = 0; v < 200; v += 2) evens.push_back(v);
  for (VertexId x : {0u, 1u, 100u, 198u, 199u, 500u}) {
    ExpectIntersection({x}, evens, "single " + std::to_string(x));
  }
  // Disjoint: interleaved, and one list wholly before the other.
  std::vector<VertexId> odds;
  for (VertexId v = 1; v < 200; v += 2) odds.push_back(v);
  ExpectIntersection(evens, odds, "interleaved");
  ExpectIntersection({0, 1, 2}, {3, 4, 5, 6}, "before");
  ExpectIntersection({300, 301}, evens, "after");
  // All equal: the same ids in two separate buffers.
  ExpectIntersection(evens, std::vector<VertexId>(evens), "all equal");
  // Around the gallop ratio (16): |b| = 16|a| - 1 and 16|a| merge, 16|a| + 1
  // gallops. Matches sit at b's first and last ids and in between.
  for (size_t short_size : {1u, 2u, 5u}) {
    for (size_t long_size :
         {16 * short_size - 1, 16 * short_size, 16 * short_size + 1}) {
      std::vector<VertexId> b(long_size);
      for (size_t i = 0; i < long_size; ++i) b[i] = static_cast<VertexId>(3 * i);
      std::vector<VertexId> a = {b.front()};
      for (size_t i = 1; i + 1 < short_size; ++i) {
        a.push_back(b[i * long_size / short_size] + (i % 2));
      }
      if (short_size > 1) a.push_back(b.back());
      ExpectIntersection(a, b,
                         std::to_string(short_size) + " x " +
                             std::to_string(long_size));
    }
  }
}

TEST(EnumerateCliquesContaining, HubListingLeavesNoStaleCandidates) {
  // The calling thread's buffer grows to the largest neighbourhood it has
  // listed and is reused without clearing. Listing a hub first must leave
  // a later, smaller listing equal to a fresh thread's (and the
  // reference's).
  const Graph hubby = gen::PowerLawWithCommunities(600, 3, 8, 10, 0.9, 17);
  const Graph small = gen::ErdosRenyi(40, 0.3, 3);
  VertexId hub = 0;
  for (VertexId v = 0; v < hubby.NumVertices(); ++v) {
    if (hubby.Degree(v) > hubby.Degree(hub)) hub = v;
  }
  ASSERT_GT(hubby.Degree(hub), 4 * small.MaxDegree());
  auto list_all = [&small](int h) {
    std::vector<std::vector<std::vector<VertexId>>> lists(small.NumVertices());
    for (VertexId v = 0; v < small.NumVertices(); ++v) {
      EnumerateCliquesContaining(small, h, v, {},
                                 [&](std::span<const VertexId> rest) {
                                   lists[v].emplace_back(rest.begin(),
                                                         rest.end());
                                 });
    }
    return lists;
  };
  for (int h : {3, 4, 5}) {
    SCOPED_TRACE("h=" + std::to_string(h));
    std::vector<std::vector<std::vector<VertexId>>> fresh;
    std::thread([&] { fresh = list_all(h); }).join();
    // Grows this thread's buffer to h-1 slots of the hub's degree, whether
    // or not the hub lies in an h-clique.
    EnumerateCliquesContaining(hubby, h, hub, {},
                               [](std::span<const VertexId>) {});
    EXPECT_EQ(list_all(h), fresh);
    ExpectCompanionsMatchReference(small, h, {}, "after the hub");
  }
}

#ifndef NDEBUG
TEST(IntersectSortedDeathTest, OutMustNotOverlapAnInput) {
  // The merge walks the shorter list {1, 2} and writes speculatively, so an
  // `out` inside the longer list would overwrite 2 before it is compared.
  std::vector<VertexId> longer = {2, 5, 6};
  const std::vector<VertexId> shorter = {1, 2};
  EXPECT_DEATH(IntersectSorted(longer, shorter, longer.data()), "Disjoint");
}

TEST(EnumerateCliquesContainingDeathTest, NestedCallOnOneThreadFailsLoudly) {
  // The inner call would reuse the outer listing's thread-owned buffer.
  GraphBuilder b;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  const Graph g = b.Build();
  auto nested = [&g] {
    EnumerateCliquesContaining(g, 3, 0, {}, [&g](std::span<const VertexId>) {
      EnumerateCliquesContaining(g, 3, 1, {},
                                 [](std::span<const VertexId>) {});
    });
  };
  EXPECT_DEATH(nested(), "its own callback");
}
#endif

}  // namespace
}  // namespace dsd
