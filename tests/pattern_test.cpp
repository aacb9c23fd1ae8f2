// Tests for pattern/: pattern vocabulary, automorphisms, the plan-compiled
// symmetry-broken matcher (instances and embeddings semantics), instance
// grouping, and the specialised appendix-D kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "pattern/isomorphism.h"
#include "pattern/pattern.h"
#include "pattern/special.h"

namespace dsd {
namespace {

TEST(Pattern, VocabularyShapes) {
  EXPECT_EQ(Pattern::EdgePattern().size(), 2);
  EXPECT_EQ(Pattern::Triangle().size(), 3);
  EXPECT_EQ(Pattern::Clique(5).edges().size(), 10u);
  EXPECT_EQ(Pattern::TwoStar().size(), 3);
  EXPECT_EQ(Pattern::ThreeStar().size(), 4);
  EXPECT_EQ(Pattern::C3Star().size(), 4);
  EXPECT_EQ(Pattern::Diamond().size(), 4);
  EXPECT_EQ(Pattern::Diamond().edges().size(), 4u);
  EXPECT_EQ(Pattern::TwoTriangle().edges().size(), 5u);
  EXPECT_EQ(Pattern::ThreeTriangle().size(), 5);
  EXPECT_EQ(Pattern::Basket().size(), 5);
  for (const Pattern& p :
       {Pattern::EdgePattern(), Pattern::TwoStar(), Pattern::ThreeStar(),
        Pattern::C3Star(), Pattern::Diamond(), Pattern::TwoTriangle(),
        Pattern::ThreeTriangle(), Pattern::Basket(), Pattern::Clique(4)}) {
    EXPECT_TRUE(p.IsConnected()) << p.name();
  }
}

TEST(Pattern, C3StarIsSubpatternOfTwoTriangle) {
  // The paper states c3-star ⊆ 2-triangle with 4 vertices each (Section 8.2).
  Pattern paw = Pattern::C3Star();
  Pattern two_tri = Pattern::TwoTriangle();
  EXPECT_EQ(paw.size(), two_tri.size());
  EXPECT_LT(paw.edges().size(), two_tri.edges().size());
}

TEST(Pattern, AutomorphismCounts) {
  EXPECT_EQ(Pattern::EdgePattern().AutomorphismCount(), 2u);
  EXPECT_EQ(Pattern::Triangle().AutomorphismCount(), 6u);
  EXPECT_EQ(Pattern::Clique(4).AutomorphismCount(), 24u);
  EXPECT_EQ(Pattern::TwoStar().AutomorphismCount(), 2u);    // swap tails
  EXPECT_EQ(Pattern::ThreeStar().AutomorphismCount(), 6u);  // 3! tails
  EXPECT_EQ(Pattern::Diamond().AutomorphismCount(), 8u);    // dihedral D4
  EXPECT_EQ(Pattern::TwoTriangle().AutomorphismCount(), 4u);
  EXPECT_EQ(Pattern::C3Star().AutomorphismCount(), 2u);
}

TEST(Pattern, ClassifiersAgree) {
  EXPECT_TRUE(Pattern::Clique(4).IsClique());
  EXPECT_FALSE(Pattern::Diamond().IsClique());
  EXPECT_EQ(Pattern::TwoStar().StarTails(), 2);
  EXPECT_EQ(Pattern::ThreeStar().StarTails(), 3);
  EXPECT_EQ(Pattern::Star(5).StarTails(), 5);
  EXPECT_EQ(Pattern::Triangle().StarTails(), 0);
  EXPECT_EQ(Pattern::C3Star().StarTails(), 0);
  // The 4-cycle relabelled (0-2-1-3-0); the paw has its vertex and edge
  // counts but not its shape.
  const Pattern square("square", 4, {{0, 2}, {2, 1}, {1, 3}, {3, 0}});
  EXPECT_TRUE(square.IsomorphicTo(Pattern::Diamond()));
  EXPECT_FALSE(Pattern::C3Star().IsomorphicTo(Pattern::Diamond()));
  EXPECT_FALSE(Pattern::TwoTriangle().IsomorphicTo(Pattern::Diamond()));
  EXPECT_FALSE(Pattern::Clique(4).IsomorphicTo(Pattern::Diamond()));
  // The house relabelled (roof apex 0, square 1-2-3-4 with roof edge 1-2).
  const Pattern house("house", 5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4},
                                   {4, 1}});
  EXPECT_TRUE(house.IsomorphicTo(Pattern::Basket()));
  // K_{2,3} has the house's degree sequence but no triangle.
  const Pattern k23("K2,3", 5, {{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3},
                                {1, 4}});
  EXPECT_FALSE(k23.IsomorphicTo(Pattern::Basket()));
  EXPECT_FALSE(Pattern::Cycle(5).IsomorphicTo(Pattern::Basket()));
}

// --- Embedding enumeration -------------------------------------------------

Graph K(int n) {
  GraphBuilder b;
  for (VertexId u = 0; u < static_cast<VertexId>(n); ++u)
    for (VertexId v = u + 1; v < static_cast<VertexId>(n); ++v)
      b.AddEdge(u, v);
  return b.Build();
}

TEST(PatternMatcher, TriangleInK4) {
  Graph g = K(4);
  PatternMatcher e(g, Pattern::Triangle());
  EXPECT_EQ(e.CountInstances({}), 4u);  // C(4,3)
}

TEST(PatternMatcher, DiamondIsC4NotK4MinusEdge) {
  // K4 contains exactly 3 four-cycles (Example 6 counts 3 diamonds in one
  // 4-vertex group) but 6 K4-minus-edge subgraphs. This pins the
  // interpretation down.
  Graph g = K(4);
  PatternMatcher e(g, Pattern::Diamond());
  EXPECT_EQ(e.CountInstances({}), 3u);
}

TEST(PatternMatcher, PaperExample6Groups) {
  // Figure 6(a): A=0,B=1,C=2,D=3,E=4,F=5,G=6,H=7.
  // Square ABCD (A-B, B-C, C-D, D-A) plus K4-ish block on A,D,E,F and
  // pendant G, H. We reconstruct a graph with group g1 = {A,B,C,D} (1
  // diamond) and group g2 = {A,D,E,F} (3 diamonds => contains K4).
  GraphBuilder b;
  b.AddEdge(0, 1);  // A-B
  b.AddEdge(1, 2);  // B-C
  b.AddEdge(2, 3);  // C-D
  b.AddEdge(0, 3);  // A-D
  // K4 on A, D, E, F.
  b.AddEdge(0, 4);
  b.AddEdge(0, 5);
  b.AddEdge(3, 4);
  b.AddEdge(3, 5);
  b.AddEdge(4, 5);
  // pendants
  b.AddEdge(4, 6);  // E-G
  b.AddEdge(5, 7);  // F-H
  Graph g = b.Build();
  PatternMatcher e(g, Pattern::Diamond());
  std::vector<InstanceGroup> groups = e.Groups({});
  ASSERT_EQ(groups.size(), 2u);
  // Groups are sorted by vertex set: {A,B,C,D} then {A,D,E,F}.
  EXPECT_EQ(groups[0].vertices, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(groups[0].multiplicity, 1u);
  EXPECT_EQ(groups[1].vertices, (std::vector<VertexId>{0, 3, 4, 5}));
  EXPECT_EQ(groups[1].multiplicity, 3u);
}

TEST(PatternMatcher, TwoStarCounts) {
  // Path 0-1-2: one 2-star centered at 1.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  PatternMatcher e(g, Pattern::TwoStar());
  EXPECT_EQ(e.CountInstances({}), 1u);
  auto deg = e.Degrees({});
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 1u);
  EXPECT_EQ(deg[2], 1u);
}

TEST(PatternMatcher, DegreesMatchHandshake) {
  Graph g = gen::ErdosRenyi(25, 0.3, 3);
  for (const Pattern& p : {Pattern::TwoStar(), Pattern::C3Star(),
                           Pattern::Diamond(), Pattern::TwoTriangle()}) {
    PatternMatcher e(g, p);
    auto deg = e.Degrees({});
    uint64_t sum = 0;
    for (uint64_t d : deg) sum += d;
    EXPECT_EQ(sum, static_cast<uint64_t>(p.size()) * e.CountInstances({}))
        << p.name();
  }
}

TEST(PatternMatcher, MatchContainingCoversAllMatches) {
  Graph g = gen::ErdosRenyi(18, 0.35, 11);
  Pattern p = Pattern::C3Star();
  // Each match has |V_psi| members and is found once per member, under
  // either semantics: the rooted plans pin v to every pattern position, and
  // (for kInstances) the symmetry conditions keep the positions disjoint.
  for (MatchSemantics semantics :
       {MatchSemantics::kInstances, MatchSemantics::kEmbeddings}) {
    PatternMatcher e(g, p, semantics);
    uint64_t total = 0;
    e.MatchAll({}, [&total](std::span<const VertexId>) { ++total; });
    PatternMatcher::Scratch scratch = e.MakeScratch();
    uint64_t by_vertex = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      e.MatchContaining(v, {}, scratch,
                        [&by_vertex](std::span<const VertexId>) {
                          ++by_vertex;
                        });
    }
    EXPECT_EQ(by_vertex, static_cast<uint64_t>(p.size()) * total);
  }
}

TEST(PatternMatcher, AliveMaskRestricts) {
  Graph g = K(5);
  std::vector<char> alive(5, 1);
  PatternMatcher e(g, Pattern::Triangle());
  EXPECT_EQ(e.CountInstances(alive), 10u);
  alive[0] = 0;
  EXPECT_EQ(e.CountInstances(alive), 4u);  // C(4,3)
  alive[1] = 0;
  EXPECT_EQ(e.CountInstances(alive), 1u);
}

TEST(PatternMatcher, CliquePatternMatchesCliqueSemantics) {
  Graph g = gen::ErdosRenyi(20, 0.4, 13);
  for (int h = 2; h <= 4; ++h) {
    PatternMatcher e(g, Pattern::Clique(h));
    // Instance = edge-set-distinct subgraph; for cliques that is one per
    // vertex subset.
    std::vector<InstanceGroup> groups = e.Groups({});
    for (const InstanceGroup& grp : groups) EXPECT_EQ(grp.multiplicity, 1u);
    EXPECT_EQ(e.CountInstances({}), groups.size());
  }
}

// --- Specialised kernels vs generic engine ---------------------------------

class SpecialKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(SpecialKernelTest, StarDegreesMatchGeneric) {
  Graph g = gen::ErdosRenyi(30, 0.15, GetParam());
  for (int x = 2; x <= 4; ++x) {
    PatternMatcher e(g, Pattern::Star(x));
    EXPECT_EQ(StarDegrees(g, x, {}), e.Degrees({})) << "x=" << x;
    EXPECT_EQ(StarCount(g, x, {}), e.CountInstances({})) << "x=" << x;
  }
}

TEST_P(SpecialKernelTest, FourCycleDegreesMatchGeneric) {
  Graph g = gen::ErdosRenyi(26, 0.25, GetParam() + 100);
  PatternMatcher e(g, Pattern::Diamond());
  EXPECT_EQ(FourCycleDegrees(g, {}), e.Degrees({}));
  EXPECT_EQ(FourCycleCount(g, {}), e.CountInstances({}));
}

TEST_P(SpecialKernelTest, KernelsRespectAliveMask) {
  Graph g = gen::ErdosRenyi(24, 0.3, GetParam() + 200);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 0; v < g.NumVertices(); v += 3) alive[v] = 0;
  PatternMatcher star(g, Pattern::TwoStar());
  EXPECT_EQ(StarDegrees(g, 2, alive), star.Degrees(alive));
  PatternMatcher cyc(g, Pattern::Diamond());
  EXPECT_EQ(FourCycleDegrees(g, alive), cyc.Degrees(alive));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecialKernelTest, ::testing::Range(0, 10));

// Reference peel via the embedding-semantics engine: hits / |Aut|. Kept on
// kEmbeddings deliberately so the specialised kernels (and, transitively,
// the symmetry-broken instance engine) are checked against an independent
// formulation.
std::pair<uint64_t, std::map<VertexId, uint64_t>> GenericPeel(
    const Graph& g, const Pattern& p, VertexId v,
    std::span<const char> alive) {
  PatternMatcher e(g, p, MatchSemantics::kEmbeddings);
  PatternMatcher::Scratch scratch = e.MakeScratch();
  std::map<VertexId, uint64_t> hits;
  uint64_t embeddings = 0;
  e.MatchContaining(v, alive, scratch, [&](std::span<const VertexId> image) {
    ++embeddings;
    for (VertexId u : image) {
      if (u != v) ++hits[u];
    }
  });
  const uint64_t aut = p.AutomorphismCount();
  for (auto& [u, c] : hits) c /= aut;
  std::erase_if(hits, [](const auto& kv) { return kv.second == 0; });
  return {embeddings / aut, hits};
}

class SpecialPeelTest : public ::testing::TestWithParam<int> {};

TEST_P(SpecialPeelTest, StarPeelMatchesGeneric) {
  // A sparse random graph, and a hub-heavy one whose high-degree centers
  // exercise case c (stars sharing v and another tail) hard.
  const int seed = GetParam();
  for (const Graph& g : {gen::ErdosRenyi(24, 0.25, seed + 300),
                         gen::BarabasiAlbert(36, 3, seed + 400)}) {
    const VertexId n = g.NumVertices();
    for (int x = 2; x <= 4; ++x) {
      Pattern p = Pattern::Star(x);
      for (VertexId v = 0; v < n; v += 5) {
        for (bool extra_dead : {false, true}) {
          std::vector<char> mask(n, 1);
          if (extra_dead) {
            for (VertexId u = (v + 2) % 3; u < n; u += 3) mask[u] = 0;
          }
          mask[v] = 0;
          auto [want_destroyed, want_hits] = GenericPeel(g, p, v, mask);
          std::map<VertexId, uint64_t> got_hits;
          uint64_t got_destroyed = StarPeelMember(
              g, x, v, [&](VertexId u) { return mask[u] != 0; },
              [&](VertexId u, uint64_t c) { got_hits[u] += c; });
          std::erase_if(got_hits,
                        [](const auto& kv) { return kv.second == 0; });
          EXPECT_EQ(got_destroyed, want_destroyed)
              << "n=" << n << " x=" << x << " v=" << v << " " << extra_dead;
          EXPECT_EQ(got_hits, want_hits)
              << "n=" << n << " x=" << x << " v=" << v << " " << extra_dead;
        }
      }
    }
  }
}

TEST_P(SpecialPeelTest, FourCyclePeelMatchesGeneric) {
  const int seed = GetParam();
  Pattern p = Pattern::Diamond();
  for (const Graph& g : {gen::ErdosRenyi(22, 0.3, seed + 600),
                         gen::BarabasiAlbert(36, 3, seed + 700)}) {
    const VertexId n = g.NumVertices();
    // One scratch for every peel, as a bracket shares it: each peel must
    // leave it all-zero for the next.
    FourCycleScratch scratch(n);
    for (VertexId v = 0; v < n; v += 4) {
      std::vector<char> mask(n, 1);
      mask[v] = 0;
      mask[(v + 7) % n] = 0;  // an extra dead vertex
      auto [want_destroyed, want_hits] = GenericPeel(g, p, v, mask);
      std::map<VertexId, uint64_t> got_hits;
      uint64_t got_destroyed = FourCyclePeelMember(
          g, v, [&](VertexId u) { return mask[u] != 0; }, scratch,
          [&](VertexId u, uint64_t c) { got_hits[u] += c; });
      std::erase_if(got_hits, [](const auto& kv) { return kv.second == 0; });
      EXPECT_EQ(got_destroyed, want_destroyed) << "n=" << n << " v=" << v;
      EXPECT_EQ(got_hits, want_hits) << "n=" << n << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecialPeelTest, ::testing::Range(0, 8));

// --- Per-edge triangle formula (basket) vs generic engine -----------------

// Sparse, hub-heavy and community graphs: the communities give edges with
// many triangles, chorded 4-cycles and K4s, where the formula's corrections
// matter.
std::vector<Graph> TriangleFormulaGraphs(int seed) {
  return {gen::ErdosRenyi(40, 0.25, seed + 800),
          gen::BarabasiAlbert(60, 4, seed + 900),
          gen::PowerLawWithCommunities(90, 3, 4, 8, 0.85, seed + 1000)};
}

// Deterministic random alive mask keeping ~keep_percent of the vertices.
std::vector<char> RandomAliveMask(VertexId n, uint64_t seed,
                                  int keep_percent) {
  std::mt19937_64 rng(seed);
  std::vector<char> alive(n);
  for (char& a : alive) a = static_cast<int>(rng() % 100) < keep_percent;
  return alive;
}

class TriangleFormulaTest : public ::testing::TestWithParam<int> {};

TEST_P(TriangleFormulaTest, OracleMatchesGenericEngine) {
  // PatternOracle dispatches the basket to its formula; with
  // use_special_kernels = false it runs the plan-compiled engine.
  const int seed = GetParam();
  const PatternOracle formula(Pattern::Basket());
  const PatternOracle engine(Pattern::Basket(), /*use_special_kernels=*/false);
  for (const Graph& g : TriangleFormulaGraphs(seed)) {
    const VertexId n = g.NumVertices();
    const std::vector<std::vector<char>> masks = {
        {}, RandomAliveMask(n, seed * 7 + 1, 80),
        RandomAliveMask(n, seed * 7 + 2, 50)};
    for (size_t m = 0; m < masks.size(); ++m) {
      const std::span<const char> alive(masks[m]);
      const std::vector<uint64_t> want = engine.Degrees(g, alive);
      const uint64_t want_count = engine.CountInstances(g, alive);
      for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " mask=" + std::to_string(m) +
                     " threads=" + std::to_string(threads));
        const ExecutionContext ctx = ExecutionContext().WithThreads(threads);
        EXPECT_EQ(formula.Degrees(g, alive, ctx), want);
        EXPECT_EQ(formula.CountInstances(g, alive, ctx), want_count);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleFormulaTest, ::testing::Range(0, 6));

// Returns g with vertex v renamed perm[v].
Graph Relabel(const Graph& g, const std::vector<VertexId>& perm) {
  GraphBuilder b(g.NumVertices());
  for (const Edge& e : g.Edges()) b.AddEdge(perm[e.first], perm[e.second]);
  return b.Build();
}

TEST(RelabelInvarianceTest, OracleDegreesFollowTheVertices) {
  // Degree vectors and counts are properties of the vertex set: under a
  // relabelling, vertex v's degree moves to perm[v] and nothing else
  // changes, at every thread count.
  const Graph g = gen::PowerLawWithCommunities(150, 3, 6, 8, 0.85, 0x12E1);
  const VertexId n = g.NumVertices();
  std::mt19937_64 rng(0x12E2);
  for (int round = 0; round < 3; ++round) {
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), VertexId{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    const Graph relabelled = Relabel(g, perm);
    for (Pattern (*make)() : {&Pattern::Basket, &Pattern::Diamond}) {
      const PatternOracle oracle(make());
      for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(oracle.Name() + " round=" + std::to_string(round) +
                     " threads=" + std::to_string(threads));
        const ExecutionContext ctx = ExecutionContext().WithThreads(threads);
        const std::vector<uint64_t> want = oracle.Degrees(g, {}, ctx);
        const std::vector<uint64_t> got = oracle.Degrees(relabelled, {}, ctx);
        std::vector<uint64_t> mapped_back(n);
        for (VertexId v = 0; v < n; ++v) mapped_back[v] = got[perm[v]];
        EXPECT_EQ(mapped_back, want);
        EXPECT_EQ(oracle.CountInstances(relabelled, {}, ctx),
                  oracle.CountInstances(g, {}, ctx));
      }
    }
  }
}

// --- Automorphism breaking -------------------------------------------------

// Brute force over every k-subset x permutation: an instance is a distinct
// image edge set on a subset. Returns each alive k-subset with its number
// of instances (zero-instance subsets are left out). Independent of the
// engine entirely.
std::vector<std::pair<std::vector<VertexId>, uint64_t>> BruteForceGroups(
    const Graph& g, const Pattern& p, std::span<const char> alive) {
  const int k = p.size();
  const VertexId n = g.NumVertices();
  std::vector<std::pair<std::vector<VertexId>, uint64_t>> groups;
  std::vector<VertexId> subset;
  std::vector<int> perm(k);
  std::set<std::vector<Edge>> edge_sets;
  std::vector<Edge> image_edges;
  auto count_subset = [&]() {
    // A subset spanning fewer edges than the pattern has no instance.
    size_t spanned = 0;
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) spanned += g.HasEdge(subset[i], subset[j]);
    }
    if (spanned < p.edges().size()) return;
    edge_sets.clear();
    for (int i = 0; i < k; ++i) perm[i] = i;
    do {
      bool ok = true;
      for (const Edge& e : p.edges()) {
        if (!g.HasEdge(subset[perm[e.first]], subset[perm[e.second]])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      image_edges.clear();
      for (const Edge& e : p.edges()) {
        image_edges.push_back(
            NormalizeEdge(subset[perm[e.first]], subset[perm[e.second]]));
      }
      std::sort(image_edges.begin(), image_edges.end());
      edge_sets.insert(image_edges);
    } while (std::next_permutation(perm.begin(), perm.end()));
    if (!edge_sets.empty()) groups.emplace_back(subset, edge_sets.size());
  };
  std::function<void(VertexId)> choose = [&](VertexId next) {
    if (static_cast<int>(subset.size()) == k) {
      count_subset();
      return;
    }
    for (VertexId v = next; v < n; ++v) {
      if (!alive.empty() && !alive[v]) continue;
      subset.push_back(v);
      choose(v + 1);
      subset.pop_back();
    }
  };
  choose(0);
  return groups;
}

// The instance count and per-vertex pattern-degrees of BruteForceGroups:
// every member of a subset gains one unit per instance on it.
std::pair<uint64_t, std::vector<uint64_t>> BruteForceInstances(
    const Graph& g, const Pattern& p, std::span<const char> alive) {
  uint64_t total = 0;
  std::vector<uint64_t> degrees(g.NumVertices(), 0);
  for (const auto& [subset, instances] : BruteForceGroups(g, p, alive)) {
    total += instances;
    for (VertexId u : subset) degrees[u] += instances;
  }
  return {total, degrees};
}

class AutomorphismBreakingTest : public ::testing::TestWithParam<int> {};

TEST_P(AutomorphismBreakingTest, InstancesMatchBruteForceOnRandomGraphs) {
  const int seed = GetParam();
  const Graph graphs[] = {gen::ErdosRenyi(14, 0.35, seed + 1),
                          gen::BarabasiAlbert(15, 3, seed + 50)};
  for (const Graph& g : graphs) {
    std::vector<char> alive(g.NumVertices(), 1);
    for (VertexId v = 0; v < g.NumVertices(); v += 4) alive[v] = 0;
    for (const Pattern& p :
         {Pattern::C3Star(), Pattern::TwoTriangle(), Pattern::Diamond(),
          Pattern::Basket(), Pattern::Cycle(5)}) {
      PatternMatcher e(g, p);
      auto [want_total, want_degrees] = BruteForceInstances(g, p, {});
      EXPECT_EQ(e.CountInstances({}), want_total) << p.name();
      EXPECT_EQ(e.Degrees({}), want_degrees) << p.name();
      auto [want_masked, want_masked_deg] = BruteForceInstances(g, p, alive);
      EXPECT_EQ(e.CountInstances(alive), want_masked) << p.name() << " masked";
      EXPECT_EQ(e.Degrees(alive), want_masked_deg) << p.name() << " masked";
    }
  }
}

TEST_P(AutomorphismBreakingTest, CanonicalMatchesAreEmbeddingsOverAut) {
  // The symmetry conditions must select exactly one embedding per instance:
  // raw canonical matches x |Aut| == raw embedding matches, per vertex.
  Graph g = gen::BarabasiAlbert(40, 4, GetParam() + 900);
  for (const Pattern& p :
       {Pattern::ThreeStar(), Pattern::Diamond(), Pattern::TwoTriangle(),
        Pattern::ThreeTriangle(), Pattern::Basket(), Pattern::Clique(4)}) {
    PatternMatcher canonical(g, p, MatchSemantics::kInstances);
    PatternMatcher reference(g, p, MatchSemantics::kEmbeddings);
    EXPECT_EQ(canonical.CountInstances({}), reference.CountInstances({}))
        << p.name();
    EXPECT_EQ(canonical.Degrees({}), reference.Degrees({})) << p.name();
    uint64_t canonical_raw = 0;
    canonical.MatchAll({}, [&](std::span<const VertexId>) { ++canonical_raw; });
    uint64_t embeddings_raw = 0;
    reference.MatchAll({}, [&](std::span<const VertexId>) { ++embeddings_raw; });
    EXPECT_EQ(canonical_raw * p.AutomorphismCount(), embeddings_raw)
        << p.name();
  }
}

TEST_P(AutomorphismBreakingTest, SpecialKernelsMatchCanonicalEngine) {
  // Closed-form star/4-cycle paths vs the symmetry-broken generic engine
  // (the ablation pairing the oracle factory actually switches between).
  Graph g = gen::BarabasiAlbert(60, 3, GetParam() + 1200);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 0; v < g.NumVertices(); v += 5) alive[v] = 0;
  for (int x = 2; x <= 4; ++x) {
    PatternMatcher e(g, Pattern::Star(x));
    EXPECT_EQ(StarDegrees(g, x, alive), e.Degrees(alive)) << "x=" << x;
    EXPECT_EQ(StarCount(g, x, alive), e.CountInstances(alive)) << "x=" << x;
  }
  PatternMatcher cyc(g, Pattern::Diamond());
  EXPECT_EQ(FourCycleDegrees(g, alive), cyc.Degrees(alive));
  EXPECT_EQ(FourCycleCount(g, alive), cyc.CountInstances(alive));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutomorphismBreakingTest,
                         ::testing::Range(0, 4));

// --- Rank-masked peel --------------------------------------------------------

class RankMaskedPeelTest : public ::testing::TestWithParam<int> {};

TEST_P(RankMaskedPeelTest, PartsSumToBruteForceOverEverySlicing) {
  // PeelContainingPart over every (position, slice) of S slices must count
  // the instances containing v whose other members are alive and have rank
  // >= my_rank, and report +1 per such instance to each survivor member.
  // The hub-heavy graph has adjacency lists over 16x longer than a
  // filtered candidate list, so both of IntersectSorted's branches run.
  const int seed = GetParam();
  const Graph graphs[] = {gen::ErdosRenyi(26, 0.3, seed + 1500),
                          gen::BarabasiAlbert(44, 3, seed + 1600)};
  ASSERT_GT(graphs[1].MaxDegree(), 16u);
  for (const Graph& g : graphs) {
    const VertexId n = g.NumVertices();
    std::mt19937_64 rng(seed + 77);
    std::vector<char> alive(n, 1);
    for (VertexId v = 0; v < n; ++v) alive[v] = rng() % 5 != 0;
    // A bracket of about a third of the vertices, ranked in random order;
    // everyone else is a survivor.
    std::vector<VertexId> bracket;
    for (VertexId v = 0; v < n; ++v) {
      if (rng() % 3 == 0) bracket.push_back(v);
    }
    std::shuffle(bracket.begin(), bracket.end(), rng);
    std::vector<uint32_t> rank(n, kNoPeelRank);
    for (size_t i = 0; i < bracket.size(); ++i) {
      rank[bracket[i]] = static_cast<uint32_t>(i);
    }
    for (const Pattern& p :
         {Pattern::Basket(), Pattern::TwoTriangle(), Pattern::ThreeTriangle(),
          Pattern::C3Star(), Pattern::Cycle(5), Pattern::Clique(4)}) {
      const auto groups = BruteForceGroups(g, p, {});
      PatternMatcher matcher(g, p);
      PatternMatcher::Scratch scratch = matcher.MakeScratch();
      for (bool masked : {false, true}) {
        const std::span<const uint32_t> ranks =
            masked ? std::span<const uint32_t>(rank) : std::span<const uint32_t>();
        for (VertexId v = 0; v < n; ++v) {
          if (masked && rank[v] == kNoPeelRank) continue;
          const uint32_t my_rank = masked ? rank[v] : 0;
          uint64_t want_destroyed = 0;
          std::map<VertexId, uint64_t> want_reports;
          for (const auto& [subset, instances] : groups) {
            if (!std::binary_search(subset.begin(), subset.end(), v)) continue;
            bool counted = true;
            for (VertexId u : subset) {
              counted = counted && (u == v || (alive[u] &&
                                               (!masked || rank[u] >= my_rank)));
            }
            if (!counted) continue;
            want_destroyed += instances;
            for (VertexId u : subset) {
              if (u != v && (!masked || rank[u] == kNoPeelRank)) {
                want_reports[u] += instances;
              }
            }
          }
          for (unsigned slices = 1; slices <= 3; ++slices) {
            uint64_t destroyed = 0;
            std::map<VertexId, uint64_t> reports;
            for (int position = 0; position < p.size(); ++position) {
              for (unsigned slice = 0; slice < slices; ++slice) {
                destroyed += matcher.PeelContainingPart(
                    v, position, slice, slices, ranks, my_rank, alive, scratch,
                    [&](VertexId u, uint64_t c) { reports[u] += c; });
              }
            }
            EXPECT_EQ(destroyed, want_destroyed)
                << p.name() << " n=" << n << " v=" << v << " masked=" << masked
                << " slices=" << slices;
            EXPECT_EQ(reports, want_reports)
                << p.name() << " n=" << n << " v=" << v << " masked=" << masked
                << " slices=" << slices;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankMaskedPeelTest, ::testing::Range(0, 3));

TEST(PatternPlanSet, SymmetryConditionOrbitProductEqualsAut) {
  // The conditions come from an orbit-stabilizer chain, so the product of
  // (1 + number of conditions per pivot) over pivots equals |Aut(Psi)|.
  for (const Pattern& p :
       {Pattern::EdgePattern(), Pattern::Triangle(), Pattern::TwoStar(),
        Pattern::ThreeStar(), Pattern::C3Star(), Pattern::Diamond(),
        Pattern::TwoTriangle(), Pattern::ThreeTriangle(), Pattern::Basket(),
        Pattern::Cycle(5), Pattern::Clique(5)}) {
    PatternPlanSet plans(p);
    std::map<int, uint64_t> orbit_sizes;
    for (const auto& [a, b] : plans.SymmetryConditions()) ++orbit_sizes[a];
    uint64_t product = 1;
    for (const auto& [pivot, extra] : orbit_sizes) product *= 1 + extra;
    EXPECT_EQ(product, p.AutomorphismCount()) << p.name();
  }
}

}  // namespace
}  // namespace dsd
