// Tests for dsd/motif_core: Algorithm 3's decomposition, core invariants
// (Definition 6, Theorem 1), residual tracking, truncation semantics, and
// RestrictToCore.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <tuple>

#include "clique/clique_degree.h"
#include "core/kcore.h"
#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "dsd/motif_oracle.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "util/random.h"

namespace dsd {
namespace {

// Checks Definition 6 for every k: within the (k, Psi)-core, every vertex
// has motif-degree >= k, and no superset qualifies (maximality via the
// one-vertex-extension check).
void CheckCoreInvariant(const Graph& g, const MotifOracle& oracle,
                        const MotifCoreDecomposition& d, uint64_t k) {
  std::vector<VertexId> members = d.CoreVertices(k);
  if (members.empty()) return;
  std::vector<char> alive(g.NumVertices(), 0);
  for (VertexId v : members) alive[v] = 1;
  std::vector<uint64_t> degrees = oracle.Degrees(g, alive);
  for (VertexId v : members) {
    EXPECT_GE(degrees[v], k) << "vertex " << v << " under-supported at k=" << k;
  }
}

TEST(MotifCore, PaperFigure3TriangleCores) {
  // Figure 3(b): K4 {A,B,C,D} is the (3, triangle)-core.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(2, 4);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(6, 7);
  Graph g = b.Build();
  CliqueOracle triangle(3);
  MotifCoreDecomposition d = MotifCoreDecompose(g, triangle);
  EXPECT_EQ(d.kmax, 3u);
  EXPECT_EQ(d.CoreVertices(3), (std::vector<VertexId>{0, 1, 2, 3}));
  // E sits in one triangle (C, D, E); so its clique-core number is 1.
  EXPECT_EQ(d.core[4], 1u);
  EXPECT_EQ(d.core[5], 0u);
  EXPECT_EQ(d.core[6], 0u);
}

TEST(MotifCore, EdgeCaseEmptyAndNoInstances) {
  CliqueOracle tri(3);
  MotifCoreDecomposition empty = MotifCoreDecompose(Graph(), tri);
  EXPECT_EQ(empty.kmax, 0u);
  // A tree has no triangles at all.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  MotifCoreDecomposition tree = MotifCoreDecompose(b.Build(), tri);
  EXPECT_EQ(tree.kmax, 0u);
  EXPECT_EQ(tree.total_instances, 0u);
  EXPECT_EQ(tree.best_residual_density, 0.0);
}

TEST(MotifCore, EdgeOracleMatchesClassicKCore) {
  // For h = 2, the (k, Psi)-core is the classical k-core.
  Graph g = gen::BarabasiAlbert(200, 3, 7);
  CliqueOracle edge(2);
  MotifCoreDecomposition d = MotifCoreDecompose(g, edge);
  CoreDecomposition classic = KCoreDecomposition(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(d.core[v], classic.core[v]) << v;
  }
  EXPECT_EQ(d.kmax, classic.kmax);
}

class MotifCoreInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MotifCoreInvariantTest, AllCoresSatisfyDefinition) {
  auto [seed, h] = GetParam();
  Graph g = gen::ErdosRenyi(40, 0.2, seed);
  CliqueOracle oracle(h);
  MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
  for (uint64_t k = 1; k <= d.kmax; ++k) {
    CheckCoreInvariant(g, oracle, d, k);
  }
}

TEST_P(MotifCoreInvariantTest, CoreNumbersAreMaximal) {
  // core[v] is the HIGHEST order: v must not survive peeling at core[v]+1.
  auto [seed, h] = GetParam();
  Graph g = gen::ErdosRenyi(30, 0.25, seed + 50);
  CliqueOracle oracle(h);
  MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> higher = d.CoreVertices(d.core[v] + 1);
    EXPECT_TRUE(std::find(higher.begin(), higher.end(), v) == higher.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MotifCoreInvariantTest,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(2, 5)));

TEST(MotifCore, PatternCoresSatisfyDefinition) {
  Graph g = gen::ErdosRenyi(28, 0.25, 3);
  for (const Pattern& p :
       {Pattern::TwoStar(), Pattern::Diamond(), Pattern::C3Star()}) {
    PatternOracle oracle(p);
    MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
    for (uint64_t k = 1; k <= d.kmax; ++k) {
      CheckCoreInvariant(g, oracle, d, k);
    }
  }
}

TEST(MotifCore, ResidualDensityTracking) {
  Graph g = gen::PlantedClique(50, 0.05, 10, 13);
  CliqueOracle oracle(3);
  MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
  // residual_density[0] is the whole graph's density.
  ASSERT_FALSE(d.residual_density.empty());
  EXPECT_NEAR(d.residual_density[0],
              static_cast<double>(d.total_instances) / g.NumVertices(), 1e-12);
  // best must match a recomputation of the best suffix.
  std::vector<VertexId> best = d.BestResidualVertices();
  EXPECT_NEAR(MeasureDensity(g, oracle, best), d.best_residual_density, 1e-9);
  // The planted K10 gives triangle density >= C(10,3)/10 = 12 somewhere.
  EXPECT_GE(d.best_residual_density, 12.0);
}

TEST(MotifCore, CoreVerticesNested) {
  Graph g = gen::ErdosRenyi(40, 0.2, 21);
  CliqueOracle oracle(3);
  MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
  for (uint64_t k = 1; k <= d.kmax; ++k) {
    auto outer = d.CoreVertices(k - 1);
    auto inner = d.CoreVertices(k);
    EXPECT_TRUE(
        std::includes(outer.begin(), outer.end(), inner.begin(), inner.end()));
  }
}

TEST(MotifCore, GammaBoundsCoreNumber) {
  // CoreNumberUpperBounds must dominate true motif-core numbers (the
  // correctness backbone of CoreApp's stopping rule).
  for (int seed = 0; seed < 5; ++seed) {
    Graph g = gen::ErdosRenyi(35, 0.25, seed);
    for (int h = 2; h <= 4; ++h) {
      CliqueOracle oracle(h);
      auto bounds = oracle.CoreNumberUpperBounds(g);
      MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_GE(bounds[v], d.core[v]) << "h=" << h << " v=" << v;
      }
    }
  }
}

// CliqueOracle that raises a cancel flag after a fixed number of PeelVertex
// calls — a deterministic way to stop a peel MID-bracket (the default
// PeelBatch loop checks the cancel flag before every removal),
// exercising the partial-prefix truncation path that wall-clock deadlines
// can't hit reproducibly.
class CancelAfterPeelsOracle : public CliqueOracle {
 public:
  CancelAfterPeelsOracle(int h, int peel_budget, std::atomic<bool>* cancel)
      : CliqueOracle(h), peels_left_(peel_budget), cancel_(cancel) {}

  uint64_t PeelVertex(const Graph& graph, VertexId v,
                      std::span<const char> alive,
                      const PeelCallback& cb) const override {
    if (--peels_left_ <= 0) cancel_->store(true);
    return CliqueOracle::PeelVertex(graph, v, alive, cb);
  }

 private:
  mutable std::atomic<int> peels_left_;
  std::atomic<bool>* cancel_;
};

TEST(MotifCore, MidBracketCancelTruncatesToPrefix) {
  // 100 disjoint triangles: every vertex has triangle-degree 1, so the
  // whole graph is ONE 300-member bracket. The cancel flag rises during the
  // 10th removal; the count loop's per-removal cancel check stops before
  // the 11th, so exactly 10 members of the bracket are peeled.
  GraphBuilder b;
  const int kTriangles = 100;
  for (VertexId i = 0; i < kTriangles; ++i) {
    b.AddEdge(3 * i, 3 * i + 1);
    b.AddEdge(3 * i + 1, 3 * i + 2);
    b.AddEdge(3 * i, 3 * i + 2);
  }
  Graph g = b.Build();
  const MotifCoreDecomposition full = MotifCoreDecompose(g, CliqueOracle(3));

  std::atomic<bool> cancel{false};
  CancelAfterPeelsOracle oracle(3, 10, &cancel);
  ExecutionContext ctx = ExecutionContext().WithCancelFlag(&cancel);
  const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle, ctx);

  const size_t peeled = d.residual_density.size();
  EXPECT_EQ(peeled, 10u);
  ASSERT_LT(peeled, g.NumVertices());
  // The peeled prefix matches the untruncated run removal for removal
  // (densities bitwise, same order), and the unpeeled remainder is
  // appended so removal_order stays a permutation of V.
  ASSERT_EQ(d.removal_order.size(), g.NumVertices());
  for (size_t i = 0; i < peeled; ++i) {
    EXPECT_EQ(d.removal_order[i], full.removal_order[i]) << i;
    EXPECT_EQ(d.residual_density[i], full.residual_density[i]) << i;
  }
  std::vector<VertexId> sorted = d.removal_order;
  std::sort(sorted.begin(), sorted.end());
  for (VertexId v = 0; v < g.NumVertices(); ++v) ASSERT_EQ(sorted[v], v);
  // A removal at level 1 did happen before the stop, so kmax is honest;
  // unpeeled vertices keep their last (never-assigned) core value.
  EXPECT_EQ(d.kmax, 1u);
  for (size_t i = peeled; i < d.removal_order.size(); ++i) {
    EXPECT_EQ(d.core[d.removal_order[i]], 0u);
  }
}

// Oracle whose batch peel gives up before processing a single member —
// the contract's zero-progress case (a deadline can fire inside
// PeelBatch before its first chunk). The engine must treat it as a
// truncation and, critically, must NOT raise kmax to the popped bracket's
// level: no vertex was actually peeled there.
class ZeroProgressOracle : public CliqueOracle {
 public:
  explicit ZeroProgressOracle(int h) : CliqueOracle(h) {}

  std::vector<uint64_t> PeelBatch(const Graph&, std::span<const VertexId>,
                                  std::span<char>, const PeelCallback&,
                                  const ExecutionContext&) const override {
    return {};
  }
};

TEST(MotifCore, ZeroProgressBatchKeepsKmaxHonest) {
  Graph g = gen::ErdosRenyi(50, 0.3, 5);
  const MotifCoreDecomposition d = MotifCoreDecompose(g, ZeroProgressOracle(3));
  EXPECT_EQ(d.kmax, 0u);
  EXPECT_TRUE(d.residual_density.empty());
  // Truncated semantics still hold: removal_order is a permutation of V.
  ASSERT_EQ(d.removal_order.size(), g.NumVertices());
  std::vector<VertexId> sorted = d.removal_order;
  std::sort(sorted.begin(), sorted.end());
  for (VertexId v = 0; v < g.NumVertices(); ++v) ASSERT_EQ(sorted[v], v);
  for (VertexId v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(d.core[v], 0u);
}

TEST(RestrictToCore, DropsUnderSupportedVertices) {
  // Triangle + pendant: the (1, triangle)-core is the triangle itself.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  CliqueOracle tri(3);
  std::vector<VertexId> all = {0, 1, 2, 3};
  EXPECT_EQ(RestrictToCore(g, tri, all, 1), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_TRUE(RestrictToCore(g, tri, all, 2).empty());
}

TEST(RestrictToCore, AgreesWithDecompositionOnWholeGraph) {
  Graph g = gen::ErdosRenyi(35, 0.25, 31);
  CliqueOracle oracle(3);
  MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  for (uint64_t k = 1; k <= d.kmax; ++k) {
    EXPECT_EQ(RestrictToCore(g, oracle, all, k), d.CoreVertices(k)) << k;
  }
}

TEST(RestrictToCore, CascadingRemovals) {
  // Chain of triangles sharing single vertices: removing the weakest end
  // cascades. Build triangles (0,1,2), (2,3,4), (4,5,6).
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(2, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 6);
  b.AddEdge(4, 6);
  Graph g = b.Build();
  CliqueOracle tri(3);
  std::vector<VertexId> all = {0, 1, 2, 3, 4, 5, 6};
  // Every vertex is in >= 1 triangle: core at k=1 keeps everything.
  EXPECT_EQ(RestrictToCore(g, tri, all, 1).size(), 7u);
  // k=2: only vertex 2 and 4 touch two triangles, but their triangles need
  // the degree-1 companions, which die first => everything unravels.
  EXPECT_TRUE(RestrictToCore(g, tri, all, 2).empty());
}

// Reference for RestrictToCore: whole-subset degree rounds to a fixpoint,
// never dropping a kept vertex.
std::vector<VertexId> NaiveRestrict(const Graph& g, const MotifOracle& oracle,
                                    const std::vector<VertexId>& vertices,
                                    uint64_t k,
                                    const std::vector<VertexId>& keep) {
  std::vector<char> alive(g.NumVertices(), 0);
  for (VertexId v : vertices) alive[v] = 1;
  for (bool changed = true; changed;) {
    changed = false;
    const std::vector<uint64_t> degree = oracle.Degrees(g, alive);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const bool kept = std::find(keep.begin(), keep.end(), v) != keep.end();
      if (alive[v] && degree[v] < k && !kept) {
        alive[v] = 0;
        changed = true;
      }
    }
  }
  std::vector<VertexId> survivors;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (alive[v]) survivors.push_back(v);
  }
  return survivors;
}

// (motif, threads): the merged RestrictToCore against the naive fixpoint
// over random graphs, whole-V and random-subset inputs, levels up to the
// largest degree, with and without three never-dropped vertices.
class RestrictToCoreReferenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {};

TEST_P(RestrictToCoreReferenceTest, MatchesNaiveFixpoint) {
  const auto& [motif, threads] = GetParam();
  std::unique_ptr<MotifOracle> oracle;
  if (motif == "edge") oracle = std::make_unique<CliqueOracle>(2);
  if (motif == "triangle") oracle = std::make_unique<CliqueOracle>(3);
  if (motif == "2-star") {
    oracle = std::make_unique<PatternOracle>(Pattern::TwoStar());
  }
  const ExecutionContext ctx = ExecutionContext().WithThreads(threads);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = gen::ErdosRenyi(40, 0.1 + 0.04 * seed, seed + 70);
    Rng rng(seed);
    std::vector<VertexId> all(g.NumVertices()), half;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      all[v] = v;
      if (rng.NextBernoulli(0.5)) half.push_back(v);
    }
    std::vector<VertexId> three;
    while (three.size() < 3) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      if (std::find(three.begin(), three.end(), v) == three.end()) {
        three.push_back(v);
      }
    }
    uint64_t max_degree = 0;
    for (uint64_t d : oracle->Degrees(g, {})) {
      max_degree = std::max(max_degree, d);
    }
    for (const std::vector<VertexId>* input : {&all, &half}) {
      for (const std::vector<VertexId>& keep :
           {std::vector<VertexId>{}, three}) {
        // ~20 levels from 0 past the largest degree: 2-star degrees run
        // into the hundreds.
        const uint64_t step = std::max<uint64_t>(1, max_degree / 20);
        for (uint64_t k = 0; k <= max_degree + 1; k += step) {
          EXPECT_EQ(RestrictToCore(g, *oracle, *input, k, ctx, keep),
                    NaiveRestrict(g, *oracle, *input, k, keep))
              << "seed " << seed << " k " << k << " input "
              << input->size() << " keep " << keep.size();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MotifsAndThreads, RestrictToCoreReferenceTest,
    ::testing::Combine(::testing::Values("edge", "triangle", "2-star"),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_t" +
                         std::to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(MotifCoreDecomposition, CoreDensityReadsTheSuffix) {
  const Graph g = gen::ErdosRenyi(40, 0.2, 5);
  CliqueOracle tri(3);
  const MotifCoreDecomposition d = MotifCoreDecompose(g, tri);
  for (uint64_t k = 0; k <= d.kmax + 1; ++k) {
    ASSERT_TRUE(d.CoreDensity(k).has_value());
    EXPECT_EQ(*d.CoreDensity(k), MeasureDensity(g, tri, d.CoreVertices(k)))
        << k;
  }
  MotifCoreDecomposition truncated = d;
  truncated.complete = false;
  EXPECT_FALSE(truncated.CoreDensity(1).has_value());
}

// Oracle that records every PeelBatch frontier and checks, against a
// one-thread Degrees pass over the entry mask, that each member lies in at
// least one alive instance: a bracket of degree 0 must never reach it.
// An optional cancel flag rises after the Nth call has returned.
template <typename Base>
class RecordingOracle : public Base {
 public:
  using Base::Base;

  void CancelAfter(uint64_t calls, std::atomic<bool>* cancel) {
    cancel_after_ = calls;
    cancel_ = cancel;
  }
  const std::vector<std::vector<VertexId>>& frontiers() const {
    return frontiers_;
  }
  uint64_t zero_degree_members() const { return zero_degree_members_; }

  std::vector<uint64_t> PeelBatch(const Graph& graph,
                                  std::span<const VertexId> frontier,
                                  std::span<char> alive, const PeelCallback& cb,
                                  const ExecutionContext& ctx) const override {
    const std::vector<uint64_t> degree = this->Degrees(graph, alive);
    for (VertexId v : frontier) zero_degree_members_ += degree[v] == 0;
    frontiers_.emplace_back(frontier.begin(), frontier.end());
    std::vector<uint64_t> destroyed =
        Base::PeelBatch(graph, frontier, alive, cb, ctx);
    if (cancel_ != nullptr && frontiers_.size() == cancel_after_) {
      cancel_->store(true);
    }
    return destroyed;
  }

 private:
  mutable std::vector<std::vector<VertexId>> frontiers_;
  mutable uint64_t zero_degree_members_ = 0;
  uint64_t cancel_after_ = 0;
  std::atomic<bool>* cancel_ = nullptr;
};

// The one-vertex-at-a-time reference for MotifCoreDecompose: pops every
// alive vertex of the least motif-degree, removes them in ascending id
// order through PeelVertex (members of degree 0 too), and lowers the
// survivors' degrees after the bracket, as PeelBatch's contract defines.
MotifCoreDecomposition PeelVertexReference(const Graph& g,
                                           const MotifOracle& oracle) {
  const VertexId n = g.NumVertices();
  MotifCoreDecomposition r;
  r.core.assign(n, 0);
  std::vector<uint64_t> degree = oracle.Degrees(g, {});
  uint64_t remaining = 0;
  for (uint64_t d : degree) remaining += d;
  remaining /= oracle.MotifSize();
  std::vector<char> alive(n, 1);
  uint64_t k = 0;
  for (VertexId left = n; left > 0;) {
    uint64_t d = UINT64_MAX;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) d = std::min(d, degree[v]);
    }
    k = std::max(k, d);
    std::vector<VertexId> bracket;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v] && degree[v] == d) bracket.push_back(v);
    }
    std::vector<uint64_t> loss(n, 0);
    for (VertexId v : bracket) {
      alive[v] = 0;
      const uint64_t destroyed = oracle.PeelVertex(
          g, v, alive, [&](VertexId u, uint64_t c) { loss[u] += c; });
      r.residual_instances.push_back(remaining);
      r.residual_density.push_back(static_cast<double>(remaining) / left);
      r.core[v] = k;
      r.removal_order.push_back(v);
      --left;
      remaining -= destroyed;
    }
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) degree[v] -= loss[v];
    }
  }
  r.kmax = k;
  return r;
}

// A bowtie (two triangles through vertex 2), two houses (the basket
// pattern) sharing their roof apex 9, and a K5 on 14..18. For triangles the
// houses' floors start at degree 0; the bowtie's and roofs' degree-1
// vertices go next and leave 2 and 9 in no triangle. For baskets the bowtie
// starts at degree 0 and the houses' degree-1 vertices leave 9 in none. So
// each motif peels: zero bracket, degree-1 bracket, a later zero bracket,
// then the K5.
Graph ZeroBracketGraph() {
  GraphBuilder b;
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}) {
    b.AddEdge(u, v);
  }
  // House i: floor f0-f1, walls f0-w0 and f1-w1, eave w0-w1, roof w0-9-w1.
  for (VertexId base : {5, 10}) {
    const VertexId f0 = base, f1 = base + 1, w0 = base + 2, w1 = base + 3;
    for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
             {f0, f1}, {f0, w0}, {f1, w1}, {w0, w1}, {w0, 9}, {w1, 9}}) {
      b.AddEdge(u, v);
    }
  }
  for (VertexId u = 14; u < 19; ++u) {
    for (VertexId v = u + 1; v < 19; ++v) b.AddEdge(u, v);
  }
  return b.Build();
}

// Runs MotifCoreDecompose at threads 1 and 4 with a fresh make() oracle (a
// RecordingOracle) and checks it against PeelVertexReference: bit-identical
// answers, no degree-0 member in any PeelBatch frontier and, when
// expect_later_zero, a zero bracket after the initial one.
template <typename Make>
void ExpectMatchesReferenceWithoutZeroPeels(const Graph& g,
                                            const MotifOracle& reference_oracle,
                                            Make make, bool expect_later_zero) {
  const MotifCoreDecomposition reference =
      PeelVertexReference(g, reference_oracle);
  bool initial_zero = false;
  for (uint64_t d : reference_oracle.Degrees(g, {})) initial_zero |= d == 0;
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto oracle = make();
    ExecutionContext ctx;
    ctx.threads = threads;
    const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle, ctx);
    EXPECT_EQ(d.core, reference.core);
    EXPECT_EQ(d.removal_order, reference.removal_order);
    EXPECT_EQ(d.residual_density, reference.residual_density);
    EXPECT_EQ(d.residual_instances, reference.residual_instances);
    EXPECT_EQ(d.kmax, reference.kmax);
    EXPECT_EQ(oracle.zero_degree_members(), 0u);
    // Brackets the oracle never saw are the zero brackets; past the
    // initial one, each is a later one.
    const uint64_t zero_brackets =
        d.peel_stats.brackets - oracle.frontiers().size();
    if (expect_later_zero) {
      EXPECT_GE(zero_brackets, initial_zero ? 2u : 1u);
    }
  }
}

TEST(MotifCoreZeroBrackets, NoDegreeZeroMemberReachesTheOracle) {
  const Graph g = ZeroBracketGraph();
  {
    SCOPED_TRACE("triangle");
    const auto make = [] { return RecordingOracle<CliqueOracle>(3); };
    ExpectMatchesReferenceWithoutZeroPeels(
        g, CliqueOracle(3), make, true);
    // Zero, degree-1, zero, K5: the oracle sees the two positive ones.
    const RecordingOracle<CliqueOracle> oracle = make();
    const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
    EXPECT_EQ(d.peel_stats.brackets, 4u);
    ASSERT_EQ(oracle.frontiers().size(), 2u);
    EXPECT_EQ(oracle.frontiers()[0],
              (std::vector<VertexId>{0, 1, 3, 4, 7, 8, 12, 13}));
    EXPECT_EQ(d.removal_order[12], 2u);
    EXPECT_EQ(d.removal_order[13], 9u);
  }
  {
    SCOPED_TRACE("basket");
    const auto make = [] {
      return RecordingOracle<PatternOracle>(Pattern::Basket());
    };
    ExpectMatchesReferenceWithoutZeroPeels(
        g, PatternOracle(Pattern::Basket()), make, true);
    const RecordingOracle<PatternOracle> oracle = make();
    const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle);
    EXPECT_EQ(d.peel_stats.brackets, 4u);
    ASSERT_EQ(oracle.frontiers().size(), 2u);
    EXPECT_EQ(oracle.frontiers()[0],
              (std::vector<VertexId>{5, 6, 7, 8, 10, 11, 12, 13}));
    EXPECT_EQ(d.removal_order[13], 9u);
  }
}

TEST(MotifCoreZeroBrackets, RandomGraphsMatchThePeelVertexReference) {
  for (const Graph& g : {gen::ErdosRenyi(60, 0.06, 11),
                         gen::BarabasiAlbert(80, 2, 12),
                         gen::PowerLawWithCommunities(120, 2, 4, 8, 0.8, 13)}) {
    SCOPED_TRACE("n=" + std::to_string(g.NumVertices()));
    ExpectMatchesReferenceWithoutZeroPeels(
        g, CliqueOracle(3), [] { return RecordingOracle<CliqueOracle>(3); },
        false);
    ExpectMatchesReferenceWithoutZeroPeels(
        g, PatternOracle(Pattern::Basket()),
        [] { return RecordingOracle<PatternOracle>(Pattern::Basket()); },
        false);
  }
}

TEST(MotifCoreZeroBrackets, CancelAfterAZeroBracketKeepsAPermutation) {
  // Triangles on ZeroBracketGraph: the four floor vertices leave with no
  // oracle call, the degree-1 bracket's PeelBatch raises the cancel flag,
  // and the engine stops at its next bracket poll with 12 vertices peeled.
  const Graph g = ZeroBracketGraph();
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::atomic<bool> cancel{false};
    RecordingOracle<CliqueOracle> oracle(3);
    oracle.CancelAfter(1, &cancel);
    ExecutionContext ctx = ExecutionContext().WithCancelFlag(&cancel);
    ctx.threads = threads;
    const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle, ctx);
    EXPECT_FALSE(d.complete);
    EXPECT_EQ(d.peel_stats.brackets, 2u);
    EXPECT_EQ(d.residual_density.size(), 12u);
    EXPECT_EQ(d.kmax, 1u);
    ASSERT_EQ(d.removal_order.size(), g.NumVertices());
    std::vector<VertexId> sorted = d.removal_order;
    std::sort(sorted.begin(), sorted.end());
    for (VertexId v = 0; v < g.NumVertices(); ++v) ASSERT_EQ(sorted[v], v);
    EXPECT_EQ(std::vector<VertexId>(d.removal_order.begin(),
                                    d.removal_order.begin() + 4),
              (std::vector<VertexId>{5, 6, 10, 11}));
  }
}

}  // namespace
}  // namespace dsd
