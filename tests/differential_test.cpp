// Randomized differential harness for the oracle stacks.
//
// The invariant under test is the library's strongest claim: every oracle
// the factory builds, run at any thread count, answers Degrees /
// CountInstances and drives dsd::Solve to answers IDENTICAL to the
// sequential baseline. Rather than fixed fixtures, the harness sweeps
// seeded random graphs (Erdos-Renyi and power-law, from
// graph/generators.h) and random alive masks, across every built-in motif
// family x threads {1, 2, 4, auto}. Seeds are deterministic and logged via
// SCOPED_TRACE, so a failure names the exact (seed, motif, threads) cell to
// replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "dsd/motif_oracle.h"
#include "dsd/oracle_factory.h"
#include "dsd/peel_app.h"
#include "dsd/solver.h"
#include "graph/generators.h"
#include "parallel/parallel_for.h"
#include "pattern/pattern.h"

namespace dsd {
namespace {

struct SeededGraph {
  std::string name;
  uint64_t seed;
  Graph graph;
};

// Small enough that the generic embedding enumerator stays fast for every
// 5-vertex pattern, large enough that every motif has instances and the
// thread counts under test get real shards.
std::vector<SeededGraph> TestGraphs() {
  std::vector<SeededGraph> graphs;
  for (uint64_t seed : {0x5EED1ull, 0x5EED2ull}) {
    graphs.push_back(
        {"erdos_renyi", seed, gen::ErdosRenyi(60, 0.12, seed)});
    graphs.push_back(
        {"power_law", seed, gen::BarabasiAlbert(70, 3, seed)});
  }
  return graphs;
}

// Clique motifs exercise the parallel clique kernels; the stars and the
// 4-cycle take the appendix-D closed forms; c3-star and basket force the
// generic plan-compiled engine (and, in the parallel stacks, the generic
// rank-masked peel kernel).
const char* const kMotifs[] = {"triangle", "4-clique", "2-star",
                               "3-star",   "diamond",  "c3-star", "basket"};

const unsigned kThreadCounts[] = {1u, 2u, 4u, 0u};  // 0 = auto

// Deterministic random alive mask keeping ~keep_percent of the vertices.
std::vector<char> RandomMask(const Graph& g, uint64_t seed, int keep_percent) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(0, 99);
  std::vector<char> alive(g.NumVertices(), 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    alive[v] = dist(rng) < keep_percent ? 1 : 0;
  }
  return alive;
}

std::unique_ptr<MotifOracle> MustMakeOracle(const std::string& motif,
                                            unsigned threads) {
  OracleOptions options;
  options.threads = threads == 0 ? 8 : threads;  // resolved budget
  StatusOr<std::unique_ptr<MotifOracle>> oracle = MakeOracle(motif, options);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  return std::move(oracle.value());
}

TEST(DifferentialOracleTest, AllStacksMatchSequentialBaseline) {
  for (const SeededGraph& sg : TestGraphs()) {
    SCOPED_TRACE(sg.name + " seed=" + std::to_string(sg.seed));
    const std::vector<char> mask_a = RandomMask(sg.graph, sg.seed * 31 + 1, 70);
    const std::vector<char> mask_b = RandomMask(sg.graph, sg.seed * 31 + 2, 40);
    for (const char* motif : kMotifs) {
      SCOPED_TRACE(std::string("motif=") + motif);
      std::unique_ptr<MotifOracle> baseline = MustMakeOracle(motif, 1);
      const std::vector<uint64_t> degrees_full = baseline->Degrees(sg.graph, {});
      const std::vector<uint64_t> degrees_a = baseline->Degrees(sg.graph, mask_a);
      const uint64_t count_full = baseline->CountInstances(sg.graph, {});
      const uint64_t count_b = baseline->CountInstances(sg.graph, mask_b);
      for (unsigned threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::unique_ptr<MotifOracle> oracle = MustMakeOracle(motif, threads);
        ExecutionContext ctx;
        ctx.threads = threads == 0 ? 8 : threads;
        EXPECT_EQ(oracle->Degrees(sg.graph, {}, ctx), degrees_full);
        EXPECT_EQ(oracle->Degrees(sg.graph, mask_a, ctx), degrees_a);
        EXPECT_EQ(oracle->CountInstances(sg.graph, {}, ctx), count_full);
        EXPECT_EQ(oracle->CountInstances(sg.graph, mask_b, ctx), count_b);
      }
    }
  }
}

TEST(DifferentialDecomposeTest, AllStacksMatchSequentialDecomposition) {
  // The batch-bracket peeling engine's strongest claim: the FULL
  // decomposition — core numbers, the removal order itself, every
  // per-removal residual density and instance count, the whole-graph
  // degrees, and the best residual suffix — is bit-identical at every
  // thread count. Multi-thread runs route brackets through the frontier
  // peel kernels, so this locks PeelBatch's rank-mask semantics to the
  // sequential PeelVertex loop.
  for (const SeededGraph& sg : TestGraphs()) {
    SCOPED_TRACE(sg.name + " seed=" + std::to_string(sg.seed));
    for (const char* motif : kMotifs) {
      SCOPED_TRACE(std::string("motif=") + motif);
      std::unique_ptr<MotifOracle> baseline_oracle = MustMakeOracle(motif, 1);
      const MotifCoreDecomposition baseline =
          MotifCoreDecompose(sg.graph, *baseline_oracle);
      for (unsigned threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::unique_ptr<MotifOracle> oracle = MustMakeOracle(motif, threads);
        ExecutionContext ctx;
        ctx.threads = threads == 0 ? 8 : threads;
        const MotifCoreDecomposition d =
            MotifCoreDecompose(sg.graph, *oracle, ctx);
        EXPECT_EQ(d.core, baseline.core);
        EXPECT_EQ(d.degree, baseline.degree);
        EXPECT_EQ(d.kmax, baseline.kmax);
        EXPECT_EQ(d.total_instances, baseline.total_instances);
        EXPECT_EQ(d.removal_order, baseline.removal_order);
        EXPECT_EQ(d.residual_density, baseline.residual_density);
        EXPECT_EQ(d.residual_instances, baseline.residual_instances);
        EXPECT_EQ(d.best_residual_start, baseline.best_residual_start);
        // Bitwise: both sides run the same integer->double divisions in
        // the same order.
        EXPECT_EQ(d.best_residual_density, baseline.best_residual_density);
        EXPECT_EQ(d.BestResidualVertices(), baseline.BestResidualVertices());
      }
    }
  }
}

TEST(DifferentialDecomposeTest, GenericPeelBatchDecompositionMatchesSequential) {
  // Focused companion to AllStacksMatchSequentialDecomposition for the
  // generic rank-masked peel kernel: a community graph whose lowest-degree
  // brackets are large. Under a multi-thread context PatternOracle sends
  // every generic bracket, whatever its size, through
  // ParallelPatternPeelBatch, so the large brackets shard by member and the
  // small ones by (position, slice) parts.
  const Graph graph =
      gen::PowerLawWithCommunities(240, 3, 10, 10, 0.85, 0x9E1D);
  for (const char* motif : {"c3-star", "basket"}) {
    SCOPED_TRACE(std::string("motif=") + motif);
    std::unique_ptr<MotifOracle> baseline_oracle = MustMakeOracle(motif, 1);
    const MotifCoreDecomposition baseline =
        MotifCoreDecompose(graph, *baseline_oracle);
    for (unsigned threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::unique_ptr<MotifOracle> oracle = MustMakeOracle(motif, threads);
      ExecutionContext ctx;
      ctx.threads = threads == 0 ? 8 : threads;
      const MotifCoreDecomposition d = MotifCoreDecompose(graph, *oracle, ctx);
      EXPECT_EQ(d.core, baseline.core);
      EXPECT_EQ(d.removal_order, baseline.removal_order);
      EXPECT_EQ(d.residual_density, baseline.residual_density);
      EXPECT_EQ(d.residual_instances, baseline.residual_instances);
      EXPECT_EQ(d.best_residual_start, baseline.best_residual_start);
      EXPECT_EQ(d.BestResidualVertices(), baseline.BestResidualVertices());
    }
  }
}

// Peels `graph` under a `budget`-second deadline (-1 = already expired) and
// checks what a truncation may not break: removal_order is a permutation of
// V, densities cover only the peeled prefix, that prefix matches the
// untruncated peel `full` removal for removal, and core numbers never
// exceed the untruncated ones.
void ExpectDeadlineTruncationInvariants(const Graph& graph, const char* motif,
                                        unsigned threads, double budget,
                                        const MotifCoreDecomposition& full) {
  SCOPED_TRACE(std::string("motif=") + motif +
               " threads=" + std::to_string(threads) +
               " budget=" + std::to_string(budget));
  std::unique_ptr<MotifOracle> oracle = MustMakeOracle(motif, threads);
  ExecutionContext ctx;
  ctx.threads = threads;
  ctx = ctx.WithDeadlineAfter(budget);
  const MotifCoreDecomposition d = MotifCoreDecompose(graph, *oracle, ctx);
  ASSERT_EQ(d.removal_order.size(), graph.NumVertices());
  std::vector<VertexId> sorted = d.removal_order;
  std::sort(sorted.begin(), sorted.end());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    ASSERT_EQ(sorted[v], v);  // a permutation of V
  }
  EXPECT_LE(d.residual_density.size(), d.removal_order.size());
  ASSERT_EQ(d.residual_instances.size(), d.residual_density.size());
  for (size_t i = 0; i < d.residual_density.size(); ++i) {
    ASSERT_EQ(d.removal_order[i], full.removal_order[i]) << i;
    ASSERT_EQ(d.residual_density[i], full.residual_density[i]) << i;
    ASSERT_EQ(d.residual_instances[i], full.residual_instances[i]) << i;
  }
  EXPECT_EQ(d.degree, full.degree);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    EXPECT_LE(d.core[v], full.core[v]) << "v=" << v;
  }
  EXPECT_LE(d.kmax, full.kmax);
}

TEST(DifferentialDecomposeTest, DeadlineTruncationKeepsInvariants) {
  // A deadline may truncate the decomposition anywhere, so exact equality
  // is not the contract — the truncation invariants are. c3-star routes
  // the brackets through the generic rank-masked kernel, locking its
  // truncation behaviour alongside the clique and closed-form kernels'.
  const Graph graph = gen::ErdosRenyi(60, 0.15, 0x7EE7);
  for (const char* motif : {"triangle", "2-star", "c3-star"}) {
    std::unique_ptr<MotifOracle> baseline_oracle = MustMakeOracle(motif, 1);
    const MotifCoreDecomposition full =
        MotifCoreDecompose(graph, *baseline_oracle);
    for (unsigned threads : {1u, 4u}) {
      ExpectDeadlineTruncationInvariants(graph, motif, threads, -1.0, full);
    }
  }
}

TEST(DifferentialDecomposeTest, ThreadedDeadlineTruncationKeepsInvariants) {
  // The multi-threaded peel under a sweep of wall-clock budgets: the
  // shortest expire during the initial degree pass, 1e-3 s typically fires
  // mid-peel inside the parallel count kernels. Whatever truncation point
  // a budget hits, the measured prefix is a genuine prefix of the
  // untruncated peel.
  const Graph graph =
      gen::PowerLawWithCommunities(240, 3, 10, 10, 0.85, 0x9E1D);
  std::unique_ptr<MotifOracle> full_oracle = MustMakeOracle("triangle", 1);
  const MotifCoreDecomposition full = MotifCoreDecompose(graph, *full_oracle);
  for (double budget : {-1.0, 1e-6, 1e-4, 1e-3}) {
    ExpectDeadlineTruncationInvariants(graph, "triangle", 4, budget, full);
  }
}

// CliqueOracle that raises a cancel flag during the Nth PeelVertex call —
// a deterministic way to truncate a peel mid-decomposition, which a
// wall-clock deadline can never pin down.
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

// Checks the counts a decomposition stores against fresh oracle counts:
// residual_instances[i] is mu of the suffix removal_order[i..n), the
// density beside it is that count over the suffix size, and `degree` is
// the whole-graph degree vector.
void ExpectStoredCountsMeasure(const Graph& graph, const MotifOracle& oracle,
                               const MotifCoreDecomposition& d) {
  ASSERT_EQ(d.residual_instances.size(), d.residual_density.size());
  const size_t n = d.removal_order.size();
  for (size_t i = 0; i < d.residual_instances.size(); ++i) {
    const std::span<const VertexId> suffix(d.removal_order.data() + i, n - i);
    ASSERT_EQ(d.residual_instances[i],
              MeasureInstances(graph, oracle, suffix))
        << "suffix " << i;
    ASSERT_EQ(d.residual_density[i], Density(d.residual_instances[i], n - i))
        << "suffix " << i;
  }
  EXPECT_EQ(d.degree, oracle.Degrees(graph, {}));
}

TEST(DifferentialDecomposeTest, ResidualInstancesCountEverySuffix) {
  for (const SeededGraph& sg : TestGraphs()) {
    SCOPED_TRACE(sg.name + " seed=" + std::to_string(sg.seed));
    for (const char* motif : kMotifs) {
      SCOPED_TRACE(std::string("motif=") + motif);
      std::unique_ptr<MotifOracle> oracle = MustMakeOracle(motif, 1);
      const MotifCoreDecomposition d = MotifCoreDecompose(sg.graph, *oracle);
      ASSERT_EQ(d.residual_instances.size(), sg.graph.NumVertices());
      EXPECT_EQ(d.residual_instances[0], d.total_instances);
      ExpectStoredCountsMeasure(sg.graph, *oracle, d);
    }
  }
  // A cancel-truncated peel stores counts for its peeled prefix only; each
  // is still the count of a genuine suffix (peeled tail plus the unpeeled
  // remainder).
  const Graph graph = gen::ErdosRenyi(60, 0.15, 0x7EE7);
  std::atomic<bool> cancel{false};
  CancelAfterPeelsOracle cancelling(3, 25, &cancel);
  const MotifCoreDecomposition truncated = MotifCoreDecompose(
      graph, cancelling, ExecutionContext().WithCancelFlag(&cancel));
  ASSERT_FALSE(truncated.complete);
  EXPECT_GT(truncated.residual_instances.size(), 0u);
  EXPECT_LT(truncated.residual_instances.size(), graph.NumVertices());
  ExpectStoredCountsMeasure(graph, CliqueOracle(3), truncated);
}

TEST(DifferentialSolveTest, ThreadedSolvesMatchSequential) {
  // End to end through dsd::Solve: the answer must not depend on the thread
  // budget for any algorithm x motif cell, and the effective thread count
  // must be honest.
  for (const SeededGraph& sg : TestGraphs()) {
    SCOPED_TRACE(sg.name + " seed=" + std::to_string(sg.seed));
    for (const char* motif : {"edge", "triangle", "4-clique", "3-star",
                              "diamond", "c3-star"}) {
      // peel, core-app and at-least drive the batch peeling engine end to
      // end; exact and core-exact cover the degree-pass and core-
      // restriction paths; query is the served fresh path, whose flow
      // network pins the seeds to the source side (on the edge motif that
      // is Goldberg's EDS network with ForceToSource).
      for (const char* algo : {"exact", "core-exact", "peel", "core-app",
                               "at-least", "query"}) {
        SolveRequest request;
        request.algorithm = algo;
        request.motif = motif;
        request.min_size = 10;   // used by at-least only
        request.seeds = {1, 5};  // used by query only
        request.threads = 1;
        StatusOr<SolveResponse> sequential = Solve(sg.graph, request);
        ASSERT_TRUE(sequential.ok())
            << algo << "/" << motif << ": " << sequential.status().ToString();
        for (unsigned threads : {2u, 4u, 0u}) {
          SCOPED_TRACE(std::string(algo) + "/" + motif +
                       " threads=" + std::to_string(threads));
          request.threads = threads;
          StatusOr<SolveResponse> threaded = Solve(sg.graph, request);
          ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
          EXPECT_EQ(threaded.value().result.vertices,
                    sequential.value().result.vertices);
          EXPECT_EQ(threaded.value().result.instances,
                    sequential.value().result.instances);
          EXPECT_DOUBLE_EQ(threaded.value().result.density,
                           sequential.value().result.density);
          // Every motif here has a parallel oracle; peel/exact/core-exact
          // all declare MaxThreads() unbounded, so the report is the
          // resolved budget itself (the acceptance check that star/cycle
          // motifs now actually spend the budget).
          EXPECT_EQ(threaded.value().stats.threads, ResolveThreadCount(threads));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Decomposition index: solves that read a stored decomposition must answer
// exactly as solves that peel.

std::string Bits(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void ExpectSameAnswer(const StatusOr<SolveResponse>& got,
                      const StatusOr<SolveResponse>& want) {
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(Bits(got.value().result.density),
            Bits(want.value().result.density));
  EXPECT_EQ(got.value().result.instances, want.value().result.instances);
  EXPECT_EQ(got.value().result.vertices, want.value().result.vertices);
  EXPECT_EQ(got.value().result.stats.kmax, want.value().result.stats.kmax);
}

SolveRequest IndexedRequest(const std::string& algo, const std::string& motif,
                            unsigned threads) {
  SolveRequest request;
  request.algorithm = algo;
  request.motif = motif;
  request.min_size = 10;    // at-least only
  request.seeds = {1, 5};   // query only
  request.threads = threads;
  return request;
}

// core, degree, removal_order, residual_density and residual_instances.
constexpr uint64_t kIndexBytesPerVertex = sizeof(uint64_t) + sizeof(uint64_t) +
                                          sizeof(VertexId) + sizeof(double) +
                                          sizeof(uint64_t);

TEST(DecompositionIndexTest, IndexServedSolvesMatchDirectSolveBitIdentical) {
  const char* const algos[] = {"peel", "at-least", "query", "core-exact"};
  const char* const motifs[] = {"edge", "triangle", "2-star", "4-clique",
                                "basket"};
  for (const SeededGraph& sg : TestGraphs()) {
    SCOPED_TRACE(sg.name + " seed=" + std::to_string(sg.seed));
    DecompositionIndex index(sg.graph);
    for (const char* motif : motifs) {
      // The server's setup: one oracle with the full budget, shared by
      // every solve of the motif.
      std::unique_ptr<MotifOracle> oracle = MustMakeOracle(motif, 4);
      for (const char* algo : algos) {
        for (unsigned threads : {1u, 4u}) {
          SCOPED_TRACE(std::string(algo) + "/" + motif +
                       " threads=" + std::to_string(threads));
          const StatusOr<SolveResponse> direct =
              Solve(sg.graph, IndexedRequest(algo, motif, threads));
          // The entry is built (or re-read) under the other grant, then
          // read under this one.
          const unsigned other = threads == 1 ? 4 : 1;
          ExpectSameAnswer(Solve(sg.graph, *oracle,
                                 IndexedRequest(algo, motif, other), &index),
                           direct);
          const StatusOr<SolveResponse> served = Solve(
              sg.graph, *oracle, IndexedRequest(algo, motif, threads), &index);
          ExpectSameAnswer(served, direct);
          ASSERT_TRUE(served.ok());
          EXPECT_EQ(served.value().result.stats.peel.brackets, 0u)
              << "a hit must report no peel-engine work";
        }
      }
    }
    // One miss per motif (the very first solve); every other lookup hit.
    const DecompositionIndex::Stats stats = index.stats();
    const uint64_t lookups = std::size(motifs) * std::size(algos) * 2 * 2;
    EXPECT_EQ(stats.misses, std::size(motifs));
    EXPECT_EQ(stats.hits, lookups - std::size(motifs));
    EXPECT_EQ(stats.bytes, std::size(motifs) * sg.graph.NumVertices() *
                               kIndexBytesPerVertex);
  }
}

TEST(DecompositionIndexTest, DeadlineTruncatedSolveLeavesIndexEmpty) {
  const Graph graph = gen::BarabasiAlbert(70, 3, 0x5EED2);
  DecompositionIndex index(graph);
  std::unique_ptr<MotifOracle> oracle = MustMakeOracle("triangle", 4);
  SolveRequest blown = IndexedRequest("peel", "triangle", 4);
  blown.time_budget_seconds = 1e-12;
  EXPECT_TRUE(Solve(graph, *oracle, blown, &index).status().IsDeadlineExceeded());
  EXPECT_EQ(index.stats().misses, 1u);
  EXPECT_EQ(index.stats().bytes, 0u);

  // The next solve is a miss that peels in full and answers correctly.
  const SolveRequest request = IndexedRequest("peel", "triangle", 4);
  const StatusOr<SolveResponse> direct = Solve(graph, request);
  ExpectSameAnswer(Solve(graph, *oracle, request, &index), direct);
  EXPECT_EQ(index.stats().misses, 2u);
  EXPECT_EQ(index.stats().bytes, graph.NumVertices() * kIndexBytesPerVertex);
  ExpectSameAnswer(Solve(graph, *oracle, request, &index), direct);
  EXPECT_EQ(index.stats().hits, 1u);
}

TEST(DecompositionIndexTest, CancelTruncatedSolveLeavesIndexEmpty) {
  const Graph graph = gen::ErdosRenyi(60, 0.15, 0x7EE7);
  DecompositionIndex index(graph);
  std::atomic<bool> cancel{false};
  CancelAfterPeelsOracle cancelling(3, 25, &cancel);
  ExecutionContext ctx = ExecutionContext().WithCancelFlag(&cancel);
  ctx.decompositions = &index;
  PeelApp(graph, cancelling, ctx);
  ASSERT_TRUE(cancel.load());
  EXPECT_EQ(index.stats().misses, 1u);
  EXPECT_EQ(index.stats().bytes, 0u);

  std::unique_ptr<MotifOracle> oracle = MustMakeOracle("triangle", 4);
  const SolveRequest request = IndexedRequest("peel", "triangle", 1);
  ExpectSameAnswer(Solve(graph, *oracle, request, &index),
                   Solve(graph, request));
  EXPECT_EQ(index.stats().misses, 2u);
  EXPECT_EQ(index.stats().bytes, graph.NumVertices() * kIndexBytesPerVertex);
}

TEST(DecompositionIndexTest, TriangleAndThreeCliqueShareOneEntry) {
  const Graph graph = gen::ErdosRenyi(60, 0.12, 0x5EED1);
  DecompositionIndex index(graph);
  std::unique_ptr<MotifOracle> triangle = MustMakeOracle("triangle", 4);
  std::unique_ptr<MotifOracle> clique = MustMakeOracle("3-clique", 1);
  const SolveRequest peel = IndexedRequest("peel", "triangle", 4);
  const SolveRequest exact = IndexedRequest("core-exact", "3-clique", 1);
  ExpectSameAnswer(Solve(graph, *triangle, peel, &index), Solve(graph, peel));
  ExpectSameAnswer(Solve(graph, *clique, exact, &index), Solve(graph, exact));
  EXPECT_EQ(index.stats().misses, 1u);
  EXPECT_EQ(index.stats().hits, 1u);
  EXPECT_EQ(index.stats().bytes, graph.NumVertices() * kIndexBytesPerVertex);
}

TEST(DecompositionIndexTest, IndexOfAnotherGraphIsNeverConsulted) {
  const Graph indexed = gen::ErdosRenyi(60, 0.12, 0x5EED1);
  const Graph other = gen::BarabasiAlbert(70, 3, 0x5EED2);
  DecompositionIndex index(indexed);
  std::unique_ptr<MotifOracle> oracle = MustMakeOracle("triangle", 4);
  const SolveRequest request = IndexedRequest("peel", "triangle", 4);
  ExpectSameAnswer(Solve(other, *oracle, request, &index),
                   Solve(other, request));
  const DecompositionIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

// Oracle that counts the hot calls it answers: Degrees (and how many of
// them covered every vertex of the watched graph), CountInstances and
// PeelBatch.
template <typename Base>
class CountingOracle : public Base {
 public:
  using Base::Base;

  void Watch(const Graph& graph) { watched_ = graph.Generation(); }
  void Reset() {
    degrees_ = 0;
    whole_degrees_ = 0;
    counts_ = 0;
    peel_batches_ = 0;
  }
  uint64_t degrees() const { return degrees_; }
  uint64_t whole_degrees() const { return whole_degrees_; }
  uint64_t counts() const { return counts_; }
  uint64_t peel_batches() const { return peel_batches_; }

  std::vector<uint64_t> PeelBatch(const Graph& graph,
                                  std::span<const VertexId> frontier,
                                  std::span<char> alive, const PeelCallback& cb,
                                  const ExecutionContext& ctx) const override {
    ++peel_batches_;
    return Base::PeelBatch(graph, frontier, alive, cb, ctx);
  }

 protected:
  std::vector<uint64_t> DegreesImpl(const Graph& graph,
                                    std::span<const char> alive,
                                    const ExecutionContext& ctx) const override {
    ++degrees_;
    if (graph.Generation() == watched_ &&
        std::find(alive.begin(), alive.end(), 0) == alive.end()) {
      ++whole_degrees_;
    }
    return Base::DegreesImpl(graph, alive, ctx);
  }
  uint64_t CountInstancesImpl(const Graph& graph, std::span<const char> alive,
                              const ExecutionContext& ctx) const override {
    ++counts_;
    return Base::CountInstancesImpl(graph, alive, ctx);
  }

 private:
  uint64_t watched_ = 0;
  mutable std::atomic<uint64_t> degrees_{0};
  mutable std::atomic<uint64_t> whole_degrees_{0};
  mutable std::atomic<uint64_t> counts_{0};
  mutable std::atomic<uint64_t> peel_batches_{0};
};

// Once `oracle`'s motif is indexed: peel and at-least answers (including
// at-least's whole-graph fallback) make no oracle call at all, a query makes
// no whole-graph Degrees call, and inc-app — which always peels, as the
// paper's sequential baseline — reads its answer's count from its own
// decomposition. Every answer is bit-identical to a direct dsd::Solve.
template <typename Oracle>
void ExpectIndexAnswersWithoutCounting(const Graph& graph, Oracle& oracle,
                                       const std::string& motif) {
  SCOPED_TRACE("motif=" + motif);
  DecompositionIndex index(graph);
  oracle.Watch(graph);
  ASSERT_TRUE(Solve(graph, oracle, IndexedRequest("peel", motif, 1), &index)
                  .ok());
  ASSERT_EQ(index.stats().misses, 1u);
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SolveRequest fallback = IndexedRequest("at-least", motif, threads);
    fallback.min_size = graph.NumVertices() + 1;
    for (const SolveRequest& request :
         {IndexedRequest("peel", motif, threads),
          IndexedRequest("at-least", motif, threads), fallback}) {
      SCOPED_TRACE(request.algorithm + " min_size=" +
                   std::to_string(request.min_size));
      oracle.Reset();
      ExpectSameAnswer(Solve(graph, oracle, request, &index),
                       Solve(graph, request));
      EXPECT_EQ(oracle.degrees(), 0u);
      EXPECT_EQ(oracle.counts(), 0u);
      EXPECT_EQ(oracle.peel_batches(), 0u);
    }

    oracle.Reset();
    const SolveRequest query = IndexedRequest("query", motif, threads);
    ExpectSameAnswer(Solve(graph, oracle, query, &index), Solve(graph, query));
    EXPECT_EQ(oracle.whole_degrees(), 0u);

    oracle.Reset();
    const SolveRequest inc = IndexedRequest("inc-app", motif, threads);
    ExpectSameAnswer(Solve(graph, oracle, inc, &index), Solve(graph, inc));
    EXPECT_EQ(oracle.counts(), 0u);
    EXPECT_EQ(oracle.whole_degrees(), 1u) << "only its own peel's first pass";
  }
  // Every peel, at-least and query solve above was an index hit.
  EXPECT_EQ(index.stats().misses, 1u);
  EXPECT_EQ(index.stats().hits, 2u * 4u);
}

TEST(DecompositionIndexTest, IndexServedAnswersMakeNoMotifCount) {
  for (const SeededGraph& sg : TestGraphs()) {
    SCOPED_TRACE(sg.name + " seed=" + std::to_string(sg.seed));
    CountingOracle<CliqueOracle> triangle(3);
    ExpectIndexAnswersWithoutCounting(sg.graph, triangle, "triangle");
    CountingOracle<PatternOracle> two_star(Pattern::TwoStar());
    ExpectIndexAnswersWithoutCounting(sg.graph, two_star, "2-star");
  }
}

}  // namespace
}  // namespace dsd
