// Tests for the ExecutionContext-aware oracle API: CliqueOracle under a
// multi-thread context must match its ctx.threads = 1 run bit-for-bit for
// every motif size and thread count, and the oracle factory must build the
// right oracle and report honest effective thread counts through
// dsd::Solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <typeinfo>

#include "clique/clique_enumerator.h"
#include "dsd/core_exact.h"
#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/oracle_factory.h"
#include "dsd/solver.h"
#include "graph/generators.h"

namespace dsd {
namespace {

Graph ParityGraph() { return gen::PlantedClique(90, 0.12, 10, 7); }

// Kill every third vertex: exercises the alive-masked query paths.
std::vector<char> ThinnedMask(const Graph& g) {
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 0; v < g.NumVertices(); v += 3) alive[v] = 0;
  return alive;
}

// ---------------------------------------------------------------------------
// ExecutionContext

TEST(ExecutionContextTest, DefaultIsSequentialAndUnbounded) {
  ExecutionContext ctx;
  EXPECT_EQ(ctx.threads, 1u);
  EXPECT_FALSE(ctx.HasDeadline());
  EXPECT_FALSE(ctx.Expired());
  EXPECT_FALSE(ctx.Cancelled());
  EXPECT_FALSE(ctx.ShouldStop());
}

TEST(ExecutionContextTest, WithThreadsNormalisesZero) {
  EXPECT_EQ(ExecutionContext().WithThreads(0).threads, 1u);
  EXPECT_EQ(ExecutionContext().WithThreads(5).threads, 5u);
}

TEST(ExecutionContextTest, DeadlineExpires) {
  ExecutionContext ctx = ExecutionContext().WithDeadlineAfter(-1.0);
  EXPECT_TRUE(ctx.HasDeadline());
  EXPECT_TRUE(ctx.Expired());
  EXPECT_TRUE(ctx.ShouldStop());
  ExecutionContext future = ExecutionContext().WithDeadlineAfter(3600.0);
  EXPECT_TRUE(future.HasDeadline());
  EXPECT_FALSE(future.Expired());
}

TEST(ExecutionContextTest, CancelFlagStops) {
  std::atomic<bool> flag{false};
  ExecutionContext ctx = ExecutionContext().WithCancelFlag(&flag);
  EXPECT_FALSE(ctx.ShouldStop());
  flag.store(true);
  EXPECT_TRUE(ctx.Cancelled());
  EXPECT_TRUE(ctx.ShouldStop());
}

// ---------------------------------------------------------------------------
// CliqueOracle thread parity: Degrees/CountInstances under ctx.threads = t
// must match the ctx.threads = 1 run for every known clique size and
// thread count, with and without an alive mask.

class ParallelOracleParityTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ParallelOracleParityTest, DegreesAndCountsMatchSequential) {
  auto [h, threads] = GetParam();
  Graph g = ParityGraph();
  CliqueOracle oracle(h);
  ExecutionContext ctx;
  ctx.threads = threads == 0 ? std::max(2u, std::thread::hardware_concurrency())
                             : threads;

  EXPECT_EQ(oracle.Degrees(g, {}, ctx), oracle.Degrees(g, {}));
  EXPECT_EQ(oracle.CountInstances(g, {}, ctx), oracle.CountInstances(g, {}));

  std::vector<char> alive = ThinnedMask(g);
  EXPECT_EQ(oracle.Degrees(g, alive, ctx), oracle.Degrees(g, alive));
  EXPECT_EQ(oracle.CountInstances(g, alive, ctx),
            oracle.CountInstances(g, alive));
}

INSTANTIATE_TEST_SUITE_P(
    AllCliqueSizes, ParallelOracleParityTest,
    ::testing::Combine(::testing::Range(2, 10),  // every size ParseMotif knows
                       ::testing::Values(1u, 2u, 4u, 0u)),
    [](const ::testing::TestParamInfo<ParallelOracleParityTest::ParamType>&
           info) {
      return "h" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelOracleTest, SequentialContextFallsBackToBaseOracle) {
  // The default (sequential) context runs the plain kClist loop.
  Graph g = ParityGraph();
  EXPECT_EQ(CliqueOracle(3).Degrees(g, {}), CliqueEnumerator(g, 3).Degrees());
}

TEST(ParallelOracleTest, SolverParityUnderThreads) {
  // End-to-end: CoreExact with a 4-thread context must produce the same
  // subgraph as with the default sequential one.
  Graph g = ParityGraph();
  CliqueOracle oracle(4);
  DensestResult serial = CoreExact(g, oracle);
  DensestResult threaded = CoreExact(g, oracle, CoreExactOptions(),
                                     ExecutionContext().WithThreads(4));
  EXPECT_EQ(serial.vertices, threaded.vertices);
  EXPECT_EQ(serial.instances, threaded.instances);
  EXPECT_DOUBLE_EQ(serial.density, threaded.density);
}

// ---------------------------------------------------------------------------
// OracleFactory / MakeOracle

// Builds `motif` under a 1-thread and an 8-thread budget and expects the
// same oracle class with the same Name() from both: the built-in oracles
// take their thread count from each query's context, not from the build.
void ExpectOneOracleForEveryBudget(const std::string& motif) {
  OracleOptions options;
  options.threads = 1;
  StatusOr<std::unique_ptr<MotifOracle>> sequential =
      MakeOracle(motif, options);
  options.threads = 8;
  StatusOr<std::unique_ptr<MotifOracle>> threaded = MakeOracle(motif, options);
  ASSERT_TRUE(sequential.ok() && threaded.ok()) << motif;
  const MotifOracle& a = *sequential.value();
  const MotifOracle& b = *threaded.value();
  EXPECT_EQ(typeid(a), typeid(b)) << motif;
  EXPECT_EQ(a.Name(), b.Name()) << motif;
  EXPECT_GT(a.MaxUsefulThreads(), 1u) << motif;
}

TEST(OracleFactoryTest, SequentialBudgetBuildsPlainCliqueOracle) {
  OracleOptions options;
  options.threads = 1;
  StatusOr<std::unique_ptr<MotifOracle>> oracle =
      MakeOracle("triangle", options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NE(dynamic_cast<CliqueOracle*>(oracle.value().get()), nullptr);
  ExpectOneOracleForEveryBudget("triangle");
}

TEST(OracleFactoryTest, ThreadBudgetBuildsTheSameCliqueOracle) {
  ExpectOneOracleForEveryBudget("4-clique");
  ExpectOneOracleForEveryBudget("edge");
}

TEST(OracleFactoryTest, CacheOptionWrapsExpensiveMotifsOnly) {
  // OracleOptions::cache is ignored: the factory wraps no motif, cheap or
  // expensive, so each gets its own oracle class and flow-network dispatch
  // sees it.
  OracleOptions options;
  options.cache = true;
  for (const char* motif : {"edge", "triangle"}) {
    StatusOr<std::unique_ptr<MotifOracle>> oracle = MakeOracle(motif, options);
    ASSERT_TRUE(oracle.ok()) << motif;
    const MotifOracle& built = *oracle.value();
    EXPECT_EQ(typeid(built), typeid(CliqueOracle)) << motif;
  }
  StatusOr<std::unique_ptr<MotifOracle>> diamond =
      MakeOracle("diamond", options);
  ASSERT_TRUE(diamond.ok());
  const MotifOracle& pattern = *diamond.value();
  EXPECT_EQ(typeid(pattern), typeid(PatternOracle));
}

TEST(OracleFactoryTest, CachedParallelStackKeepsCliqueIdentity) {
  // A threaded request with cache = true still yields the CliqueOracle
  // itself, so flow-network dispatch picks the clique construction.
  OracleOptions options;
  options.threads = 4;
  options.cache = true;
  StatusOr<std::unique_ptr<MotifOracle>> oracle =
      MakeOracle("4-clique", options);
  ASSERT_TRUE(oracle.ok());
  const MotifOracle& built = *oracle.value();
  EXPECT_EQ(typeid(built), typeid(CliqueOracle));
  EXPECT_EQ(built.Name(), "4-clique");
  EXPECT_GT(built.MaxUsefulThreads(), 1u);
}

TEST(OracleFactoryTest, ThreadBudgetBuildsTheSamePatternOracle) {
  for (const char* motif : {"diamond", "3-star", "basket"}) {
    ExpectOneOracleForEveryBudget(motif);
  }
  OracleOptions options;
  options.threads = 8;
  StatusOr<std::unique_ptr<MotifOracle>> oracle =
      MakeOracle("diamond", options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NE(dynamic_cast<PatternOracle*>(oracle.value().get()), nullptr);
}

TEST(OracleFactoryTest, NamesMatchKnownMotifNames) {
  EXPECT_EQ(OracleFactory::Global().Names(), KnownMotifNames());
}

TEST(OracleFactoryTest, RegisterRejectsDuplicatesAndEmpty) {
  OracleFactory factory;
  Status ok = factory.Register(
      "custom", [](const OracleOptions&) -> std::unique_ptr<MotifOracle> {
        return std::make_unique<CliqueOracle>(3);
      });
  EXPECT_TRUE(ok.ok());
  Status duplicate = factory.Register(
      "custom", [](const OracleOptions&) -> std::unique_ptr<MotifOracle> {
        return std::make_unique<CliqueOracle>(3);
      });
  EXPECT_TRUE(duplicate.IsInvalidArgument());
  EXPECT_TRUE(factory.Register("", nullptr).IsInvalidArgument());
  StatusOr<std::unique_ptr<MotifOracle>> made = factory.Make("custom");
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(made.value()->MotifSize(), 3);
  EXPECT_TRUE(factory.Make("other").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// dsd::Solve integration: effective thread accounting and deadlines.

TEST(SolveThreadsTest, ParallelAlgorithmsReportTheBudget) {
  Graph g = ParityGraph();
  for (const char* algo : {"exact", "core-exact", "peel", "core-app"}) {
    SolveRequest request;
    request.algorithm = algo;
    request.motif = "triangle";
    request.threads = 4;
    StatusOr<SolveResponse> solved = Solve(g, request);
    ASSERT_TRUE(solved.ok()) << algo << ": " << solved.status().ToString();
    EXPECT_EQ(solved.value().stats.threads, 4u) << algo;
  }
}

TEST(SolveThreadsTest, SequentialAlgorithmsReportOne) {
  Graph g = ParityGraph();
  for (const char* algo : {"stream", "inc-app"}) {
    SolveRequest request;
    request.algorithm = algo;
    request.motif = "triangle";
    request.threads = 4;
    StatusOr<SolveResponse> solved = Solve(g, request);
    ASSERT_TRUE(solved.ok()) << algo << ": " << solved.status().ToString();
    EXPECT_EQ(solved.value().stats.threads, 1u) << algo;
  }
}

TEST(SolveThreadsTest, PatternMotifsSpendTheBudget) {
  // Star and cycle motifs now have parallel kernels: the effective thread
  // count reported for them must be the full budget, not 1.
  Graph g = ParityGraph();
  for (const char* motif : {"2-star", "3-star", "diamond", "c3-star"}) {
    SolveRequest request;
    request.algorithm = "peel";
    request.threads = 4;
    request.motif = motif;
    StatusOr<SolveResponse> solved = Solve(g, request);
    ASSERT_TRUE(solved.ok()) << motif;
    EXPECT_EQ(solved.value().stats.threads, 4u) << motif;
  }
}

// A plugged-in triangle oracle that keeps MotifOracle's default
// MaxUsefulThreads() of 1: it forwards every query to a CliqueOracle on
// the default (sequential) context.
class SequentialTriangleOracle : public MotifOracle {
 public:
  int MotifSize() const override { return 3; }
  std::string Name() const override { return "sequential-triangle"; }
  uint64_t PeelVertex(const Graph& graph, VertexId v,
                      std::span<const char> alive,
                      const PeelCallback& cb) const override {
    return inner_.PeelVertex(graph, v, alive, cb);
  }
  std::vector<InstanceGroup> Groups(
      const Graph& graph, std::span<const char> alive) const override {
    return inner_.Groups(graph, alive);
  }
  std::vector<uint64_t> CoreNumberUpperBounds(
      const Graph& graph) const override {
    return inner_.CoreNumberUpperBounds(graph);
  }

 protected:
  std::vector<uint64_t> DegreesImpl(const Graph& graph,
                                    std::span<const char> alive,
                                    const ExecutionContext&) const override {
    return inner_.Degrees(graph, alive);
  }
  uint64_t CountInstancesImpl(const Graph& graph, std::span<const char> alive,
                              const ExecutionContext&) const override {
    return inner_.CountInstances(graph, alive);
  }

 private:
  CliqueOracle inner_{3};
};

TEST(SolveThreadsTest, SequentialOracleClampsToOne) {
  // A caller-supplied sequential oracle clamps the effective count: the
  // budget is only reported where it can actually be spent.
  Graph g = ParityGraph();
  SolveRequest request;
  request.algorithm = "peel";
  request.threads = 4;
  SequentialTriangleOracle oracle;
  request.motif = "ignored";
  StatusOr<SolveResponse> solved = Solve(g, oracle, request);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved.value().stats.threads, 1u);
}

TEST(SolveThreadsTest, CallerSuppliedCliqueOracleSpendsTheBudget) {
  // The built-in oracles have no sequential twin any more: a plain
  // CliqueOracle handed to Solve reports (and spends) the whole budget,
  // with the same answer as a sequential solve.
  Graph g = ParityGraph();
  SolveRequest request;
  request.algorithm = "peel";
  request.motif = "ignored";
  request.threads = 4;
  CliqueOracle oracle(3);
  StatusOr<SolveResponse> threaded = Solve(g, oracle, request);
  request.threads = 1;
  StatusOr<SolveResponse> serial = Solve(g, oracle, request);
  ASSERT_TRUE(threaded.ok() && serial.ok());
  EXPECT_EQ(threaded.value().stats.threads, 4u);
  EXPECT_EQ(serial.value().stats.threads, 1u);
  EXPECT_EQ(threaded.value().result.vertices, serial.value().result.vertices);
  EXPECT_DOUBLE_EQ(threaded.value().result.density,
                   serial.value().result.density);
}

TEST(SolveThreadsTest, ThreadedSolveMatchesSequentialSolve) {
  Graph g = ParityGraph();
  for (const char* algo : {"exact", "core-exact", "peel", "core-app"}) {
    SolveRequest request;
    request.algorithm = algo;
    request.motif = "4-clique";
    request.threads = 1;
    StatusOr<SolveResponse> serial = Solve(g, request);
    request.threads = 4;
    StatusOr<SolveResponse> threaded = Solve(g, request);
    ASSERT_TRUE(serial.ok() && threaded.ok()) << algo;
    EXPECT_EQ(serial.value().result.vertices, threaded.value().result.vertices)
        << algo;
    EXPECT_EQ(serial.value().result.instances,
              threaded.value().result.instances)
        << algo;
    EXPECT_DOUBLE_EQ(serial.value().result.density,
                     threaded.value().result.density)
        << algo;
  }
}

TEST(SolveThreadsTest, AbsurdThreadBudgetIsInvalidArgument) {
  // The budget spawns real OS threads; Solve must reject resource-
  // exhaustion requests with a Status instead of letting std::thread throw.
  Graph g = ParityGraph();
  SolveRequest request;
  request.algorithm = "peel";
  request.motif = "triangle";
  request.threads = SolveRequest::kMaxThreadBudget + 1;
  Status status = Solve(g, request).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  request.threads = SolveRequest::kMaxThreadBudget;  // the cap itself is fine
  EXPECT_TRUE(Solve(g, request).ok());
}

TEST(SolveThreadsTest, TinyTimeBudgetIsDeadlineExceeded) {
  // The deadline fires cooperatively inside the run; either way the response
  // must be DeadlineExceeded, never a silently truncated answer.
  Graph g = gen::PlantedClique(400, 0.05, 12, 3);
  SolveRequest request;
  request.algorithm = "exact";
  request.motif = "4-clique";
  request.time_budget_seconds = 1e-6;
  Status status = Solve(g, request).status();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
}

}  // namespace
}  // namespace dsd
