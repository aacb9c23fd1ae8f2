// Tests for the Section 6.3 parallel paths: threaded clique and pattern
// counting (CliqueEnumerator / PatternMatcher at threads > 1), the frontier
// peel kernels and parallel core decomposition must agree bit-for-bit with
// the sequential (threads = 1) code for every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "clique/clique_enumerator.h"
#include "core/nucleus.h"
#include "dsd/motif_core.h"
#include "dsd/motif_oracle.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "parallel/delta_accumulator.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_peel.h"
#include "pattern/isomorphism.h"
#include "pattern/special.h"

namespace dsd {
namespace {

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<uint32_t>> hits(101);
    for (auto& h : hits) h = 0;
    ParallelForStrided(101, threads,
                       [&](unsigned, uint64_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "i=" << i << " t=" << threads;
    }
  }
}

TEST(ParallelFor, ZeroAndOneElement) {
  int calls = 0;
  ParallelForStrided(0, 4, [&](unsigned, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelForStrided(1, 4, [&](unsigned, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ResolveThreadCountTest, AutoAndExplicit) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(3), 3u);
}

TEST(ResolveThreadCountTest, ClampsByWorkItems) {
  // The 2-arg overload is what the kernels size per-worker scratch and
  // accumulators by: a tiny root space must clamp a huge budget.
  EXPECT_EQ(ResolveThreadCount(64, 3), 3u);
  EXPECT_EQ(ResolveThreadCount(2, 1000), 2u);
  EXPECT_EQ(ResolveThreadCount(64, 0), 1u);  // zero work still a valid count
  EXPECT_LE(ResolveThreadCount(0, 5), 5u);   // auto clamps too
}

TEST(ParallelFor, TinyRangeSpawnsNoIdleWorkers) {
  // Regression for the pattern-workload clamp: with 3 root vertices and a
  // 64-thread budget, only worker indices < ResolveThreadCount(64, 3) == 3
  // may ever appear — extra spawned-and-idle workers would surface here as
  // larger indices.
  std::mutex mutex;
  std::set<unsigned> workers_seen;
  ParallelForStrided(3, 64, [&](unsigned worker, uint64_t) {
    std::lock_guard<std::mutex> lock(mutex);
    workers_seen.insert(worker);
  });
  ASSERT_FALSE(workers_seen.empty());
  EXPECT_LT(*workers_seen.rbegin(), ResolveThreadCount(64, 3));
}

TEST(ParallelFor, BackToBackCallsCoverEveryIndexOnce) {
  // The workers persist between calls: every call must still hand each
  // index to exactly one worker, with nothing left over from the call
  // before.
  std::vector<std::atomic<uint32_t>> hits(64);
  for (int call = 0; call < 1200; ++call) {
    const uint64_t n = 1 + static_cast<uint64_t>(call) % hits.size();
    for (auto& h : hits) h = 0;
    ParallelForStrided(n, 1 + call % 4,
                       [&](unsigned, uint64_t i) { ++hits[i]; });
    for (uint64_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), i < n ? 1u : 0u)
          << "call=" << call << " i=" << i;
    }
  }
}

TEST(ParallelFor, ConcurrentCallersStayWithinTheirBudgets) {
  // Two callers (server lanes on different grants) each see only worker
  // indices below their own t, and each covers its own range.
  std::atomic<bool> failed{false};
  auto caller = [&failed](unsigned t) {
    for (int call = 0; call < 300; ++call) {
      std::vector<std::atomic<uint32_t>> hits(50);
      for (auto& h : hits) h = 0;
      ParallelForStrided(hits.size(), t, [&](unsigned worker, uint64_t i) {
        if (worker >= t) failed = true;
        ++hits[i];
      });
      for (auto& h : hits) {
        if (h.load() != 1) failed = true;
      }
    }
  };
  std::thread two(caller, 2u);
  std::thread four(caller, 4u);
  two.join();
  four.join();
  EXPECT_FALSE(failed.load());
}

TEST(ParallelFor, LargerThreadCountAfterSmallerOne) {
  // A call may need more helpers than the caller has parked so far.
  for (unsigned t : {2u, 5u, 3u, 7u}) {
    std::mutex mutex;
    std::set<unsigned> workers_seen;
    ParallelForStrided(100, t, [&](unsigned worker, uint64_t) {
      std::lock_guard<std::mutex> lock(mutex);
      workers_seen.insert(worker);
    });
    // n >= t, so worker w gets at least index w.
    EXPECT_EQ(workers_seen.size(), t);
    EXPECT_EQ(*workers_seen.rbegin(), t - 1);
  }
}

TEST(ParallelFor, ExceptionReachesTheCaller) {
  // Whichever worker throws, the caller sees the exception after every
  // worker has stopped, and the workers serve the next call.
  for (uint64_t bad : {0u, 1u, 2u, 3u}) {
    EXPECT_THROW(ParallelForStrided(4, 4,
                                    [bad](unsigned, uint64_t i) {
                                      if (i == bad) {
                                        throw std::runtime_error("bad");
                                      }
                                    }),
                 std::runtime_error);
  }
  std::atomic<uint32_t> calls{0};
  ParallelForStrided(40, 4, [&](unsigned, uint64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 40u);
}

TEST(ParallelFor, OneThreadAndNestedCallsRunInline) {
  const std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  ParallelForStrided(20, 1, [&](unsigned worker, uint64_t) {
    all_inline = all_inline && worker == 0 &&
                 std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(all_inline);
  // A call from inside a loop body runs its workers on the body's thread.
  std::atomic<bool> nested_inline{true};
  ParallelForStrided(4, 4, [&](unsigned, uint64_t) {
    const std::thread::id body = std::this_thread::get_id();
    ParallelForStrided(8, 4, [&](unsigned worker, uint64_t) {
      if (worker >= 4 || std::this_thread::get_id() != body) {
        nested_inline = false;
      }
    });
  });
  EXPECT_TRUE(nested_inline.load());
}

// DeltaAccumulator's parallel path, raced by the TSan job (unit label):
// each worker adds to more distinct indices than its 512 cache slots hold,
// so slots evict into the shared array mid-loop, and every worker also hits
// one hub index. Weights cycle through 0..3, so zero adds are mixed in, and
// one index receives zero adds only.
constexpr uint64_t kAccSize = 5000;
constexpr uint64_t kAccHub = 17;
constexpr uint64_t kAccZeroOnly = kAccSize - 1;
constexpr uint64_t kAccSteps = 3000;

uint64_t AccIndex(unsigned w, uint64_t i) {
  return (i * 7919 + w * 131) % kAccZeroOnly;
}
uint64_t AccWeight(unsigned w, uint64_t i) { return (i * 3 + w) % 4; }

void AccAddAll(DeltaAccumulator& acc, unsigned workers) {
  ParallelForStrided(workers, workers, [&](unsigned w, uint64_t) {
    for (uint64_t i = 0; i < kAccSteps; ++i) {
      acc.Add(w, AccIndex(w, i), AccWeight(w, i));
      acc.Add(w, kAccHub);
      acc.Add(w, kAccZeroOnly, 0);
    }
  });
}

std::vector<uint64_t> AccSerialSums(unsigned workers) {
  std::vector<uint64_t> sums(kAccSize, 0);
  for (unsigned w = 0; w < workers; ++w) {
    for (uint64_t i = 0; i < kAccSteps; ++i) {
      sums[AccIndex(w, i)] += AccWeight(w, i);
      ++sums[kAccHub];
    }
  }
  return sums;
}

TEST(DeltaAccumulator, FinishEqualsSerialSums) {
  DeltaAccumulator acc(kAccSize, 16);
  AccAddAll(acc, 16);
  const std::vector<uint64_t> totals = std::move(acc).Finish();
  EXPECT_EQ(totals, AccSerialSums(16));
  EXPECT_EQ(totals[kAccZeroOnly], 0u);
}

TEST(DeltaAccumulator, DrainReportsEachTouchedIndexOnceAndZeroes) {
  DeltaAccumulator acc;
  for (unsigned workers : {2u, 8u, 4u}) {
    acc.Reset(kAccSize, workers);
    AccAddAll(acc, workers);
    std::map<uint64_t, uint64_t> expected;
    const std::vector<uint64_t> sums = AccSerialSums(workers);
    for (uint64_t i = 0; i < kAccSize; ++i) {
      if (sums[i] != 0) expected[i] = sums[i];
    }
    std::map<uint64_t, uint64_t> reported;
    acc.Drain([&](uint64_t index, uint64_t total) {
      EXPECT_TRUE(reported.emplace(index, total).second)
          << "index " << index << " reported twice, workers=" << workers;
    });
    EXPECT_EQ(reported, expected) << "workers=" << workers;
    EXPECT_EQ(reported.count(kAccZeroOnly), 0u);
  }
  // Every counter is zero again: one unit add per index reads back 1.
  acc.Reset(kAccSize, 1);
  for (uint64_t i = 0; i < kAccSize; ++i) acc.Add(0, i);
  uint64_t reported = 0;
  acc.Drain([&](uint64_t index, uint64_t total) {
    EXPECT_EQ(total, 1u) << "index " << index;
    ++reported;
  });
  EXPECT_EQ(reported, kAccSize);
}

class ParallelCliqueTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ParallelCliqueTest, CountMatchesSerial) {
  auto [h, threads] = GetParam();
  Graph g = gen::ErdosRenyi(80, 0.15, 42);
  EXPECT_EQ(CliqueEnumerator(g, h).Count(threads),
            CliqueEnumerator(g, h).Count());
}

TEST_P(ParallelCliqueTest, DegreesMatchSerial) {
  auto [h, threads] = GetParam();
  Graph g = gen::PlantedClique(120, 0.06, 9, 7);
  EXPECT_EQ(CliqueEnumerator(g, h).Degrees(threads),
            CliqueEnumerator(g, h).Degrees());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelCliqueTest,
                         ::testing::Combine(::testing::Range(2, 6),
                                            ::testing::Values(1u, 2u, 4u,
                                                              0u)));

class ParallelCliqueHubTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ParallelCliqueHubTest, DegreesAndCountMatchSerial) {
  // Hub-heavy: a few roots own most of the work, and every worker reuses
  // its one scratch across thousands of roots of very different depths.
  auto [h, threads] = GetParam();
  static const Graph g =
      gen::PowerLawWithCommunities(3000, 3, 20, 12, 0.9, 2024);
  const CliqueEnumerator enumerator(g, h);
  EXPECT_EQ(enumerator.Degrees(threads), enumerator.Degrees());
  EXPECT_EQ(enumerator.Count(threads), enumerator.Count());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelCliqueHubTest,
                         ::testing::Combine(::testing::Values(3, 4, 5),
                                            ::testing::Values(1u, 2u, 4u,
                                                              8u)));

// Count and Degrees search with each thread's own scratch (the caller's
// and the pool helpers'), which grows to the largest enumerator the thread
// has run and is then reused. Graphs of small, large and again small
// degeneracy (the per-depth slot size) run back to back on the same
// threads; each answer must equal what a fresh thread's Enumerate lists.
class ParallelCliqueScratchTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ParallelCliqueScratchTest, BackToBackGraphsMatchAFreshThread) {
  auto [h, threads] = GetParam();
  static const Graph small = gen::ErdosRenyi(80, 0.08, 5);
  static const Graph large =
      gen::PowerLawWithCommunities(3000, 3, 20, 12, 0.9, 2024);
  struct Expected {
    uint64_t count = 0;
    std::vector<uint64_t> degrees;
  };
  auto fresh = [h](const Graph& g) {
    Expected e;
    e.degrees.assign(g.NumVertices(), 0);
    std::thread([&] {
      CliqueEnumerator(g, h).Enumerate([&](std::span<const VertexId> clique) {
        ++e.count;
        for (VertexId v : clique) ++e.degrees[v];
      });
    }).join();
    return e;
  };
  const Expected small_expected = fresh(small);
  const Expected large_expected = fresh(large);
  ASSERT_GT(large_expected.count, small_expected.count);
  for (const Graph* g : {&small, &large, &small}) {
    const Expected& expected = g == &small ? small_expected : large_expected;
    const CliqueEnumerator enumerator(*g, h);
    EXPECT_EQ(enumerator.Count(threads), expected.count);
    EXPECT_EQ(enumerator.Degrees(threads), expected.degrees);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelCliqueScratchTest,
                         ::testing::Combine(::testing::Values(3, 4, 5),
                                            ::testing::Values(1u, 2u, 4u,
                                                              0u)));

TEST(ParallelCliqueEdgeCases, EmptyIsolatedSingletonAndTooDeep) {
  for (unsigned threads : {1u, 4u}) {
    const Graph empty;
    for (int h : {1, 3}) {
      EXPECT_EQ(CliqueEnumerator(empty, h).Count(), 0u);
      EXPECT_TRUE(CliqueEnumerator(empty, h).Degrees().empty());
      EXPECT_EQ(CliqueEnumerator(empty, h).Count(threads), 0u);
      EXPECT_TRUE(CliqueEnumerator(empty, h).Degrees(threads).empty());
    }

    // A triangle plus isolated vertices 3..5.
    GraphBuilder b;
    b.AddEdge(0, 1);
    b.AddEdge(1, 2);
    b.AddEdge(0, 2);
    b.EnsureVertices(6);
    const Graph g = b.Build();
    ASSERT_EQ(g.NumVertices(), 6u);
    // h = 1 lists every vertex once, isolated ones included.
    EXPECT_EQ(CliqueEnumerator(g, 1).Count(), 6u);
    EXPECT_EQ(CliqueEnumerator(g, 1).Count(threads), 6u);
    EXPECT_EQ(CliqueEnumerator(g, 1).Degrees(threads),
              std::vector<uint64_t>(6, 1));
    EXPECT_EQ(CliqueEnumerator(g, 3).Degrees(threads),
              (std::vector<uint64_t>{1, 1, 1, 0, 0, 0}));
    // The degeneracy is 2, so no clique has more than 3 vertices.
    for (int h : {4, 5}) {
      EXPECT_EQ(CliqueEnumerator(g, h).Count(), 0u) << h;
      EXPECT_EQ(CliqueEnumerator(g, h).Count(threads), 0u) << h;
      EXPECT_EQ(CliqueEnumerator(g, h).Degrees(threads),
                std::vector<uint64_t>(6, 0))
          << h;
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel pattern kernels: per-root sharding of the embedding enumerator
// and the parallel appendix-D closed forms, vs their sequential pattern/
// counterparts.

class ParallelPatternTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPatternTest, GenericDegreesAndCountMatchSequential) {
  const unsigned threads = GetParam();
  Graph g = gen::ErdosRenyi(70, 0.12, 99);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 0; v < g.NumVertices(); v += 4) alive[v] = 0;
  for (const Pattern& pattern :
       {Pattern::C3Star(), Pattern::TwoTriangle(), Pattern::Cycle(5)}) {
    PatternMatcher enumerator(g, pattern);
    EXPECT_EQ(enumerator.Degrees({}, threads), enumerator.Degrees({}))
        << pattern.name();
    EXPECT_EQ(enumerator.Degrees(alive, threads), enumerator.Degrees(alive))
        << pattern.name();
    EXPECT_EQ(enumerator.CountInstances(alive, threads),
              enumerator.CountInstances(alive))
        << pattern.name();
  }
}

TEST_P(ParallelPatternTest, SpecialKernelsMatchGenericEngine) {
  // The appendix-D closed forms at each thread count against the plan-
  // compiled engine, an independent implementation of the same degrees.
  const unsigned threads = GetParam();
  Graph g = gen::BarabasiAlbert(120, 4, 21);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 1; v < g.NumVertices(); v += 5) alive[v] = 0;
  for (int x : {2, 3, 4}) {
    PatternMatcher star(g, Pattern::Star(x));
    EXPECT_EQ(StarDegrees(g, x, alive, threads), star.Degrees(alive))
        << "x=" << x;
    EXPECT_EQ(StarCount(g, x, alive, threads), star.CountInstances(alive))
        << "x=" << x;
  }
  PatternMatcher cycle(g, Pattern::Cycle(4));
  EXPECT_EQ(FourCycleDegrees(g, alive, threads), cycle.Degrees(alive));
  EXPECT_EQ(FourCycleCount(g, alive, threads), cycle.CountInstances(alive));
  EXPECT_EQ(FourCycleCount(g, {}, threads), cycle.CountInstances({}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelPatternTest,
                         ::testing::Values(1u, 2u, 4u, 0u));

TEST(ParallelPatternStress, ManySmallShardsUnderOversubscription) {
  // High-contention case for the TSan job (this suite carries the `unit`
  // label CI's TSan run selects): far more workers than cores, tiny
  // per-root shards, every worker funnelling increments through the
  // shared atomic accumulator and its own enumerator scratch at once.
  Graph g = gen::PowerLawWithCommunities(600, 3, 12, 8, 0.8, 0xC0FFEE);
  const Pattern pattern = Pattern::C3Star();
  PatternMatcher enumerator(g, pattern);
  const std::vector<uint64_t> expected_degrees = enumerator.Degrees({});
  const uint64_t expected_count = enumerator.CountInstances({});
  for (unsigned threads : {16u, 32u}) {
    EXPECT_EQ(enumerator.Degrees({}, threads), expected_degrees) << threads;
    EXPECT_EQ(enumerator.CountInstances({}, threads), expected_count)
        << threads;
    EXPECT_EQ(CliqueEnumerator(g, 3).Degrees(threads),
              CliqueEnumerator(g, 3).Degrees())
        << threads;
  }
}

// ---------------------------------------------------------------------------
// Frontier peel kernels (parallel/parallel_peel.h): each batch must equal
// looping PeelVertex over the frontier in order — destroyed counts per rank,
// survivor deltas, and the cleared alive bits.

struct BatchResult {
  std::vector<uint64_t> destroyed;
  std::map<VertexId, uint64_t> survivor_deltas;
  std::vector<char> alive_after;
};

// Runs `peel` (a PeelBatch-shaped callable) on a copy of `alive` and keeps
// only the deltas of vertices still alive afterwards — the part of the
// callback output the engine consumes and the contract guarantees.
template <typename Peel>
BatchResult RunBatch(const std::vector<VertexId>& frontier,
                     const std::vector<char>& alive, Peel&& peel) {
  BatchResult result;
  result.alive_after = alive;
  std::map<VertexId, uint64_t> deltas;
  result.destroyed =
      peel(frontier, result.alive_after, [&](VertexId u, uint64_t count) {
        deltas[u] += count;
      });
  for (const auto& [u, count] : deltas) {
    if (result.alive_after[u]) result.survivor_deltas[u] = count;
  }
  return result;
}

// Every 3rd alive vertex, ascending — an arbitrary but canonical frontier
// (PeelBatch's contract is order-based, not bracket-based).
std::vector<VertexId> SampleFrontier(const std::vector<char>& alive) {
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < alive.size(); ++v) {
    if (alive[v] && v % 3 == 0) frontier.push_back(v);
  }
  return frontier;
}

TEST(WorthParallelPeelTest, FloorAndRatio) {
  EXPECT_FALSE(WorthParallelPeel(7, 10));  // below the absolute floor
  EXPECT_TRUE(WorthParallelPeel(8, 100));  // small graph: the floor rules
  // A tiny bracket of a huge graph must stay sequential — the kernels'
  // O(n) per-call setup would dwarf the members' peel work.
  EXPECT_FALSE(WorthParallelPeel(100, 1000000));
  EXPECT_TRUE(WorthParallelPeel(4096, 1000000));
}

TEST(WorthParallelPeelTest, GenericBracketsTakeTheKernelAtAnySize) {
  // The generic kernel costs a bracket only O(bracket) and wakes the other
  // workers only for brackets with the work for it, so a multi-threaded
  // PatternOracle sends every generic bracket to it: no floor and
  // no bracket-to-graph ratio. Here one member of a 200k-vertex graph. The
  // kernel is visible in how the callback fires: once per survivor with
  // the summed delta, where the sequential loop reports per instance.
  GraphBuilder b(200000);
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) b.AddEdge(u, v);
  }
  const Graph g = b.Build();
  const std::vector<VertexId> frontier = {0};
  auto peel = [&](const MotifOracle& oracle, unsigned threads) {
    std::vector<char> alive(g.NumVertices(), 1);
    std::map<VertexId, std::pair<uint64_t, int>> reports;  // sum, calls
    ExecutionContext ctx;
    ctx.threads = threads;
    const std::vector<uint64_t> destroyed = oracle.PeelBatch(
        g, frontier, {alive.data(), alive.size()},
        [&](VertexId u, uint64_t count) {
          reports[u].first += count;
          ++reports[u].second;
        },
        ctx);
    return std::make_pair(destroyed, reports);
  };
  const auto [sequential, seq_reports] =
      peel(PatternOracle(Pattern::C3Star()), 1);
  const auto [parallel, par_reports] =
      peel(PatternOracle(Pattern::C3Star()), 4);
  EXPECT_EQ(parallel, sequential);
  ASSERT_EQ(par_reports.size(), seq_reports.size());
  bool sequential_repeats = false;
  for (const auto& [u, report] : seq_reports) {
    sequential_repeats = sequential_repeats || report.second > 1;
    EXPECT_EQ(par_reports.at(u).first, report.first) << u;
    EXPECT_EQ(par_reports.at(u).second, 1) << u;
  }
  EXPECT_TRUE(sequential_repeats);
}

class ParallelPeelBatchTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPeelBatchTest, CliqueBatchMatchesSequentialLoop) {
  const unsigned threads = GetParam();
  Graph g = gen::PlantedClique(90, 0.08, 8, 5);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 1; v < g.NumVertices(); v += 7) alive[v] = 0;
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ASSERT_GE(frontier.size(), kMinParallelPeelFrontier);
  for (int h : {2, 3, 4}) {
    CliqueOracle oracle(h);
    BatchResult sequential = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                  ExecutionContext());
        });
    ExecutionContext ctx;
    ctx.threads = threads == 0 ? 8 : threads;
    BatchResult parallel = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return ParallelCliquePeelBatch(g, h, f, {mask.data(), mask.size()},
                                         cb, ctx);
        });
    EXPECT_EQ(parallel.destroyed, sequential.destroyed) << "h=" << h;
    EXPECT_EQ(parallel.survivor_deltas, sequential.survivor_deltas)
        << "h=" << h;
    EXPECT_EQ(parallel.alive_after, sequential.alive_after) << "h=" << h;
  }
}

TEST_P(ParallelPeelBatchTest, StarBatchMatchesSequentialLoop) {
  const unsigned threads = GetParam();
  Graph g = gen::BarabasiAlbert(100, 4, 11);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 2; v < g.NumVertices(); v += 9) alive[v] = 0;
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ASSERT_GE(frontier.size(), kMinParallelPeelFrontier);
  for (int x : {2, 3, 4}) {
    // The generic engine's loop is the reference: the closed-form loop
    // shares the peel body under test.
    PatternOracle oracle(Pattern::Star(x), /*use_special_kernels=*/false);
    BatchResult sequential = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                  ExecutionContext());
        });
    ExecutionContext ctx;
    ctx.threads = threads == 0 ? 8 : threads;
    BatchResult parallel = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return ParallelStarPeelBatch(g, x, f, {mask.data(), mask.size()},
                                       cb, ctx);
        });
    EXPECT_EQ(parallel.destroyed, sequential.destroyed) << "x=" << x;
    EXPECT_EQ(parallel.survivor_deltas, sequential.survivor_deltas)
        << "x=" << x;
    EXPECT_EQ(parallel.alive_after, sequential.alive_after) << "x=" << x;
  }
}

TEST_P(ParallelPeelBatchTest, FourCycleBatchMatchesSequentialLoop) {
  const unsigned threads = GetParam();
  Graph g = gen::ErdosRenyi(80, 0.12, 23);
  std::vector<char> alive(g.NumVertices(), 1);
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ASSERT_GE(frontier.size(), kMinParallelPeelFrontier);
  PatternOracle oracle(Pattern::Cycle(4), /*use_special_kernels=*/false);
  BatchResult sequential = RunBatch(
      frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
        return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                ExecutionContext());
      });
  ExecutionContext ctx;
  ctx.threads = threads == 0 ? 8 : threads;
  BatchResult parallel = RunBatch(
      frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
        return ParallelFourCyclePeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                          ctx);
      });
  EXPECT_EQ(parallel.destroyed, sequential.destroyed);
  EXPECT_EQ(parallel.survivor_deltas, sequential.survivor_deltas);
  EXPECT_EQ(parallel.alive_after, sequential.alive_after);
}

TEST_P(ParallelPeelBatchTest, GenericPatternBatchMatchesSequentialLoop) {
  const unsigned threads = GetParam();
  Graph g = gen::ErdosRenyi(70, 0.12, 47);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 1; v < g.NumVertices(); v += 8) alive[v] = 0;
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ASSERT_GE(frontier.size(), kMinParallelPeelFrontier);
  for (const Pattern& pattern :
       {Pattern::C3Star(), Pattern::TwoTriangle(), Pattern::Basket()}) {
    PatternOracle oracle(pattern);
    BatchResult sequential = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                  ExecutionContext());
        });
    ExecutionContext ctx;
    ctx.threads = threads == 0 ? 8 : threads;
    const PatternPlanSet plans(pattern);
    BatchResult parallel = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return ParallelPatternPeelBatch(g, plans, f,
                                          {mask.data(), mask.size()}, cb, ctx);
        });
    EXPECT_EQ(parallel.destroyed, sequential.destroyed) << pattern.name();
    EXPECT_EQ(parallel.survivor_deltas, sequential.survivor_deltas)
        << pattern.name();
    EXPECT_EQ(parallel.alive_after, sequential.alive_after) << pattern.name();
  }
}

TEST_P(ParallelPeelBatchTest, GenericTinyBracketMatchesSequentialLoop) {
  // The dense-tail shape: brackets of one or two members that sit next to
  // hubs, which the generic kernel splits into (position, slice) parts.
  // A Barabasi-Albert backbone gives the hubs, a planted community the
  // dense tail.
  const unsigned threads = GetParam();
  const Graph g = gen::PowerLawWithCommunities(400, 3, 1, 14, 0.9, 0x7A11);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 5; v < g.NumVertices(); v += 11) alive[v] = 0;
  VertexId hub = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > g.Degree(hub)) hub = v;
  }
  std::vector<VertexId> next_to_hub;
  for (VertexId u : g.Neighbors(hub)) {
    if (alive[u]) next_to_hub.push_back(u);
  }
  ASSERT_GE(next_to_hub.size(), 3u);
  const std::vector<std::vector<VertexId>> frontiers = {
      {hub}, {next_to_hub[0]}, {next_to_hub[1], next_to_hub[2]},
      {std::min(hub, next_to_hub[0]), std::max(hub, next_to_hub[0])}};
  ExecutionContext ctx;
  ctx.threads = threads == 0 ? 8 : threads;
  for (const Pattern& pattern :
       {Pattern::Basket(), Pattern::C3Star(), Pattern::TwoTriangle()}) {
    const PatternOracle oracle(pattern);
    const PatternPlanSet plans(pattern);
    for (const std::vector<VertexId>& frontier : frontiers) {
      BatchResult sequential = RunBatch(
          frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
            return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                    ExecutionContext());
          });
      BatchResult parallel = RunBatch(
          frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
            return ParallelPatternPeelBatch(
                g, plans, f, {mask.data(), mask.size()}, cb, ctx);
          });
      EXPECT_EQ(parallel.destroyed, sequential.destroyed) << pattern.name();
      EXPECT_EQ(parallel.survivor_deltas, sequential.survivor_deltas)
          << pattern.name();
      EXPECT_EQ(parallel.alive_after, sequential.alive_after)
          << pattern.name();
      // An expired deadline stops before the first member: no member's
      // parts run, so nothing is destroyed, cleared or reported.
      BatchResult expired = RunBatch(
          frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
            return ParallelPatternPeelBatch(g, plans, f,
                                            {mask.data(), mask.size()}, cb,
                                            ctx.WithDeadlineAfter(-1.0));
          });
      EXPECT_TRUE(expired.destroyed.empty()) << pattern.name();
      EXPECT_TRUE(expired.survivor_deltas.empty()) << pattern.name();
      EXPECT_EQ(expired.alive_after, alive) << pattern.name();
    }
  }
}

TEST_P(ParallelPeelBatchTest, GenericDeadlineCutsOnAMemberPrefix) {
  // Whatever prefix a deadline leaves (the kernel polls between chunks of
  // whole members), the result must be the sequential loop's over exactly
  // that prefix: a member's parts are never split across the cut. The
  // kernel ranks the whole bracket up front, so it reports no deltas to
  // the unpeeled suffix (the engine stops there anyway); the comparison
  // covers the vertices outside the bracket.
  const unsigned threads = GetParam();
  const Graph g = gen::PowerLawWithCommunities(1500, 3, 4, 12, 0.9, 0xC07);
  const std::vector<char> alive(g.NumVertices(), 1);
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < g.NumVertices(); v += 2) frontier.push_back(v);
  const PatternOracle oracle(Pattern::TwoTriangle());
  const PatternPlanSet plans(Pattern::TwoTriangle());
  ExecutionContext ctx;
  ctx.threads = threads == 0 ? 8 : threads;
  for (double seconds : {2e-4, 1e-3, 5e-3}) {
    BatchResult cut = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return ParallelPatternPeelBatch(g, plans, f,
                                          {mask.data(), mask.size()}, cb,
                                          ctx.WithDeadlineAfter(seconds));
        });
    const std::vector<VertexId> prefix(
        frontier.begin(),
        frontier.begin() + static_cast<ptrdiff_t>(cut.destroyed.size()));
    BatchResult sequential = RunBatch(
        prefix, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                  ExecutionContext());
        });
    for (VertexId v : frontier) sequential.survivor_deltas.erase(v);
    EXPECT_EQ(cut.destroyed, sequential.destroyed) << seconds;
    EXPECT_EQ(cut.survivor_deltas, sequential.survivor_deltas) << seconds;
    EXPECT_EQ(cut.alive_after, sequential.alive_after) << seconds;
  }
}

TEST_P(ParallelPeelBatchTest, ExpiredDeadlineTruncatesToPrefix) {
  const unsigned threads = GetParam();
  Graph g = gen::ErdosRenyi(60, 0.15, 31);
  std::vector<char> alive(g.NumVertices(), 1);
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ExecutionContext ctx;
  ctx.threads = threads == 0 ? 8 : threads;
  ctx = ctx.WithDeadlineAfter(-1.0);
  std::vector<char> mask = alive;
  std::vector<uint64_t> destroyed = ParallelCliquePeelBatch(
      g, 3, frontier, {mask.data(), mask.size()},
      [](VertexId, uint64_t) {}, ctx);
  // An already-expired context processes nothing: no alive bit may change.
  EXPECT_TRUE(destroyed.empty());
  EXPECT_EQ(mask, alive);
  // Same truncation contract for the generic and closed-form kernels.
  const PatternPlanSet plans(Pattern::C3Star());
  destroyed = ParallelPatternPeelBatch(g, plans, frontier,
                                       {mask.data(), mask.size()},
                                       [](VertexId, uint64_t) {}, ctx);
  EXPECT_TRUE(destroyed.empty());
  EXPECT_EQ(mask, alive);
  destroyed = ParallelStarPeelBatch(g, 3, frontier, {mask.data(), mask.size()},
                                    [](VertexId, uint64_t) {}, ctx);
  EXPECT_TRUE(destroyed.empty());
  EXPECT_EQ(mask, alive);
  destroyed = ParallelFourCyclePeelBatch(g, frontier,
                                         {mask.data(), mask.size()},
                                         [](VertexId, uint64_t) {}, ctx);
  EXPECT_TRUE(destroyed.empty());
  EXPECT_EQ(mask, alive);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelPeelBatchTest,
                         ::testing::Values(1u, 2u, 4u, 0u));

TEST(ParallelPeelStress, DecompositionUnderOversubscribedBrackets) {
  // High-contention case for the TSan job (unit label): a graph whose
  // lowest-degree brackets are huge — communities of near-identical degree
  // — peeled with far more workers than cores, so every worker hammers the
  // shared atomic delta accumulator and the shared alive mask at once while
  // the engine applies batches back to back.
  Graph g = gen::PowerLawWithCommunities(500, 3, 10, 10, 0.85, 0xBEEF);
  const MotifCoreDecomposition baseline =
      MotifCoreDecompose(g, CliqueOracle(3));
  for (unsigned threads : {16u, 32u}) {
    CliqueOracle oracle(3);
    ExecutionContext ctx;
    ctx.threads = threads;
    const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle, ctx);
    EXPECT_EQ(d.core, baseline.core) << threads;
    EXPECT_EQ(d.removal_order, baseline.removal_order) << threads;
    EXPECT_EQ(d.residual_density, baseline.residual_density) << threads;
  }
  // Star brackets drive the weighted (binomial-count) accumulator adds.
  const MotifCoreDecomposition star_baseline =
      MotifCoreDecompose(g, PatternOracle(Pattern::TwoStar()));
  PatternOracle star(Pattern::TwoStar());
  ExecutionContext ctx;
  ctx.threads = 16;
  const MotifCoreDecomposition d = MotifCoreDecompose(g, star, ctx);
  EXPECT_EQ(d.core, star_baseline.core);
  EXPECT_EQ(d.removal_order, star_baseline.removal_order);
}

TEST(ParallelPeelStress, GenericPeelUnderOversubscribedBrackets) {
  // The generic rank-masked kernel under the same oversubscription regime
  // (unit label, so the TSan job covers the shared-matcher + per-worker
  // scratch combination): a non-closed-form motif whose brackets shard
  // through ParallelPatternPeelBatch.
  Graph g = gen::PowerLawWithCommunities(300, 3, 10, 10, 0.85, 0xFACADE);
  const MotifCoreDecomposition baseline =
      MotifCoreDecompose(g, PatternOracle(Pattern::C3Star()));
  for (unsigned threads : {16u, 32u}) {
    PatternOracle oracle(Pattern::C3Star());
    ExecutionContext ctx;
    ctx.threads = threads;
    const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle, ctx);
    EXPECT_EQ(d.core, baseline.core) << threads;
    EXPECT_EQ(d.removal_order, baseline.removal_order) << threads;
    EXPECT_EQ(d.residual_density, baseline.residual_density) << threads;
  }
}

// ---------------------------------------------------------------------------
// Hub-root splitting: skewed graphs must still match the sequential
// enumerator exactly, and a root's candidate-loop slices must partition its
// embeddings.

TEST(ParallelPatternHubSplit, SkewGraphParity) {
  // One massive hub plus a sparse periphery: without candidate-loop
  // splitting the hub's whole embedding subtree lands on one worker; with
  // it the result must still be bit-identical.
  GraphBuilder b;
  const VertexId n = 220;
  for (VertexId v = 1; v < n; ++v) b.AddEdge(0, v);      // hub star
  for (VertexId v = 1; v + 1 < n; v += 2) b.AddEdge(v, v + 1);  // periphery
  Graph g = b.Build();
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 3; v < n; v += 11) alive[v] = 0;
  for (const Pattern& pattern :
       {Pattern::TwoStar(), Pattern::C3Star(), Pattern::Cycle(4)}) {
    PatternMatcher enumerator(g, pattern);
    const std::vector<uint64_t> expected = enumerator.Degrees(alive);
    const uint64_t expected_count = enumerator.CountInstances(alive);
    for (unsigned threads : {2u, 4u, 16u}) {
      EXPECT_EQ(enumerator.Degrees(alive, threads), expected)
          << pattern.name() << " t=" << threads;
      EXPECT_EQ(enumerator.CountInstances(alive, threads), expected_count)
          << pattern.name() << " t=" << threads;
    }
  }
}

TEST(ParallelPatternHubSplit, RootSlicesPartitionEmbeddings) {
  Graph g = gen::BarabasiAlbert(60, 5, 3);
  const Pattern pattern = Pattern::C3Star();
  PatternMatcher enumerator(g, pattern);
  // Pick the max-degree vertex as the hub root.
  VertexId root = 0;
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > g.Degree(root)) root = v;
  }
  PatternMatcher::Scratch scratch = enumerator.MakeScratch();
  uint64_t full = 0;
  enumerator.MatchFromRoot(root, {}, scratch,
                               [&](std::span<const VertexId>) { ++full; });
  ASSERT_GT(full, 0u);
  for (unsigned slices : {2u, 3u, 7u}) {
    uint64_t sliced_total = 0;
    for (unsigned s = 0; s < slices; ++s) {
      enumerator.MatchFromRoot(
          root, {}, scratch, [&](std::span<const VertexId>) { ++sliced_total; },
          s, slices);
    }
    EXPECT_EQ(sliced_total, full) << slices;
  }
}

// The parallel clique-core (nucleus) decomposition is the batch peel at
// `threads` workers; the sweep below checks it against the sequential
// Algorithm 3 reference.
MotifCoreDecomposition ParallelCliqueCores(const Graph& g, int h,
                                           unsigned threads) {
  return MotifCoreDecompose(g, CliqueOracle(h),
                            ExecutionContext().WithThreads(threads));
}

class ParallelNucleusTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ParallelNucleusTest, MatchesSerialDecomposition) {
  auto [h, threads] = GetParam();
  Graph g = gen::ErdosRenyi(50, 0.2, h * 100 + 17);
  MotifCoreDecomposition parallel = ParallelCliqueCores(g, h, threads);
  NucleusDecomposition serial = NucleusCliqueCores(g, h);
  ASSERT_EQ(parallel.core.size(), serial.core.size());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(parallel.core[v], serial.core[v]) << "v=" << v;
  }
  EXPECT_EQ(parallel.kmax, serial.kmax);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelNucleusTest,
                         ::testing::Combine(::testing::Range(2, 5),
                                            ::testing::Values(1u, 4u, 0u)));

TEST(ParallelNucleus, EmptyAndTrivialGraphs) {
  EXPECT_EQ(ParallelCliqueCores(Graph(), 3, 4).kmax, 0u);
  Graph g = gen::ErdosRenyi(10, 0.0, 1);
  EXPECT_EQ(ParallelCliqueCores(g, 2, 4).kmax, 0u);
}

TEST(ParallelNucleus, DeterministicAcrossThreadCounts) {
  Graph g = gen::BarabasiAlbert(300, 3, 5);
  EXPECT_EQ(ParallelCliqueCores(g, 3, 1).core,
            ParallelCliqueCores(g, 3, 8).core);
}

}  // namespace
}  // namespace dsd
