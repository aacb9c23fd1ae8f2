// Tests for flow/flow_network: the warm-startable push-relabel engine.
// Known instances, minimal and maximal min cuts, warm-start retuning,
// deadline truncation + resume, reverse-arc-id rejection, and bitwise
// parity of the cut across the thread budgets a caller's context may carry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "dsd/execution_context.h"
#include "flow/flow_network.h"
#include "util/random.h"

namespace dsd {
namespace {

using NodeId = FlowNetwork::NodeId;

TEST(FlowNetwork, SingleEdge) {
  FlowNetwork net(2);
  net.AddArc(0, 1, 5.0);
  EXPECT_EQ(net.MaxFlow(0, 1), 5.0);
}

TEST(FlowNetwork, SeriesTakesMinimum) {
  FlowNetwork net(3);
  net.AddArc(0, 1, 5.0);
  net.AddArc(1, 2, 3.0);
  EXPECT_EQ(net.MaxFlow(0, 2), 3.0);
}

TEST(FlowNetwork, ParallelPathsAdd) {
  FlowNetwork net(4);
  net.AddArc(0, 1, 2.0);
  net.AddArc(1, 3, 2.0);
  net.AddArc(0, 2, 3.0);
  net.AddArc(2, 3, 3.0);
  EXPECT_EQ(net.MaxFlow(0, 3), 5.0);
}

TEST(FlowNetwork, ClassicCLRSExample) {
  // CLRS figure 26.1: max flow 23.
  FlowNetwork net(6);
  net.AddArc(0, 1, 16);
  net.AddArc(0, 2, 13);
  net.AddArc(1, 2, 10);
  net.AddArc(2, 1, 4);
  net.AddArc(1, 3, 12);
  net.AddArc(3, 2, 9);
  net.AddArc(2, 4, 14);
  net.AddArc(4, 3, 7);
  net.AddArc(3, 5, 20);
  net.AddArc(4, 5, 4);
  EXPECT_EQ(net.MaxFlow(0, 5), 23.0);
}

TEST(FlowNetwork, DisconnectedIsZero) {
  FlowNetwork net(4);
  net.AddArc(0, 1, 10);
  net.AddArc(2, 3, 10);
  EXPECT_EQ(net.MaxFlow(0, 3), 0.0);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0, 1}));
}

TEST(FlowNetwork, MinimalAndMaximalMinCuts) {
  // s -> a -> t with equal capacities: {s} and {s, a} are both min cuts.
  FlowNetwork net(3);
  net.AddArc(0, 1, 1.0);
  net.AddArc(1, 2, 1.0);
  EXPECT_EQ(net.MaxFlow(0, 2), 1.0);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0}));
  EXPECT_EQ(net.MaximalMinCutSourceSide(2), (std::vector<NodeId>{0, 1}));
}

TEST(FlowNetwork, InfiniteSourceArcNeverCutAndNeverNaN) {
  // ForceToSource's pattern: an infinite s->v arc. The engine injects a
  // finite surrogate, so the flow is exact and v stays on the source side.
  FlowNetwork net(3);
  net.AddArc(0, 1, FlowNetwork::kInfinity);
  net.AddArc(1, 2, 7.0);
  EXPECT_EQ(net.MaxFlow(0, 2), 7.0);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0, 1}));
  // Warm re-solve must not re-inject unbounded excess or lose the value.
  EXPECT_EQ(net.MaxFlow(0, 2), 7.0);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0, 1}));
}

TEST(FlowNetwork, RepeatSolvesAreIdempotent) {
  FlowNetwork net(4);
  net.AddArc(0, 1, 2);
  net.AddArc(0, 2, 2);
  net.AddArc(1, 3, 1);
  net.AddArc(2, 3, 3);
  const double first = net.MaxFlow(0, 3);
  EXPECT_EQ(net.MaxFlow(0, 3), first);
  EXPECT_EQ(net.stats().max_flow_calls, 2u);
  EXPECT_EQ(net.stats().warm_starts, 1u);
}

TEST(FlowNetwork, WarmRetuneMatchesColdAcrossAlphaSchedule) {
  // Binary-search shape: s -> v arcs fixed, v -> t arcs retuned per guess.
  // The warm network must match a freshly built cold network bitwise at
  // every step, for alpha moving both down and up.
  Rng rng(7);
  const NodeId kMiddle = 20;
  const NodeId t = kMiddle + 1;
  std::vector<double> source_caps(kMiddle);
  std::vector<std::pair<NodeId, NodeId>> cross;
  for (NodeId v = 0; v < kMiddle; ++v) {
    source_caps[v] = static_cast<double>(1 + rng.NextBounded(8));
  }
  for (NodeId v = 0; v < kMiddle; ++v) {
    for (NodeId w = 0; w < kMiddle; ++w) {
      if (v != w && rng.NextBernoulli(0.2)) cross.push_back({v, w});
    }
  }
  auto build = [&](FlowNetwork& net, std::vector<FlowNetwork::ArcId>& alpha) {
    for (NodeId v = 0; v < kMiddle; ++v) {
      net.AddArc(0, v + 1, source_caps[v]);
      alpha.push_back(net.AddArc(v + 1, t, 0.0));
    }
    for (auto [v, w] : cross) net.AddArc(v + 1, w + 1, 1.0);
  };
  FlowNetwork warm(kMiddle + 2);
  std::vector<FlowNetwork::ArcId> warm_alpha;
  build(warm, warm_alpha);
  // Dyadic guesses (k/4) keep double arithmetic exact.
  for (const double alpha : {8.0, 4.0, 6.0, 5.0, 5.5, 5.25, 9.75, 0.25}) {
    for (const auto arc : warm_alpha) warm.SetCapacity(arc, alpha);
    FlowNetwork cold(kMiddle + 2);
    std::vector<FlowNetwork::ArcId> cold_alpha;
    build(cold, cold_alpha);
    for (const auto arc : cold_alpha) cold.SetCapacity(arc, alpha);
    EXPECT_EQ(warm.MaxFlow(0, t), cold.MaxFlow(0, t)) << "alpha=" << alpha;
    EXPECT_EQ(warm.MinCutSourceSide(0), cold.MinCutSourceSide(0))
        << "alpha=" << alpha;
    const std::vector<NodeId> maximal = warm.MaximalMinCutSourceSide(t);
    EXPECT_EQ(maximal, cold.MaximalMinCutSourceSide(t)) << "alpha=" << alpha;
    const std::vector<NodeId> minimal = warm.MinCutSourceSide(0);
    EXPECT_TRUE(std::includes(maximal.begin(), maximal.end(), minimal.begin(),
                              minimal.end()))
        << "alpha=" << alpha;
  }
  EXPECT_EQ(warm.stats().warm_starts, 7u);
}

TEST(FlowNetwork, WarmStartOffRoutesFromScratch) {
  FlowNetwork net(3);
  net.AddArc(0, 1, 4.0);
  const auto arc = net.AddArc(1, 2, 2.0);
  net.set_warm_start(false);
  EXPECT_EQ(net.MaxFlow(0, 2), 2.0);
  net.SetCapacity(arc, 3.0);
  EXPECT_EQ(net.MaxFlow(0, 2), 3.0);
  EXPECT_EQ(net.stats().warm_starts, 0u);
}

TEST(FlowNetwork, ChangedTerminalsForceColdStart) {
  FlowNetwork net(4);
  net.AddArc(0, 1, 5.0);
  net.AddArc(1, 2, 3.0);
  net.AddArc(2, 3, 2.0);
  EXPECT_EQ(net.MaxFlow(0, 3), 2.0);
  EXPECT_EQ(net.MaxFlow(0, 2), 3.0);  // different sink: must re-route
  EXPECT_EQ(net.stats().warm_starts, 0u);
}

TEST(FlowNetwork, ReverseArcIdsAreRejected) {
  FlowNetwork net(2);
  const auto arc = net.AddArc(0, 1, 5.0);
#ifdef NDEBUG
  // Release builds reject silently: no state change, flow unchanged.
  net.SetCapacity(arc + 1, 99.0);
  EXPECT_EQ(net.Capacity(arc), 5.0);
  EXPECT_EQ(net.MaxFlow(0, 1), 5.0);
#else
  // Debug/sanitizer builds make the caller bug loud.
  EXPECT_DEATH(net.SetCapacity(arc + 1, 99.0), "forward arc ids");
#endif
}

TEST(FlowNetwork, DeadlineTruncatesAndResumeCompletes) {
  FlowNetwork net(5);
  net.AddArc(0, 1, 4.0);
  net.AddArc(0, 2, 3.0);
  net.AddArc(1, 3, 2.0);
  net.AddArc(2, 3, 5.0);
  net.AddArc(3, 4, 6.0);
  const ExecutionContext expired =
      ExecutionContext().WithDeadlineAfter(-1.0);
  const double truncated = net.MaxFlow(0, 4, expired);
  EXPECT_LE(truncated, 5.0);
  // The preflow stays consistent: a later call under a fresh context
  // resumes and lands on the exact value.
  EXPECT_EQ(net.MaxFlow(0, 4), 5.0);
}

TEST(FlowNetwork, CancelFlagTruncates) {
  FlowNetwork net(3);
  net.AddArc(0, 1, 2.0);
  net.AddArc(1, 2, 1.0);
  std::atomic<bool> cancelled{true};
  const ExecutionContext ctx =
      ExecutionContext().WithCancelFlag(&cancelled);
  const double truncated = net.MaxFlow(0, 2, ctx);
  EXPECT_LE(truncated, 1.0);
  cancelled.store(false);
  EXPECT_EQ(net.MaxFlow(0, 2, ctx), 1.0);
}

// A wide random bipartite network: s -> 1500 middle nodes -> t plus random
// cross arcs. The solvers hand MaxFlow whatever context their caller built,
// thread budget included; the flow value and the cut must be bitwise
// identical to the default-context run, cold and warm.
class FlowNetworkParallelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlowNetworkParallelTest, ParallelMatchesSequentialBitwise) {
  const unsigned threads = GetParam();
  const NodeId kMiddle = 1500;
  const NodeId t = kMiddle + 1;
  auto build = [](FlowNetwork& net) {
    Rng rng(1234);
    const NodeId middle = 1500;
    for (NodeId v = 0; v < middle; ++v) {
      net.AddArc(0, v + 1, static_cast<double>(1 + rng.NextBounded(6)));
      net.AddArc(v + 1, middle + 1, static_cast<double>(1 + rng.NextBounded(4)));
    }
    for (NodeId v = 0; v < middle; ++v) {
      const NodeId w = static_cast<NodeId>(rng.NextBounded(middle));
      if (w != v) net.AddArc(v + 1, w + 1, static_cast<double>(rng.NextBounded(3)));
    }
  };
  FlowNetwork sequential(kMiddle + 2);
  build(sequential);
  const double expected = sequential.MaxFlow(0, t);
  const std::vector<NodeId> expected_cut = sequential.MinCutSourceSide(0);

  FlowNetwork parallel(kMiddle + 2);
  build(parallel);
  const ExecutionContext ctx = ExecutionContext().WithThreads(threads);
  EXPECT_EQ(parallel.MaxFlow(0, t, ctx), expected);
  EXPECT_EQ(parallel.MinCutSourceSide(0), expected_cut);
  // Warm re-solve under the same parallel context: same answer again.
  EXPECT_EQ(parallel.MaxFlow(0, t, ctx), expected);
  EXPECT_EQ(parallel.MinCutSourceSide(0), expected_cut);
}

INSTANTIATE_TEST_SUITE_P(Threads, FlowNetworkParallelTest,
                         ::testing::Values(2u, 4u));

}  // namespace
}  // namespace dsd
