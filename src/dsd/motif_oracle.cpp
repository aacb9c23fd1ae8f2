#include "dsd/motif_oracle.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "clique/clique_degree.h"
#include "clique/clique_enumerator.h"
#include "core/kcore.h"
#include "graph/subgraph.h"
#include "parallel/parallel_peel.h"
#include "pattern/special.h"
#include "util/combinatorics.h"

namespace dsd {

namespace {

// The sequential PeelBatch loop: clears each member's alive bit in frontier
// order and collects peel_one(v)'s destroyed counts.
template <typename PeelOne>
std::vector<uint64_t> PeelInOrder(std::span<const VertexId> frontier,
                                  std::span<char> alive,
                                  const ExecutionContext& ctx,
                                  PeelOne&& peel_one) {
  std::vector<uint64_t> destroyed;
  destroyed.reserve(frontier.size());
  // Cancel is checked per removal (deterministic truncation point); the
  // deadline clock is sampled at the poller's adaptive ~1ms stride.
  DeadlinePoller poller(ctx);
  for (VertexId v : frontier) {
    if (poller.ShouldStop()) break;
    // Member i is peeled with frontier[0..i) dead.
    alive[v] = 0;
    destroyed.push_back(peel_one(v));
  }
  return destroyed;
}

// The worker count a query runs on: ctx.threads, with 0 read as 1 (the
// kernels would read 0 as "auto").
unsigned Workers(const ExecutionContext& ctx) {
  return ctx.threads > 1 ? ctx.threads : 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// MotifOracle

std::vector<uint64_t> MotifOracle::PeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  return PeelInOrder(frontier, alive, ctx, [&](VertexId v) {
    return PeelVertex(graph, v, alive, cb);
  });
}

// ---------------------------------------------------------------------------
// CliqueOracle

CliqueOracle::CliqueOracle(int h) : h_(h) { assert(h >= 2); }

std::string CliqueOracle::Name() const {
  if (h_ == 2) return "edge";
  if (h_ == 3) return "triangle";
  return std::to_string(h_) + "-clique";
}

unsigned CliqueOracle::MaxUsefulThreads() const {
  return std::numeric_limits<unsigned>::max();
}

std::vector<uint64_t> CliqueOracle::DegreesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  return CliqueDegreesWithin(graph, h_, alive, Workers(ctx));
}

uint64_t CliqueOracle::CountInstancesImpl(const Graph& graph,
                                          std::span<const char> alive,
                                          const ExecutionContext& ctx) const {
  if (h_ == 2) {
    // Edges among the alive vertices: half the alive-neighbour counts, an
    // O(n + m) pass that no worker wake-up would beat.
    if (alive.empty()) return graph.NumEdges();
    uint64_t twice = 0;
    for (uint64_t d : CliqueDegreesWithin(graph, 2, alive)) twice += d;
    return twice / 2;
  }
  if (alive.empty()) return CliqueEnumerator(graph, h_).Count(Workers(ctx));
  Subgraph sub = InducedAliveSubgraph(graph, alive);
  return CliqueEnumerator(sub.graph, h_).Count(Workers(ctx));
}

std::vector<uint64_t> CliqueOracle::PeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  if (Workers(ctx) > 1 &&
      WorthParallelPeel(frontier.size(), graph.NumVertices())) {
    return ParallelCliquePeelBatch(graph, h_, frontier, alive, cb, ctx);
  }
  return MotifOracle::PeelBatch(graph, frontier, alive, cb, ctx);
}

uint64_t CliqueOracle::PeelVertex(const Graph& graph, VertexId v,
                                  std::span<const char> alive,
                                  const PeelCallback& cb) const {
  uint64_t destroyed = 0;
  EnumerateCliquesContaining(graph, h_, v, alive,
                             [&](std::span<const VertexId> rest) {
                               ++destroyed;
                               for (VertexId u : rest) cb(u, 1);
                             });
  return destroyed;
}

std::vector<InstanceGroup> CliqueOracle::Groups(
    const Graph& graph, std::span<const char> alive) const {
  std::vector<InstanceGroup> groups;
  auto emit = [&](const Graph& g, const std::vector<VertexId>* to_parent) {
    CliqueEnumerator enumerator(g, h_);
    enumerator.Enumerate([&](std::span<const VertexId> clique) {
      InstanceGroup group;
      group.vertices.assign(clique.begin(), clique.end());
      if (to_parent != nullptr) {
        for (VertexId& x : group.vertices) x = (*to_parent)[x];
      }
      std::sort(group.vertices.begin(), group.vertices.end());
      group.multiplicity = 1;
      groups.push_back(std::move(group));
    });
  };
  if (alive.empty()) {
    emit(graph, nullptr);
  } else {
    Subgraph sub = InducedAliveSubgraph(graph, alive);
    emit(sub.graph, &sub.to_parent);
  }
  return groups;
}

std::vector<uint64_t> CliqueOracle::CoreNumberUpperBounds(
    const Graph& graph) const {
  CoreDecomposition decomposition = KCoreDecomposition(graph);
  std::vector<uint64_t> bounds(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    bounds[v] = Binomial(decomposition.core[v], static_cast<uint64_t>(h_ - 1));
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// PatternOracle

PatternOracle::PatternOracle(Pattern pattern, bool use_special_kernels)
    : plans_(std::move(pattern)),
      star_tails_(use_special_kernels ? plans_.pattern().StarTails() : 0),
      is_four_cycle_(use_special_kernels &&
                     plans_.pattern().IsomorphicTo(Pattern::Diamond())),
      is_basket_(use_special_kernels &&
                 plans_.pattern().IsomorphicTo(Pattern::Basket())) {
  assert(plans_.pattern().IsConnected());
}

unsigned PatternOracle::MaxUsefulThreads() const {
  return std::numeric_limits<unsigned>::max();
}

std::vector<uint64_t> PatternOracle::DegreesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  const unsigned t = Workers(ctx);
  if (star_tails_ >= 2) return StarDegrees(graph, star_tails_, alive, t);
  if (is_four_cycle_) return FourCycleDegrees(graph, alive, t);
  if (is_basket_) return BasketDegrees(graph, alive, t);
  return PatternMatcher(graph, plans_).Degrees(alive, t);
}

uint64_t PatternOracle::CountInstancesImpl(const Graph& graph,
                                           std::span<const char> alive,
                                           const ExecutionContext& ctx) const {
  const unsigned t = Workers(ctx);
  if (star_tails_ >= 2) return StarCount(graph, star_tails_, alive, t);
  if (is_four_cycle_) return FourCycleCount(graph, alive, t);
  if (is_basket_) return BasketCount(graph, alive, t);
  return PatternMatcher(graph, plans_).CountInstances(alive, t);
}

// One member's sequential peel, with the scratch a bracket's members share:
// the matcher's O(k) search buffers. The 4-cycle kernel's O(n) 2-path
// counters are the thread's own (ThisThreadFourCycleScratch), so neither a
// bracket nor a single PeelVertex allocates anything n-sized.
class PatternOracle::Peeler {
 public:
  Peeler(const PatternOracle& oracle, const Graph& graph)
      : oracle_(oracle),
        graph_(graph),
        matcher_(graph, oracle.plans_),
        scratch_(matcher_.MakeScratch()) {}

  uint64_t Peel(VertexId v, std::span<const char> alive,
                const PeelCallback& cb) {
    // Appendix D fast paths: closed-form O(d^2) peeling for stars and loops.
    auto is_alive = [alive](VertexId u) {
      return alive.empty() || alive[u] != 0;
    };
    if (oracle_.star_tails_ >= 2) {
      return StarPeelMember(graph_, oracle_.star_tails_, v, is_alive, cb);
    }
    if (oracle_.is_four_cycle_) {
      return FourCyclePeelMember(
          graph_, v, is_alive,
          ThisThreadFourCycleScratch(graph_.NumVertices()), cb);
    }
    // Canonical instance-level peel: each destroyed instance is matched once
    // (no automorphism division), and the folded reduction reports weighted
    // per-member hits straight to cb without materializing images.
    return matcher_.PeelContaining(v, /*rank=*/{}, /*my_rank=*/0, alive,
                                   scratch_, cb);
  }

 private:
  const PatternOracle& oracle_;
  const Graph& graph_;
  PatternMatcher matcher_;
  PatternMatcher::Scratch scratch_;
};

uint64_t PatternOracle::PeelVertex(const Graph& graph, VertexId v,
                                   std::span<const char> alive,
                                   const PeelCallback& cb) const {
  return Peeler(*this, graph).Peel(v, alive, cb);
}

std::vector<uint64_t> PatternOracle::PeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  if (Workers(ctx) > 1) {
    const bool closed_form = star_tails_ >= 2 || is_four_cycle_;
    // Generic patterns always take the rank-masked plan kernel: it splits
    // members into parts, so even a single member spreads, and a call
    // costs a wake-up and O(bracket) beyond the members' peels.
    if (!closed_form) {
      return ParallelPatternPeelBatch(graph, plans_, frontier, alive, cb, ctx);
    }
    if (WorthParallelPeel(frontier.size(), graph.NumVertices())) {
      if (star_tails_ >= 2) {
        return ParallelStarPeelBatch(graph, star_tails_, frontier, alive, cb,
                                     ctx);
      }
      return ParallelFourCyclePeelBatch(graph, frontier, alive, cb, ctx);
    }
  }
  // Closed-form brackets too small to pay for waking the workers (or a
  // sequential context) take the sequential loop.
  Peeler peeler(*this, graph);
  return PeelInOrder(frontier, alive, ctx, [&](VertexId v) {
    return peeler.Peel(v, alive, cb);
  });
}

std::vector<InstanceGroup> PatternOracle::Groups(
    const Graph& graph, std::span<const char> alive) const {
  return PatternMatcher(graph, plans_).Groups(alive);
}

std::vector<uint64_t> PatternOracle::CoreNumberUpperBounds(
    const Graph& graph) const {
  // The exact pattern-degree is always an upper bound on the pattern-core
  // number; the specialised kernels make it cheap for stars and 4-cycles
  // (appendix D) and the per-edge triangle formula for the basket.
  // For other patterns this is the dominant cost of CoreApp, matching the
  // paper's remark that gamma exists to avoid expensive clique-degree
  // computation specifically.
  return Degrees(graph, {});
}

}  // namespace dsd
