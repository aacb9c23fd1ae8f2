#include "dsd/parallel_oracle.h"

#include "graph/subgraph.h"
#include "parallel/parallel_clique.h"
#include "parallel/parallel_pattern.h"
#include "parallel/parallel_peel.h"
#include "pattern/special.h"

namespace dsd {

// Alive-masked clique queries reduce to whole-graph kernel runs on the
// induced alive subgraph (InducedAliveSubgraph — the same reduction the
// sequential oracle uses), keeping the kernels' per-root partitioning
// intact. Edges (h = 2) skip the kernels: the sequential alive-neighbour
// count is O(n + m) and beats any copy or worker wake-up. The pattern kernels
// take the mask natively (the plan-compiled matcher and the closed forms
// are alive-aware), matching the sequential PatternOracle paths exactly.

std::vector<uint64_t> ParallelCliqueOracle::DegreesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  if (ctx.threads <= 1 || h() == 2) {
    return CliqueOracle::DegreesImpl(graph, alive, ctx);
  }
  if (alive.empty()) return ParallelCliqueDegrees(graph, h(), ctx.threads);
  Subgraph sub = InducedAliveSubgraph(graph, alive);
  std::vector<uint64_t> local =
      ParallelCliqueDegrees(sub.graph, h(), ctx.threads);
  std::vector<uint64_t> degrees(graph.NumVertices(), 0);
  for (VertexId i = 0; i < local.size(); ++i) {
    degrees[sub.to_parent[i]] = local[i];
  }
  return degrees;
}

uint64_t ParallelCliqueOracle::CountInstancesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  if (ctx.threads <= 1 || h() == 2) {
    return CliqueOracle::CountInstancesImpl(graph, alive, ctx);
  }
  if (alive.empty()) return ParallelCliqueCount(graph, h(), ctx.threads);
  Subgraph sub = InducedAliveSubgraph(graph, alive);
  return ParallelCliqueCount(sub.graph, h(), ctx.threads);
}

std::vector<uint64_t> ParallelCliqueOracle::PeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  if (ctx.threads <= 1 ||
      !WorthParallelPeel(frontier.size(), graph.NumVertices())) {
    return CliqueOracle::PeelBatch(graph, frontier, alive, cb, ctx);
  }
  return ParallelCliquePeelBatch(graph, h(), frontier, alive, cb, ctx);
}

std::vector<uint64_t> ParallelPatternOracle::DegreesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  if (ctx.threads <= 1) return PatternOracle::DegreesImpl(graph, alive, ctx);
  if (star_tails() >= 2) {
    return StarDegrees(graph, star_tails(), alive, ctx.threads);
  }
  if (four_cycle_kernel()) {
    return FourCycleDegrees(graph, alive, ctx.threads);
  }
  return ParallelPatternDegrees(graph, plans(), alive, ctx.threads);
}

uint64_t ParallelPatternOracle::CountInstancesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  if (ctx.threads <= 1) {
    return PatternOracle::CountInstancesImpl(graph, alive, ctx);
  }
  if (star_tails() >= 2) {
    return StarCount(graph, star_tails(), alive, ctx.threads);
  }
  if (four_cycle_kernel()) {
    return FourCycleCount(graph, alive, ctx.threads);
  }
  return ParallelPatternCount(graph, plans(), alive, ctx.threads);
}

std::vector<uint64_t> ParallelPatternOracle::PeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  if (ctx.threads > 1) {
    const bool closed_form = star_tails() >= 2 || four_cycle_kernel();
    if (closed_form &&
        WorthParallelPeel(frontier.size(), graph.NumVertices())) {
      if (star_tails() >= 2) {
        return ParallelStarPeelBatch(graph, star_tails(), frontier, alive, cb,
                                     ctx);
      }
      return ParallelFourCyclePeelBatch(graph, frontier, alive, cb, ctx);
    }
    // Generic patterns always take the rank-masked plan kernel: it splits
    // members into parts, so even a single member spreads, and a call
    // costs a wake-up and O(bracket) beyond the members' peels.
    if (!closed_form) {
      return ParallelPatternPeelBatch(graph, plans(), frontier, alive, cb, ctx);
    }
  }
  // Closed-form brackets too small to pay for waking the workers (or a
  // sequential context) keep the sequential loop.
  return PatternOracle::PeelBatch(graph, frontier, alive, cb, ctx);
}

}  // namespace dsd
