#include "parallel/parallel_peel.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "clique/clique_degree.h"
#include "parallel/chunked_accumulator.h"
#include "parallel/parallel_for.h"
#include "pattern/isomorphism.h"
#include "pattern/special.h"

namespace dsd {

namespace {

// Rank sentinel shared with the generic engine: survivors carry
// kNoPeelRank (pattern/isomorphism.h), which is also the natural "alive
// forever" maximum for the rank comparisons below.
constexpr uint32_t kNoRank = kNoPeelRank;

// rank[v] = position of v in the frontier, kNoRank for survivors. The rank
// mask turns "peel the bracket one vertex at a time in rank order" into a
// per-member predicate: when member i is peeled, vertex u counts as alive
// iff it is a live survivor or a bracket member still waiting its turn.
std::vector<uint32_t> BuildRanks(VertexId n,
                                 std::span<const VertexId> frontier) {
  std::vector<uint32_t> rank(n, kNoRank);
  for (size_t i = 0; i < frontier.size(); ++i) {
    rank[frontier[i]] = static_cast<uint32_t>(i);
  }
  return rank;
}

// Shared chunked driver: processes frontier ranks [0, b) in contiguous
// chunks, polling the deadline between chunks, and returns the number of
// members processed. peel_one(worker, i) must compute destroyed[i] and
// stage member i's survivor deltas. The chunk scales with the bracket
// (b/16, floored at ~64 items per worker) so huge brackets pay a bounded
// number of ParallelForStrided spawn/join rounds, not hundreds, while
// truncation stays rank-prefix shaped.
template <typename PeelOne>
size_t RunChunked(size_t b, unsigned t, const ExecutionContext& ctx,
                  PeelOne&& peel_one) {
  const size_t chunk = std::max(
      {b / 16, static_cast<size_t>(t) * 64, static_cast<size_t>(256)});
  size_t processed = 0;
  while (processed < b) {
    if (ctx.ShouldStop()) break;
    const size_t end = std::min(b, processed + chunk);
    ParallelForStrided(end - processed, t,
                       [&](unsigned worker, uint64_t offset) {
                         peel_one(worker, processed + offset);
                       });
    processed = end;
  }
  return processed;
}

// The body every kernel shares: ranks the frontier, runs
// peel_member(worker, i, rank, deltas) -- which returns member i's
// destroyed count and stages its survivor deltas -- on t workers over
// rank-contiguous chunks. Members compute against the bracket-start mask
// (every member still alive); the rank restores each member's sequential
// view. After the join the processed prefix leaves the alive mask and the
// summed survivor deltas go to the caller's (single-threaded) callback.
template <typename PeelMember>
std::vector<uint64_t> PeelFrontier(const Graph& graph,
                                   std::span<const VertexId> frontier,
                                   std::span<char> alive,
                                   const PeelCallback& cb,
                                   const ExecutionContext& ctx, unsigned t,
                                   PeelMember&& peel_member) {
  const VertexId n = graph.NumVertices();
  const std::vector<uint32_t> rank = BuildRanks(n, frontier);
  std::vector<uint64_t> destroyed(frontier.size(), 0);
  ChunkedAccumulator deltas(n, t);
  const size_t processed =
      RunChunked(frontier.size(), t, ctx, [&](unsigned worker, size_t i) {
        destroyed[i] = peel_member(worker, i, rank, deltas);
      });
  destroyed.resize(processed);
  for (size_t i = 0; i < processed; ++i) alive[frontier[i]] = 0;
  const std::vector<uint64_t> totals = std::move(deltas).Finish();
  for (uint64_t u = 0; u < totals.size(); ++u) {
    if (totals[u] > 0) cb(static_cast<VertexId>(u), totals[u]);
  }
  return destroyed;
}

// PeelFrontier for the appendix-D peel bodies of pattern/special.h:
// peel_member(worker, v, is_alive, report) sees member i's rank-prefix view
// (u is alive iff it survives the bracket or is a member of higher rank,
// so v itself is not), and only survivors' positive counts are staged.
template <typename PeelMember>
std::vector<uint64_t> ClosedFormPeelBatch(const Graph& graph,
                                          std::span<const VertexId> frontier,
                                          std::span<char> alive,
                                          const PeelCallback& cb,
                                          const ExecutionContext& ctx,
                                          unsigned t,
                                          PeelMember&& peel_member) {
  return PeelFrontier(
      graph, frontier, alive, cb, ctx, t,
      [&](unsigned worker, size_t i, const std::vector<uint32_t>& rank,
          ChunkedAccumulator& deltas) {
        const uint32_t my_rank = static_cast<uint32_t>(i);
        auto is_alive = [&](VertexId u) {
          return rank[u] == kNoRank ? alive[u] != 0 : rank[u] > my_rank;
        };
        auto report = [&](VertexId u, uint64_t count) {
          if (rank[u] == kNoRank && count > 0) deltas.Add(worker, u, count);
        };
        return peel_member(worker, frontier[i], is_alive, report);
      });
}

}  // namespace

std::vector<uint64_t> ParallelCliquePeelBatch(const Graph& graph, int h,
                                              std::span<const VertexId> frontier,
                                              std::span<char> alive,
                                              const PeelCallback& cb,
                                              const ExecutionContext& ctx) {
  const std::span<const char> mask(alive.data(), alive.size());
  return PeelFrontier(
      graph, frontier, alive, cb, ctx,
      ResolveThreadCount(ctx.threads, frontier.size()),
      [&](unsigned worker, size_t i, const std::vector<uint32_t>& rank,
          ChunkedAccumulator& deltas) {
        const uint32_t my_rank = static_cast<uint32_t>(i);
        uint64_t lost = 0;
        EnumerateCliquesContaining(
            graph, h, frontier[i], mask, [&](std::span<const VertexId> rest) {
              // The clique is destroyed at the step of its minimum-rank
              // member; members of lower rank than i own it (or already
              // destroyed it), so member i must skip it.
              uint32_t min_rank = my_rank;
              for (VertexId u : rest) min_rank = std::min(min_rank, rank[u]);
              if (min_rank != my_rank) return;
              ++lost;
              for (VertexId u : rest) {
                if (rank[u] == kNoRank) deltas.Add(worker, u);
              }
            });
        return lost;
      });
}

std::vector<uint64_t> ParallelStarPeelBatch(const Graph& graph, int x,
                                            std::span<const VertexId> frontier,
                                            std::span<char> alive,
                                            const PeelCallback& cb,
                                            const ExecutionContext& ctx) {
  assert(x >= 2);
  return ClosedFormPeelBatch(
      graph, frontier, alive, cb, ctx,
      ResolveThreadCount(ctx.threads, frontier.size()),
      [&](unsigned, VertexId v, const auto& is_alive, const auto& report) {
        return StarPeelMember(graph, x, v, is_alive, report);
      });
}

std::vector<uint64_t> ParallelFourCyclePeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) {
  const unsigned t = ResolveThreadCount(ctx.threads, frontier.size());
  std::vector<FourCycleScratch> scratch(t,
                                        FourCycleScratch(graph.NumVertices()));
  return ClosedFormPeelBatch(
      graph, frontier, alive, cb, ctx, t,
      [&](unsigned worker, VertexId v, const auto& is_alive,
          const auto& report) {
        return FourCyclePeelMember(graph, v, is_alive, scratch[worker],
                                   report);
      });
}

std::vector<uint64_t> ParallelPatternPeelBatch(
    const Graph& graph, const PatternPlanSet& plans,
    std::span<const VertexId> frontier, std::span<char> alive,
    const PeelCallback& cb, const ExecutionContext& ctx) {
  const unsigned t = ResolveThreadCount(ctx.threads, frontier.size());
  PatternMatcher matcher(graph, plans);
  std::vector<PatternMatcher::Scratch> scratch;
  scratch.reserve(t);
  for (unsigned w = 0; w < t; ++w) scratch.push_back(matcher.MakeScratch());
  // PeelContaining's rank filter reports survivor deltas only.
  const std::span<const char> mask(alive.data(), alive.size());
  return PeelFrontier(
      graph, frontier, alive, cb, ctx, t,
      [&](unsigned worker, size_t i, const std::vector<uint32_t>& rank,
          ChunkedAccumulator& deltas) {
        return matcher.PeelContaining(
            frontier[i], rank, static_cast<uint32_t>(i), mask, scratch[worker],
            [&](VertexId u, uint64_t count) { deltas.Add(worker, u, count); });
      });
}

}  // namespace dsd
