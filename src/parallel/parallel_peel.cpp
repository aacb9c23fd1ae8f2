#include "parallel/parallel_peel.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "clique/clique_degree.h"
#include "parallel/delta_accumulator.h"
#include "parallel/parallel_for.h"
#include "pattern/isomorphism.h"
#include "pattern/special.h"

namespace dsd {

namespace {

// Rank sentinel shared with the generic engine: survivors carry
// kNoPeelRank (pattern/isomorphism.h), which is also the natural "alive
// forever" maximum for the rank comparisons below.
constexpr uint32_t kNoRank = kNoPeelRank;

// The state PeelFrontier keeps per calling thread between brackets, so a
// bracket allocates, fills and scans nothing n-sized:
//   - rank[v] = position of v in the current frontier, kNoRank otherwise
//     (every entry is kNoRank between calls; a call sets and resets its own
//     frontier's entries only). The rank mask turns "peel the bracket one
//     vertex at a time in rank order" into a per-member predicate: when
//     member i is peeled, vertex u counts as alive iff it is a live
//     survivor or a bracket member still waiting its turn;
//   - deltas: the survivors' summed losses, merged per worker, added
//     atomically into one n-sized array and drained by touched entries;
//   - part_destroyed: the destroyed count of each part of the current
//     chunk.
struct PeelState {
  std::vector<uint32_t> rank;
  DeltaAccumulator deltas;
  std::vector<uint64_t> part_destroyed;
};

PeelState& ThisThreadPeelState() {
  thread_local PeelState state;
  return state;
}

// The body every kernel shares. Each frontier member splits into
// `parts_per_member` independent parts; peel_part(worker, i, part, rank,
// deltas) returns that part of member i's destroyed count and adds its
// survivor deltas. Members compute against the bracket-start mask (every
// member still alive); the rank restores each member's sequential view.
// The frontier runs in rank-contiguous chunks of whole members with a
// deadline poll between chunks, so a stopped call has processed a member
// prefix. The chunk scales with the bracket (b/16, floored at ~64 members
// per worker) so huge brackets pay a bounded number of ParallelForStrided
// rounds, not hundreds. After the last chunk the processed prefix leaves
// the alive mask and the summed survivor deltas go to the caller's
// callback on this thread.
template <typename PeelPart>
std::vector<uint64_t> PeelFrontier(const Graph& graph,
                                   std::span<const VertexId> frontier,
                                   std::span<char> alive,
                                   const PeelCallback& cb,
                                   const ExecutionContext& ctx, unsigned t,
                                   uint32_t parts_per_member,
                                   PeelPart&& peel_part) {
  PeelState& state = ThisThreadPeelState();
  const VertexId n = graph.NumVertices();
  if (state.rank.size() < n) state.rank.resize(n, kNoRank);
  for (size_t i = 0; i < frontier.size(); ++i) {
    state.rank[frontier[i]] = static_cast<uint32_t>(i);
  }
  state.deltas.Reset(n, t);
  // Restores the between-calls invariants on every exit path.
  struct Restore {
    PeelState& state;
    std::span<const VertexId> frontier;
    ~Restore() {
      for (VertexId v : frontier) state.rank[v] = kNoRank;
      state.deltas.Drain([](uint64_t, uint64_t) {});
    }
  } restore{state, frontier};
  const std::span<const uint32_t> rank(state.rank.data(), n);
  const size_t b = frontier.size();
  const size_t chunk = std::max(
      {b / 16, static_cast<size_t>(t) * 64, static_cast<size_t>(256)});
  std::vector<uint64_t> destroyed(b, 0);
  size_t processed = 0;
  while (processed < b && !ctx.ShouldStop()) {
    const size_t end = std::min(b, processed + chunk);
    const size_t parts = (end - processed) * parts_per_member;
    state.part_destroyed.assign(parts, 0);
    // Workers claim parts in runs of `grain`: one part at a time for small
    // brackets, where a heavy part (a hub's subtree) must not drag a
    // static share of the rest with it, and ~64 claims per worker for
    // huge brackets of cheap members, where a claim per part would cost
    // more than the part.
    const size_t grain = std::max<size_t>(1, parts / (size_t{t} * 64));
    std::atomic<size_t> next{0};
    ParallelForStrided(t, t, [&](unsigned worker, uint64_t) {
      for (size_t begin;
           (begin = next.fetch_add(grain, std::memory_order_relaxed)) <
           parts;) {
        for (size_t j = begin; j < std::min(parts, begin + grain); ++j) {
          state.part_destroyed[j] =
              peel_part(worker, processed + j / parts_per_member,
                        static_cast<uint32_t>(j % parts_per_member), rank,
                        state.deltas);
        }
      }
    });
    for (size_t j = 0; j < parts; ++j) {
      destroyed[processed + j / parts_per_member] += state.part_destroyed[j];
    }
    processed = end;
  }
  destroyed.resize(processed);
  for (size_t i = 0; i < processed; ++i) alive[frontier[i]] = 0;
  state.deltas.Drain([&](uint64_t u, uint64_t total) {
    cb(static_cast<VertexId>(u), total);
  });
  return destroyed;
}

// PeelFrontier for the appendix-D peel bodies of pattern/special.h:
// peel_member(v, is_alive, report) sees member i's rank-prefix view
// (u is alive iff it survives the bracket or is a member of higher rank,
// so v itself is not), and only survivors' counts are added.
template <typename PeelMember>
std::vector<uint64_t> ClosedFormPeelBatch(const Graph& graph,
                                          std::span<const VertexId> frontier,
                                          std::span<char> alive,
                                          const PeelCallback& cb,
                                          const ExecutionContext& ctx,
                                          unsigned t,
                                          PeelMember&& peel_member) {
  return PeelFrontier(
      graph, frontier, alive, cb, ctx, t, 1,
      [&](unsigned worker, size_t i, uint32_t, std::span<const uint32_t> rank,
          DeltaAccumulator& deltas) {
        const uint32_t my_rank = static_cast<uint32_t>(i);
        auto is_alive = [&](VertexId u) {
          return rank[u] == kNoRank ? alive[u] != 0 : rank[u] > my_rank;
        };
        auto report = [&](VertexId u, uint64_t count) {
          if (rank[u] == kNoRank) deltas.Add(worker, u, count);
        };
        return peel_member(frontier[i], is_alive, report);
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
      ResolveThreadCount(ctx.threads, frontier.size()), 1,
      [&](unsigned worker, size_t i, uint32_t, std::span<const uint32_t> rank,
          DeltaAccumulator& deltas) {
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
      [&](VertexId v, const auto& is_alive, const auto& report) {
        return StarPeelMember(graph, x, v, is_alive, report);
      });
}

std::vector<uint64_t> ParallelFourCyclePeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) {
  const VertexId n = graph.NumVertices();
  return ClosedFormPeelBatch(
      graph, frontier, alive, cb, ctx,
      ResolveThreadCount(ctx.threads, frontier.size()),
      [&](VertexId v, const auto& is_alive, const auto& report) {
        return FourCyclePeelMember(graph, v, is_alive,
                                   ThisThreadFourCycleScratch(n), report);
      });
}

std::vector<uint64_t> ParallelPatternPeelBatch(
    const Graph& graph, const PatternPlanSet& plans,
    std::span<const VertexId> frontier, std::span<char> alive,
    const PeelCallback& cb, const ExecutionContext& ctx) {
  const unsigned t = ResolveThreadCount(ctx.threads);
  PatternMatcher matcher(graph, plans);
  // A member splits into one part per pattern position it can take. A
  // bracket with fewer than ~4 such parts per worker splits each
  // position's first-extension loop into slices as well, so even a single
  // dense-tail member spreads over every worker.
  const uint64_t positions =
      frontier.size() * static_cast<uint64_t>(plans.pattern().size());
  const unsigned slices = static_cast<unsigned>(std::clamp<uint64_t>(
      (4 * uint64_t{t} + positions - 1) / std::max<uint64_t>(positions, 1), 1,
      t));
  const uint32_t parts =
      static_cast<uint32_t>(plans.pattern().size()) * slices;
  // PeelContainingPart's rank filter reports survivor deltas only.
  const std::span<const char> mask(alive.data(), alive.size());
  return PeelFrontier(
      graph, frontier, alive, cb, ctx, t, parts,
      [&](unsigned worker, size_t i, uint32_t part,
          std::span<const uint32_t> rank, DeltaAccumulator& deltas) {
        return matcher.PeelContainingPart(
            frontier[i], static_cast<int>(part / slices), part % slices,
            slices, rank, static_cast<uint32_t>(i), mask,
            matcher.ThreadScratch(),
            [&](VertexId u, uint64_t count) { deltas.Add(worker, u, count); });
      });
}

}  // namespace dsd
