// Parallel frontier-peeling kernels behind MotifOracle::PeelBatch.
//
// Batch-bracket peeling fixes a within-bracket removal order up front
// (ascending vertex id, chosen by the engine in dsd/motif_core.cpp). That
// makes each bracket member's work independent: the instances destroyed by
// member i are exactly the instances containing it whose other members are
// either survivors or bracket members of HIGHER rank — a pure function of
// the (frontier, rank) pair and the bracket-start alive mask, no matter
// what the other workers are doing. The kernels here shard the frontier
// across ParallelForStrided workers under that rank mask:
//   - cliques: enumerate the cliques through member i among the bracket-
//     start alive set and keep those whose minimum-rank member is i (the
//     sequential loop would have destroyed exactly those at step i);
//   - stars / 4-cycles: the appendix-D peel bodies of pattern/special.h
//     (StarPeelMember, FourCyclePeelMember), run under the rank-aware
//     aliveness predicate;
//   - generic patterns: PatternMatcher::PeelContainingPart drives the
//     compiled plans under the same rank mask, pruning branches through
//     lower-rank members mid-extension (min-rank attribution without
//     enumerating the instances the member does not own). A member splits
//     into one part per pattern position, and in small brackets into
//     first-extension slices too, so a one-member bracket still spreads
//     over every worker.
// Per-part destroyed counts are written to part-owned slots and summed per
// member after the join; survivor degree-deltas are merged per worker and
// added atomically into one shared array by a DeltaAccumulator (weighted
// adds), and reported through the caller's callback on the calling thread
// after the join.
// Results are bit-identical to looping MotifOracle::PeelVertex over the
// frontier in order, for every thread count: the only cross-worker
// combination is uint64 addition.
//
// A call costs O(bracket) beyond its members' peel work: the rank mask and
// the delta totals are n-sized arrays kept per calling thread, set and
// reset by frontier entries and touched deltas only, and the workers are
// ParallelForStrided's parked helpers.
//
// Every kernel honours ctx.ShouldStop() at sub-bracket granularity: the
// frontier is processed in rank-contiguous chunks with a deadline poll
// between chunks, and a stopped call returns the destroyed counts of the
// completed prefix only (its alive bits cleared, the suffix untouched) —
// the same truncation contract as the sequential default.
#ifndef DSD_PARALLEL_PARALLEL_PEEL_H_
#define DSD_PARALLEL_PARALLEL_PEEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "graph/graph.h"

namespace dsd {

/// Clique, star and 4-cycle brackets smaller than this are peeled by the
/// sequential default loop even under a multi-thread budget: their
/// members' peels are cheap (a clique member's is sorted intersections over
/// its alive neighbourhood, a closed-form member's a 2-hop scan), and a
/// handful of them does not pay for waking the workers.
inline constexpr size_t kMinParallelPeelFrontier = 8;

/// Whether a clique, star or 4-cycle bracket is worth a parallel kernel:
/// the absolute floor, and a bracket-to-graph ratio. The ratio dates from
/// kernels that paid O(n) setup per call; they now pay O(bracket), so it is
/// conservative, and it stays until it is recalibrated against the clique
/// and star rows on >= 4 cores. Generic patterns have no such rule: their
/// members' peels are plan-driven enumerations, and PatternOracle sends
/// every bracket to ParallelPatternPeelBatch under a multi-thread ctx.
inline bool WorthParallelPeel(size_t frontier_size, uint64_t num_vertices) {
  return frontier_size >= kMinParallelPeelFrontier &&
         frontier_size * 256 >= num_vertices;
}

/// Batch h-clique peel of `frontier` (rank = span position) from `alive`
/// on ctx.threads workers. See MotifOracle::PeelBatch for the contract.
/// Every kernel computes read-only against the bracket-start mask and
/// clears the peeled prefix's bits after the join.
std::vector<uint64_t> ParallelCliquePeelBatch(const Graph& graph, int h,
                                              std::span<const VertexId> frontier,
                                              std::span<char> alive,
                                              const PeelCallback& cb,
                                              const ExecutionContext& ctx);

/// Batch K_{1,x} star peel (appendix D.1 closed form, x >= 2).
std::vector<uint64_t> ParallelStarPeelBatch(const Graph& graph, int x,
                                            std::span<const VertexId> frontier,
                                            std::span<char> alive,
                                            const PeelCallback& cb,
                                            const ExecutionContext& ctx);

/// Batch 4-cycle peel (appendix D.2 two-path grouping). Each worker uses
/// its thread's FourCycleScratch (ThisThreadFourCycleScratch).
std::vector<uint64_t> ParallelFourCyclePeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx);

/// Batch peel for an arbitrary connected pattern via the compiled plans'
/// rank-masked PeelContainingPart reduction, sharded by (member, pattern
/// position, first-extension slice). Workers share one PatternMatcher (and
/// the caller's once-compiled PatternPlanSet), each searching with its
/// thread's Scratch. Bit-identical to looping PatternOracle::PeelVertex
/// over the frontier in order, for every thread count.
std::vector<uint64_t> ParallelPatternPeelBatch(
    const Graph& graph, const PatternPlanSet& plans,
    std::span<const VertexId> frontier, std::span<char> alive,
    const PeelCallback& cb, const ExecutionContext& ctx);

}  // namespace dsd

#endif  // DSD_PARALLEL_PARALLEL_PEEL_H_
