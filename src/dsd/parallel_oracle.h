// ParallelCliqueOracle / ParallelPatternOracle: the oracle contracts served
// by the Section 6.3 parallel kernels.
//
// The kClist DAG partitions h-clique instances by their degeneracy-minimal
// root, and the plan-compiled pattern matcher partitions canonical matches
// by the data vertex their level-0 position maps to — so Degrees and
// CountInstances (the queries the exact and core algorithms issue on every
// (k, Psi)-core restriction) parallelise embarrassingly for both problem
// families. These oracles dispatch those two queries to the src/parallel/
// kernels (stars and 4-cycles: to the closed forms of pattern/special.h)
// on ctx.threads workers, and PeelBatch — the whole-bracket removal the
// batch peeling engine in dsd/motif_core.cpp issues — to the frontier
// kernels of parallel/parallel_peel.h, which every motif family has
// (cliques, stars, 4-cycles, and arbitrary patterns via the rank-masked
// generic kernel); clique, star and 4-cycle brackets too small for a
// kernel keep the sequential PeelVertex loop. Everything else (PeelVertex,
// Groups, core bounds) is inherited from the sequential bases unchanged.
// Results are bit-identical to the sequential oracles for every thread
// count: the only cross-worker combination in the kernels is uint64
// addition, and the peel kernels evaluate each bracket member under the
// same rank-prefix mask the sequential loop would.
#ifndef DSD_DSD_PARALLEL_ORACLE_H_
#define DSD_DSD_PARALLEL_ORACLE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dsd/motif_oracle.h"

namespace dsd {

/// CliqueOracle whose hot queries run on ctx.threads workers. A
/// default-constructed (sequential) context makes it behave exactly like
/// CliqueOracle, so it is always safe to pick when the motif is a clique.
class ParallelCliqueOracle : public CliqueOracle {
 public:
  explicit ParallelCliqueOracle(int h) : CliqueOracle(h) {}

  /// No intrinsic cap: the kernels clamp per call by hardware concurrency
  /// and vertex count, so any budget the caller resolved is usable.
  unsigned MaxUsefulThreads() const override {
    return std::numeric_limits<unsigned>::max();
  }

  /// Brackets that pass WorthParallelPeel (absolute floor +
  /// graph-relative ratio: a clique member's peel is too cheap for a
  /// handful of them to pay for waking the workers) go to the parallel
  /// clique frontier kernel; smaller ones (or a sequential context) keep
  /// the default PeelVertex loop. Either path returns the same bits.
  std::vector<uint64_t> PeelBatch(const Graph& graph,
                                  std::span<const VertexId> frontier,
                                  std::span<char> alive, const PeelCallback& cb,
                                  const ExecutionContext& ctx) const override;

 protected:
  std::vector<uint64_t> DegreesImpl(const Graph& graph,
                                    std::span<const char> alive,
                                    const ExecutionContext& ctx) const override;
  uint64_t CountInstancesImpl(const Graph& graph, std::span<const char> alive,
                              const ExecutionContext& ctx) const override;
};

/// PatternOracle whose hot queries run on ctx.threads workers: the root
/// loop of the generic plan-compiled matcher is sharded per worker (hub
/// roots split into candidate-loop slices), and the appendix-D closed
/// forms (stars, 4-cycle) run the sequential oracle's own functions of
/// pattern/special.h with ctx.threads — the same kernel branch the
/// sequential oracle would take, so results match it bit-for-bit under
/// every thread count. A sequential context falls straight through to
/// PatternOracle.
class ParallelPatternOracle : public PatternOracle {
 public:
  explicit ParallelPatternOracle(Pattern pattern,
                                 bool use_special_kernels = true)
      : PatternOracle(std::move(pattern), use_special_kernels) {}

  /// Same contract as ParallelCliqueOracle: the kernels clamp per call by
  /// hardware concurrency and the root-vertex count.
  unsigned MaxUsefulThreads() const override {
    return std::numeric_limits<unsigned>::max();
  }

  /// Stars and 4-cycles take the parallel closed-form frontier kernels for
  /// brackets that pass WorthParallelPeel, and keep PatternOracle's
  /// sequential loop below it. Every other pattern takes the generic
  /// rank-masked kernel for every bracket, down to a single member: it
  /// splits members into (position, slice) parts and costs O(bracket)
  /// beyond their peels, so the thread budget is honored for arbitrary
  /// motifs too. Every path returns the same bits.
  std::vector<uint64_t> PeelBatch(const Graph& graph,
                                  std::span<const VertexId> frontier,
                                  std::span<char> alive, const PeelCallback& cb,
                                  const ExecutionContext& ctx) const override;

 protected:
  std::vector<uint64_t> DegreesImpl(const Graph& graph,
                                    std::span<const char> alive,
                                    const ExecutionContext& ctx) const override;
  uint64_t CountInstancesImpl(const Graph& graph, std::span<const char> alive,
                              const ExecutionContext& ctx) const override;
};

}  // namespace dsd

#endif  // DSD_DSD_PARALLEL_ORACLE_H_
