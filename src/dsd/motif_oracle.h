// MotifOracle: the abstraction that lets every algorithm in the library run
// unchanged for h-clique densities (the CDS problem, Sections 4-6) and for
// arbitrary pattern densities (the PDS problem, Section 7).
//
// An oracle encapsulates one motif Psi and answers instance-level queries on
// any graph (the algorithms repeatedly apply it to induced subgraphs such as
// (k, Psi)-cores). CliqueOracle is backed by the kClist enumerator;
// PatternOracle by the plan-compiled extension/reduction engine of
// pattern/isomorphism.h (symmetry-broken, so instances are enumerated
// canonically with no automorphism division) with specialised star/4-cycle
// kernels (appendix D) and a per-edge triangle formula for the basket's
// Degrees and CountInstances.
//
// Execution policy is part of the interface: the hot queries (Degrees,
// CountInstances and PeelBatch — the calls the exact and core algorithms
// hammer on shrinking subgraphs) take an ExecutionContext. Both built-in
// oracles run them on ctx.threads workers (Section 6.3: per-root sharding
// of the kClist DAG and of the pattern matcher, per-vertex closed forms,
// frontier peel kernels), and ctx.threads = 1 runs the sequential code,
// which stays the reference. The public Degrees/CountInstances are
// non-virtual shells with a sequential default context, so call sites that
// predate the context — and oracles that are inherently sequential — are
// unaffected; implementations override the protected *Impl hooks. MakeOracle
// in dsd/oracle_factory.h builds the right oracle for a motif name.
#ifndef DSD_DSD_MOTIF_ORACLE_H_
#define DSD_DSD_MOTIF_ORACLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsd/execution_context.h"
#include "graph/graph.h"
#include "pattern/isomorphism.h"
#include "pattern/pattern.h"

namespace dsd {

/// Receives (vertex, count) increments: `count` instances containing both the
/// peeled vertex and `u` were destroyed. May fire several times for one u.
using PeelCallback = std::function<void(VertexId u, uint64_t count)>;

/// Motif query interface. Implementations are stateless w.r.t. any particular
/// graph; every method takes the graph (and an optional alive mask — empty
/// means all vertices alive) explicitly. One oracle instance may serve
/// concurrent solves, so implementations must be const-thread-safe.
class MotifOracle {
 public:
  virtual ~MotifOracle() = default;

  /// |V_Psi|: vertices in the motif.
  virtual int MotifSize() const = 0;

  /// Display name ("3-clique", "diamond", ...).
  virtual std::string Name() const = 0;

  /// Motif-degree deg(v, Psi) for every vertex, restricted to alive.
  /// The result is independent of ctx.threads (parallel implementations are
  /// bit-identical to sequential ones); ctx only buys wall-clock time.
  std::vector<uint64_t> Degrees(
      const Graph& graph, std::span<const char> alive,
      const ExecutionContext& ctx = ExecutionContext()) const {
    return DegreesImpl(graph, alive, ctx);
  }

  /// mu(G, Psi) restricted to alive. Same ctx contract as Degrees.
  uint64_t CountInstances(
      const Graph& graph, std::span<const char> alive,
      const ExecutionContext& ctx = ExecutionContext()) const {
    return CountInstancesImpl(graph, alive, ctx);
  }

  /// Reports, via `cb`, the per-vertex instance losses caused by removing `v`
  /// from the alive set (v itself excluded), and returns the total number of
  /// destroyed instances. `alive[v]` may already be cleared by the caller.
  /// Inherently sequential (the peeling loop is a data dependence chain), so
  /// it takes no context.
  virtual uint64_t PeelVertex(const Graph& graph, VertexId v,
                              std::span<const char> alive,
                              const PeelCallback& cb) const = 0;

  /// Batch peel: removes every vertex of `frontier` from `alive` one at a
  /// time in span order. This is the virtual seam every oracle stack
  /// implements (the peel engine in dsd/motif_core.cpp issues one call per
  /// bracket of positive motif-degree; it removes a degree-0 bracket itself,
  /// with no call). Contract:
  ///   - on entry alive[frontier[i]] != 0 for every member (the caller does
  ///     NOT pre-clear, unlike PeelVertex); on return the first
  ///     result.size() members are cleared and no other bit has changed;
  ///   - returns destroyed[i] = instances lost when frontier[i] is removed
  ///     given that exactly frontier[0..i) are already gone — identical to
  ///     looping PeelVertex in order, for every implementation;
  ///   - result.size() < frontier.size() only when ctx fired mid-batch
  ///     (deadline/cancel): only the prefix was peeled, giving the
  ///     truncated-decomposition semantics of MotifCoreDecompose;
  ///   - cb receives the summed per-vertex losses for the peeled prefix;
  ///     entries for frontier members themselves may or may not be reported
  ///     (implementations differ), so callers must only consume deltas of
  ///     vertices that survive the batch. cb is always invoked from the
  ///     calling thread and never concurrently.
  /// The default implementation loops PeelVertex under a DeadlinePoller
  /// (cancel checked per removal, clock sampled at ~1ms granularity);
  /// the built-in oracles shard the frontier across ctx.threads workers —
  /// bit-identical by the fixed-order prefix-mask argument.
  virtual std::vector<uint64_t> PeelBatch(const Graph& graph,
                                          std::span<const VertexId> frontier,
                                          std::span<char> alive,
                                          const PeelCallback& cb,
                                          const ExecutionContext& ctx) const;

  /// Distinct instances grouped by vertex set (construct+, Algorithm 7).
  /// For cliques every group has multiplicity 1.
  virtual std::vector<InstanceGroup> Groups(
      const Graph& graph, std::span<const char> alive) const = 0;

  /// Upper bound on each vertex's motif-core number, cheap to compute; used
  /// by CoreApp to order vertices and to stop its top-down search
  /// (Section 6.2's gamma). Must satisfy bound[v] >= core(v, Psi).
  virtual std::vector<uint64_t> CoreNumberUpperBounds(
      const Graph& graph) const = 0;

  /// Upper bound on the worker threads this oracle's hot queries can put to
  /// work; 1 means sequential. dsd::Solve clamps the request's thread budget
  /// by this when reporting the effective thread count.
  virtual unsigned MaxUsefulThreads() const { return 1; }

 protected:
  /// Implementation hooks behind Degrees/CountInstances. `ctx` is advisory:
  /// a sequential implementation simply ignores it.
  virtual std::vector<uint64_t> DegreesImpl(const Graph& graph,
                                            std::span<const char> alive,
                                            const ExecutionContext& ctx)
      const = 0;
  virtual uint64_t CountInstancesImpl(const Graph& graph,
                                      std::span<const char> alive,
                                      const ExecutionContext& ctx) const = 0;
};

/// Oracle for h-cliques (h >= 2). gamma(v) = C(core(v), h-1), which bounds
/// the clique-core number: the (k, Psi)-core has min edge-degree f(k) with
/// C(f(k), h-1) >= k, so every member sits in the f(k)-core.
/// Degrees and CountInstances shard the kClist roots over ctx.threads
/// workers (on the induced alive subgraph); edges (h = 2) keep their
/// O(n + m) alive-neighbour count on the calling thread. Results are
/// bit-identical for every thread count.
class CliqueOracle : public MotifOracle {
 public:
  explicit CliqueOracle(int h);

  int MotifSize() const override { return h_; }
  std::string Name() const override;
  uint64_t PeelVertex(const Graph& graph, VertexId v,
                      std::span<const char> alive,
                      const PeelCallback& cb) const override;
  /// Brackets that pass WorthParallelPeel (absolute floor +
  /// graph-relative ratio: a clique member's peel is too cheap for a
  /// handful of them to pay for waking the workers) go to the parallel
  /// clique frontier kernel under a multi-thread ctx; smaller ones keep
  /// the default PeelVertex loop. Either path returns the same bits.
  std::vector<uint64_t> PeelBatch(const Graph& graph,
                                  std::span<const VertexId> frontier,
                                  std::span<char> alive, const PeelCallback& cb,
                                  const ExecutionContext& ctx) const override;
  std::vector<InstanceGroup> Groups(const Graph& graph,
                                    std::span<const char> alive) const override;
  std::vector<uint64_t> CoreNumberUpperBounds(
      const Graph& graph) const override;
  /// No intrinsic cap: the kernels clamp per call by hardware concurrency
  /// and vertex count, so any budget the caller resolved is usable.
  unsigned MaxUsefulThreads() const override;

  int h() const { return h_; }

 protected:
  std::vector<uint64_t> DegreesImpl(const Graph& graph,
                                    std::span<const char> alive,
                                    const ExecutionContext& ctx) const override;
  uint64_t CountInstancesImpl(const Graph& graph, std::span<const char> alive,
                              const ExecutionContext& ctx) const override;

 private:
  int h_;
};

/// Oracle for arbitrary connected patterns. Uses the closed-form star /
/// 4-cycle kernels of appendix D when the pattern allows, the generic
/// plan-compiled matcher otherwise (plans are compiled once at
/// construction and shared by every query). Every query takes ctx.threads
/// workers: the closed forms per vertex, the matcher per root (hub roots
/// split into slices), and PeelBatch through the frontier kernels of
/// parallel/parallel_peel.h. Results are bit-identical for every thread
/// count.
class PatternOracle : public MotifOracle {
 public:
  /// use_special_kernels = false forces the generic engine even for stars
  /// and 4-cycles (the bench_ablation baseline), and for the basket, whose
  /// Degrees and CountInstances otherwise come from the per-edge triangle
  /// formula of special.h.
  explicit PatternOracle(Pattern pattern, bool use_special_kernels = true);

  int MotifSize() const override { return pattern().size(); }
  std::string Name() const override { return pattern().name(); }
  uint64_t PeelVertex(const Graph& graph, VertexId v,
                      std::span<const char> alive,
                      const PeelCallback& cb) const override;
  /// Under a multi-thread ctx, stars and 4-cycles take the parallel
  /// closed-form frontier kernels for brackets that pass WorthParallelPeel,
  /// and every other pattern takes the generic rank-masked kernel for every
  /// bracket, down to a single member: it splits members into (position,
  /// slice) parts and costs O(bracket) beyond their peels. Everything else
  /// runs the PeelVertex loop with one matcher scratch shared by the whole
  /// bracket. Every path returns the same bits.
  std::vector<uint64_t> PeelBatch(const Graph& graph,
                                  std::span<const VertexId> frontier,
                                  std::span<char> alive,
                                  const PeelCallback& cb,
                                  const ExecutionContext& ctx) const override;
  std::vector<InstanceGroup> Groups(const Graph& graph,
                                    std::span<const char> alive) const override;
  std::vector<uint64_t> CoreNumberUpperBounds(
      const Graph& graph) const override;
  /// Same contract as CliqueOracle: the kernels clamp per call by hardware
  /// concurrency and the vertex count.
  unsigned MaxUsefulThreads() const override;

  const Pattern& pattern() const { return plans_.pattern(); }

 protected:
  std::vector<uint64_t> DegreesImpl(const Graph& graph,
                                    std::span<const char> alive,
                                    const ExecutionContext& ctx) const override;
  uint64_t CountInstancesImpl(const Graph& graph, std::span<const char> alive,
                              const ExecutionContext& ctx) const override;

 private:
  class Peeler;

  PatternPlanSet plans_;  // owns the pattern
  int star_tails_;        // > 0 iff pattern is K_{1,x}
  bool is_four_cycle_;
  bool is_basket_;  // Degrees/CountInstances only (special.h)
};

}  // namespace dsd

#endif  // DSD_DSD_MOTIF_ORACLE_H_
