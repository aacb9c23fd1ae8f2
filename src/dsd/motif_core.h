// (k, Psi)-core decomposition by batch-bracket peeling (Algorithm 3),
// generic over the motif oracle, plus the residual-density bookkeeping that
// powers PeelApp (Algorithm 2), IncApp (Algorithm 5) and CoreExact's
// Pruning1. Whole lowest-degree brackets are peeled per oracle call
// (MotifOracle::PeelBatch), which parallel oracles shard across workers;
// the canonical within-bracket order (ascending vertex id) makes every
// output bit-identical across thread counts and oracle stacks.
#ifndef DSD_DSD_MOTIF_CORE_H_
#define DSD_DSD_MOTIF_CORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// Output of a full (k, Psi)-core decomposition of a graph.
struct MotifCoreDecomposition {
  /// core[v] = motif-core number of v (Definition 6's order).
  std::vector<uint64_t> core;
  /// degree[v] = motif-degree of v in the whole graph: the peel's first
  /// Degrees pass, kept so later whole-graph restrictions need not recount.
  std::vector<uint64_t> degree;
  /// Maximum motif-core number.
  uint64_t kmax = 0;
  /// Vertices in peeling order; the suffix starting at i induces the
  /// residual graph right before the i-th removal.
  std::vector<VertexId> removal_order;
  /// residual_density[i] = rho of the residual graph induced by
  /// removal_order[i..n) (so residual_density[0] = rho(G, Psi)).
  std::vector<double> residual_density;
  /// residual_instances[i] = mu of that same residual graph, so
  /// residual_density[i] = residual_instances[i] / (n - i). Both cover only
  /// the peeled prefix of a truncated decomposition.
  std::vector<uint64_t> residual_instances;
  /// mu(G, Psi) of the full graph.
  uint64_t total_instances = 0;
  /// Highest residual density rho' (Pruning1) and the suffix attaining it.
  double best_residual_density = 0.0;
  size_t best_residual_start = 0;
  /// Peel-engine instrumentation for this decomposition (see result.h).
  PeelEngineStats peel_stats;
  /// False iff a deadline or cancel truncated the peel (see
  /// MotifCoreDecompose); only complete decompositions may be indexed.
  bool complete = true;

  /// Vertices with core number >= k, sorted (the (k, Psi)-core).
  std::vector<VertexId> CoreVertices(uint64_t k) const;
  /// Vertices of the residual graph removal_order[start..n), sorted.
  std::vector<VertexId> SuffixVertices(size_t start) const;
  /// Vertices of the best residual subgraph (PeelApp's answer), sorted.
  std::vector<VertexId> BestResidualVertices() const;
  /// Where the (k, Psi)-core starts in removal_order (n when it is empty):
  /// core numbers never fall along removal_order, so the k-core is a
  /// removal suffix. nullopt for a truncated decomposition, whose suffixes
  /// are not cores.
  std::optional<size_t> CoreStart(uint64_t k) const;
  /// rho of the (k, Psi)-core, read from residual_density; nullopt when
  /// CoreStart(k) is.
  std::optional<double> CoreDensity(uint64_t k) const;
  /// Fills result.vertices, .instances and .density with the residual
  /// graph removal_order[start..n), start < residual_instances.size():
  /// read from the decomposition, with no oracle call.
  void FillSuffix(size_t start, DensestResult& result) const;
};

/// Full decomposition of `graph` w.r.t. the oracle's motif, by batch-bracket
/// peeling: a monotone bucket queue (util/bucket_queue.h) indexed by
/// motif-degree yields the entire lowest-degree bracket at a time — O(1)
/// amortised per degree update, no stale-heap churn — and each bracket is
/// removed through one MotifOracle::PeelBatch call in ascending-id order.
/// PeelBatch is defined to equal one-at-a-time peeling in that order, so
/// the decomposition (core numbers, removal_order, per-removal residual
/// densities, best residual suffix) is bit-identical whether the oracle
/// loops PeelVertex sequentially or shards the bracket across ctx.threads
/// workers — the batch is how the thread budget finally buys wall-clock on
/// the peeling path, on top of the parallel initial degree pass.
/// ctx.ShouldStop() is polled per bracket (and inside large brackets by
/// PeelBatch): a stopped run returns a TRUNCATED decomposition —
/// removal_order is still a permutation of V (the unpeeled remainder is
/// appended so suffix-based answers remain genuine residual subgraphs), but
/// residual_density covers only the peeled prefix and unpeeled vertices
/// keep their last core value — suitable only for best-effort answers whose
/// caller discards over-deadline results, as dsd::Solve does.
/// peel_stats records the bracket count and the time spent inside
/// PeelBatch (the motif count, which dominates the decomposition).
MotifCoreDecomposition MotifCoreDecompose(
    const Graph& graph, const MotifOracle& oracle,
    const ExecutionContext& ctx = ExecutionContext());

/// Complete whole-graph decompositions of ONE graph, keyed by the oracle's
/// canonical Name() (so "triangle" and "3-clique" share an entry). A
/// decomposition depends only on (graph, motif) and is bit-identical across
/// thread counts and oracle stacks, so one entry answers every later solve.
/// Entries are immutable and never evicted (~36 bytes per vertex each).
/// Thread-safe without single-flight: concurrent misses may both peel, and
/// the first complete insert wins.
class DecompositionIndex {
 public:
  /// Binds the index to `graph`'s content via its generation tag.
  explicit DecompositionIndex(const Graph& graph)
      : generation_(graph.Generation()) {}

  /// True iff `graph` is the graph this index was built for.
  bool Serves(const Graph& graph) const {
    return graph.Generation() == generation_;
  }

  /// The entry for `motif`, or nullptr; counts a hit or a miss.
  std::shared_ptr<const MotifCoreDecomposition> Find(const std::string& motif);

  /// Stores `decomposition` (which must be complete) unless `motif`
  /// already has an entry.
  void Insert(const std::string& motif,
              std::shared_ptr<const MotifCoreDecomposition> decomposition);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Heap bytes of the stored entries' arrays.
    uint64_t bytes = 0;
  };
  Stats stats() const;

 private:
  const uint64_t generation_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const MotifCoreDecomposition>>
      entries_;
  Stats stats_;
};

/// The whole-graph decomposition peel, at-least, query, core-exact and
/// inc-app start from: ctx.decompositions' entry for this graph and motif
/// when it has one (no peel runs, `stats.peel` stays zero), else a
/// MotifCoreDecompose whose result is indexed if complete. Sets stats.kmax
/// and stats.decomposition_seconds.
std::shared_ptr<const MotifCoreDecomposition> DecomposeForSolve(
    const Graph& graph, const MotifOracle& oracle, const ExecutionContext& ctx,
    AlgoStats& stats);

/// Restricts `vertices` (ids of `graph`) to the (k, Psi)-core of the induced
/// subgraph G[vertices], never dropping a member of `keep`: the result is
/// the unique maximal subset that contains keep ∩ vertices and in which
/// every other member has motif-degree >= k. Returns it sorted. CoreExact
/// and CoreApp restrict with `keep` empty; QueryDensest keeps Q. Costs at
/// most two degree passes (one over the input, one over its bulk
/// survivors) plus a PeelBatch cascade over the survivors that fall.
/// `input_degree`, when non-empty, holds the motif-degrees within
/// G[vertices] (indexed by vertex id) and replaces the first pass:
/// QueryDensest restricts all of V with its decomposition's degrees.
std::vector<VertexId> RestrictToCore(
    const Graph& graph, const MotifOracle& oracle,
    const std::vector<VertexId>& vertices, uint64_t k,
    const ExecutionContext& ctx = ExecutionContext(),
    std::span<const VertexId> keep = {},
    std::span<const uint64_t> input_degree = {});

}  // namespace dsd

#endif  // DSD_DSD_MOTIF_CORE_H_
