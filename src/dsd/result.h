// Result and instrumentation types shared by all DSD algorithms.
#ifndef DSD_DSD_RESULT_H_
#define DSD_DSD_RESULT_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace dsd {

/// Instrumentation of the batch-bracket peel engine (MotifCoreDecompose).
/// The engine counts each bracket of positive degree (one
/// MotifOracle::PeelBatch call; a degree-0 bracket makes none) and then
/// applies it on the same thread, so apply_stall_ns == refill_ns and
/// speculation_hits == 0 always. Both fields stay for the struct's existing
/// readers until a per-solve phase trace replaces it.
struct PeelEngineStats {
  /// Brackets processed, degree-0 brackets included.
  uint64_t brackets = 0;
  /// Always 0: no bracket is counted ahead of its pop.
  uint64_t speculation_hits = 0;
  /// Nanoseconds the solve thread spent blocked on counting; equals
  /// refill_ns.
  uint64_t apply_stall_ns = 0;
  /// Total nanoseconds spent counting brackets (inside PeelBatch calls).
  uint64_t refill_ns = 0;

  /// Accumulates another decomposition's counters (one solve may run many
  /// decompositions, e.g. CoreApp's windows).
  void Add(const PeelEngineStats& other) {
    brackets += other.brackets;
    speculation_hits += other.speculation_hits;
    apply_stall_ns += other.apply_stall_ns;
    refill_ns += other.refill_ns;
  }
};

/// Per-run instrumentation. Populated opportunistically by each algorithm;
/// consumed by the reproduction harness (Figure 9, Figure 10, Table 3).
struct AlgoStats {
  /// Wall-clock total.
  double total_seconds = 0.0;
  /// Time spent in (k, Psi)-core decomposition (Table 3 numerator).
  double decomposition_seconds = 0.0;
  /// Flow solves of the density search: Exact's bisection steps, or the
  /// Dinkelbach iterations of CoreExact and QueryDensest (summed over
  /// components). StreamApp reuses it as its pass count.
  int binary_search_iterations = 0;
  /// Flow-network node counts: entry 0 is the network the baseline would
  /// build on the whole graph, then one entry per network the run built —
  /// CoreExact builds one per searched component (Figure 9's x-axis -1, 0,
  /// 1, ...).
  std::vector<uint64_t> flow_network_sizes;
  /// Maximum motif-core number kmax, when the algorithm computes it.
  uint32_t kmax = 0;
  /// Vertices of the subgraph the CDS was located in before flow search.
  uint64_t located_vertices = 0;
  /// Flow-engine work counters, summed over every min cut the run solved
  /// (exact/core-exact only). warm_starts counts the MaxFlow calls that
  /// reused the previous guess's preflow instead of re-routing from
  /// scratch; discharges/pushes/relabels/global_relabels are the knobs
  /// BENCH_flow.json compares warm vs. cold on.
  uint64_t flow_max_flow_calls = 0;
  uint64_t flow_warm_starts = 0;
  uint64_t flow_discharges = 0;
  uint64_t flow_pushes = 0;
  uint64_t flow_relabels = 0;
  uint64_t flow_global_relabels = 0;
  /// Peel-engine counters, summed over every decomposition the run
  /// executed (peel/core-app/at-least/inc-app and CoreExact's location
  /// pass). All zero for runs that never peeled.
  PeelEngineStats peel;
};

/// A densest-subgraph answer.
struct DensestResult {
  /// Vertices of the returned subgraph (ids of the input graph), sorted.
  std::vector<VertexId> vertices;
  /// mu(D, Psi): number of motif instances in the subgraph.
  uint64_t instances = 0;
  /// rho(D, Psi) = instances / |vertices| (0 for an empty result).
  double density = 0.0;
  AlgoStats stats;
};

}  // namespace dsd

#endif  // DSD_DSD_RESULT_H_
