// FlowNetwork: the max-flow / min-cut engine behind the exact DSD
// algorithms — sequential FIFO push-relabel, warm-startable across
// capacity retunes.
//
// The paper's exact algorithms answer every density guess alpha with a
// minimum st-cut on a network whose structure never changes; only the
// v->t capacities move with alpha. The Dinic reference (flow/max_flow.h)
// rebuilds the residual state from scratch on every MaxFlow call, so each
// guess re-routes all the flow the previous guess already placed.
// FlowNetwork keeps the preflow alive instead:
//
//   * SetCapacity applies the change to the residuals in place. Flow
//     already on the arc survives while the new capacity covers it; a
//     decrease below the carried flow returns the surplus to the arc's
//     tail as excess for the next solve.
//   * MaxFlow warm-starts from the surviving preflow: a global relabel
//     recomputes exact heights for the current residual graph, source arcs
//     whose head can still reach t are re-saturated, and discharge routes
//     only the delta. Cold starts (the first call, after
//     set_warm_start(false), a changed (s, t) pair, or a retune the warm
//     path cannot absorb) reset residuals to the configured capacities.
//   * Discharge works through FIFO rounds of active nodes, with a
//     global-relabel heartbeat in place of a per-relabel Gap scan.
//
// Determinism: for capacities on which double arithmetic is exact (the
// integral and dyadic-rational mixes the DSD networks use), the max-flow
// value is unique, MinCutSourceSide returns the unique inclusion-minimal
// source side and MaximalMinCutSourceSide the unique inclusion-maximal
// one — both bit-identical across warm/cold starts. The differential
// suites (tests/flow_network_test.cpp, tests/flow_differential_test.cpp)
// enforce this against cold-start networks and the Dinic reference.
//
// Cooperative stop: MaxFlow polls ctx.ShouldStop() between discharge
// rounds and returns the flow routed so far. The preflow stays consistent,
// so a later MaxFlow call resumes where the truncated one stopped; only
// then is MinCutSourceSide meaningful again.
#ifndef DSD_FLOW_FLOW_NETWORK_H_
#define DSD_FLOW_FLOW_NETWORK_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "dsd/execution_context.h"

namespace dsd {

/// Work counters, cumulative across MaxFlow calls (ResetStats() clears).
/// bench_flow reports these to show warm starts doing less work than
/// cold-start-per-iteration on the same density search.
struct FlowStats {
  uint64_t max_flow_calls = 0;
  uint64_t warm_starts = 0;       // calls that reused the previous preflow
  uint64_t discharges = 0;        // node visits in the discharge loop
  uint64_t pushes = 0;
  uint64_t relabels = 0;
  uint64_t global_relabels = 0;

  FlowStats& operator+=(const FlowStats& other) {
    max_flow_calls += other.max_flow_calls;
    warm_starts += other.warm_starts;
    discharges += other.discharges;
    pushes += other.pushes;
    relabels += other.relabels;
    global_relabels += other.global_relabels;
    return *this;
  }
};

/// Warm-startable push-relabel max-flow with real capacities.
class FlowNetwork {
 public:
  using NodeId = uint32_t;
  using ArcId = uint32_t;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();
  static constexpr double kEps = 1e-9;

  explicit FlowNetwork(NodeId num_nodes);

  /// Adds arc from->to with `capacity` >= 0 and a zero-capacity reverse
  /// arc; returns the forward arc id (always even).
  ArcId AddArc(NodeId from, NodeId to, double capacity);

  /// Retunes a forward arc's capacity as an in-place residual delta (see
  /// file comment). Reverse (odd) arc ids are a caller bug: they would
  /// silently corrupt the residual invariant, so they are rejected —
  /// assert in debug builds, ignored (no state change) in release builds.
  /// The paired reverse capacity is explicitly reset to zero.
  void SetCapacity(ArcId arc, double capacity);

  /// Configured capacity of a forward arc.
  double Capacity(ArcId arc) const { return capacity_[arc]; }

  NodeId num_nodes() const { return static_cast<NodeId>(out_.size()); }
  ArcId num_arcs() const { return static_cast<ArcId>(to_.size()); }

  /// Max flow from s to t; warm-starts when possible (see file comment).
  /// Only ctx's cooperative stop is read; the solve is single-threaded.
  double MaxFlow(NodeId s, NodeId t,
                 const ExecutionContext& ctx = ExecutionContext());

  /// After a completed MaxFlow(s, t): the source side of the minimum cut
  /// (residual reachability from s), sorted. For exact-arithmetic
  /// capacities this is the unique minimal min cut, independent of
  /// warm/cold history.
  std::vector<NodeId> MinCutSourceSide(NodeId s) const;

  /// After a completed MaxFlow(s, t): the source side of the sink-side-
  /// minimal minimum cut (every node that cannot reach t in the residual
  /// graph), sorted. The unique inclusion-maximal min-cut source side; it
  /// contains MinCutSourceSide(s).
  std::vector<NodeId> MaximalMinCutSourceSide(NodeId t) const;

  /// When off, every MaxFlow call re-routes from scratch (the ablation
  /// baseline bench_flow compares against). Default on.
  void set_warm_start(bool on) { warm_start_ = on; }
  bool warm_start() const { return warm_start_; }

  const FlowStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FlowStats(); }

 private:
  void ColdInit();
  void GlobalRelabel(NodeId s, NodeId t);
  void BuildFrontier(NodeId s, NodeId t, std::vector<NodeId>& frontier);
  void Discharge(NodeId s, NodeId t, const ExecutionContext& ctx);
  /// Pushes v's excess out, relabelling as needed; activated nodes are
  /// appended to `next`. Returns the arcs scanned.
  uint64_t DischargeNode(NodeId v, NodeId s, NodeId t,
                         std::vector<NodeId>& next);

  // Arcs stored in pairs; arc^1 is the paired arc, to_[arc^1] the tail.
  std::vector<std::vector<ArcId>> out_;
  std::vector<NodeId> to_;
  std::vector<double> capacity_;  // configured; reverse arcs hold 0
  std::vector<double> residual_;

  std::vector<double> excess_;
  std::vector<uint32_t> height_;
  std::vector<uint32_t> cursor_;  // current-arc pointer per node
  std::vector<uint8_t> queued_;   // on the current or next frontier

  bool warm_start_ = true;
  bool primed_ = false;      // a MaxFlow has run; residual state is live
  bool force_cold_ = false;  // a retune the warm path cannot absorb
  NodeId last_s_ = 0;
  NodeId last_t_ = 0;
  FlowStats stats_;

  std::vector<NodeId> bfs_queue_;  // global-relabel scratch
};

}  // namespace dsd

#endif  // DSD_FLOW_FLOW_NETWORK_H_
