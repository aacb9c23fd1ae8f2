// Max-flow / min-cut reference solver (Dinic's algorithm, real-valued
// capacities).
//
// All exact densest-subgraph algorithms in the paper reduce to a sequence of
// minimum st-cut computations on flow networks whose v->t capacities depend
// on the density guess alpha. The solvers run on the warm-started
// FlowNetwork (flow/flow_network.h); this cold-start Dinic is the
// independent reference the flow tests and bench_ablation compare it
// against. It supports
//   * building the network structure once,
//   * retuning individual arc capacities (SetCapacity) between solves, and
//   * extracting the source side S of a minimum cut after MaxFlow().
//
// Capacities are doubles: the networks mix integral capacities with
// alpha-dependent ones, where alpha is a midpoint of Exact's bisection or a
// set density of the Dinkelbach search (the authors' reference
// implementation also uses doubles). Comparisons use an
// epsilon far below the paper's 1/(n(n-1)) density-separation bound.
#ifndef DSD_FLOW_MAX_FLOW_H_
#define DSD_FLOW_MAX_FLOW_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace dsd {

/// Dinic max-flow on a directed network with real capacities.
class MaxFlowNetwork {
 public:
  using NodeId = uint32_t;
  using ArcId = uint32_t;

  /// Capacity treated as unbounded.
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Residual amounts below this are considered zero.
  static constexpr double kEps = 1e-9;

  /// Creates a network with `num_nodes` nodes and no arcs.
  explicit MaxFlowNetwork(NodeId num_nodes);

  /// Adds a directed arc from `from` to `to` with the given capacity and a
  /// zero-capacity reverse arc. Returns the arc id (use with SetCapacity).
  ArcId AddArc(NodeId from, NodeId to, double capacity);

  /// Retunes the capacity of an existing arc (takes effect at next MaxFlow).
  void SetCapacity(ArcId arc, double capacity);

  NodeId num_nodes() const { return static_cast<NodeId>(out_.size()); }
  ArcId num_arcs() const { return static_cast<ArcId>(to_.size()); }

  /// Computes the max flow from s to t. Resets any previous flow.
  /// Runs in O(V^2 E) worst case; the unit-capacity-heavy DSD networks
  /// behave far better in practice.
  double MaxFlow(NodeId s, NodeId t);

  /// After MaxFlow(s, t): the nodes reachable from s in the residual
  /// network — the source side S of a minimum st-cut. Sorted.
  std::vector<NodeId> MinCutSourceSide(NodeId s) const;

 private:
  bool BuildLevels(NodeId s, NodeId t);
  double Push(NodeId v, NodeId t, double limit);

  // Arcs stored in pairs; arc^1 is the reverse arc.
  std::vector<std::vector<ArcId>> out_;   // per node: incident arc ids
  std::vector<NodeId> to_;                // per arc: head node
  std::vector<double> residual_;          // per arc: residual capacity
  std::vector<double> initial_capacity_;  // per arc: configured capacity

  std::vector<uint32_t> level_;
  std::vector<uint32_t> iter_;
};

}  // namespace dsd

#endif  // DSD_FLOW_MAX_FLOW_H_
