#include "flow/flow_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dsd {

FlowNetwork::FlowNetwork(NodeId num_nodes)
    : out_(num_nodes),
      excess_(num_nodes, 0.0),
      height_(num_nodes, 0),
      cursor_(num_nodes, 0),
      queued_(num_nodes, 0) {}

FlowNetwork::ArcId FlowNetwork::AddArc(NodeId from, NodeId to,
                                       double capacity) {
  assert(from < num_nodes() && to < num_nodes());
  assert(capacity >= 0.0);
  const ArcId id = static_cast<ArcId>(to_.size());
  to_.push_back(to);
  capacity_.push_back(capacity);
  residual_.push_back(capacity);
  out_[from].push_back(id);
  to_.push_back(from);
  capacity_.push_back(0.0);
  residual_.push_back(0.0);
  out_[to].push_back(id + 1);
  return id;
}

void FlowNetwork::SetCapacity(ArcId arc, double capacity) {
  assert(arc < num_arcs());
  assert((arc & 1u) == 0 &&
         "SetCapacity takes forward arc ids (as returned by AddArc); "
         "retuning a reverse arc would corrupt the residual invariant");
  assert(capacity >= 0.0);
  if (arc >= num_arcs() || (arc & 1u) != 0) return;  // release-mode reject
  capacity_[arc] = capacity;
  capacity_[arc ^ 1] = 0.0;
  if (!primed_) {
    // No live preflow yet; the upcoming cold start copies capacities, but
    // keep residuals coherent for callers that inspect them pre-solve.
    residual_[arc] = capacity;
    residual_[arc ^ 1] = 0.0;
    return;
  }
  // Live preflow: apply the retune as a residual delta. The reverse
  // configured capacity is 0, so the reverse residual IS the carried flow
  // (this stays finite even when the forward capacity is kInfinity).
  const double flow = residual_[arc ^ 1];
  if (capacity >= flow) {
    residual_[arc] = capacity - flow;
    return;
  }
  // The new capacity no longer covers the carried flow: truncate to
  // `capacity` and hand the surplus back to the tail as excess.
  const double surplus = flow - capacity;
  residual_[arc] = 0.0;
  residual_[arc ^ 1] = capacity;
  const NodeId tail = to_[arc ^ 1];
  const NodeId head = to_[arc];
  if (head == last_t_ && tail != last_t_) {
    excess_[tail] += surplus;
    excess_[last_t_] -= surplus;  // the flow counter at t shrinks
  } else if (head == last_s_ && tail != last_s_) {
    excess_[tail] += surplus;  // flow that had returned to s; reroutable
  } else {
    // Truncating an interior arc leaves its head with more outflow than
    // inflow — a deficit the preflow model cannot carry. The DSD solvers
    // only retune s->v and v->t arcs, so this path never fires there;
    // for generic callers the next MaxFlow falls back to a cold start.
    force_cold_ = true;
  }
}

void FlowNetwork::ColdInit() {
  residual_ = capacity_;
  std::fill(excess_.begin(), excess_.end(), 0.0);
}

/// Exact-distance relabel of every node against the current residual graph:
/// a two-ended BFS from t (height = distance to t) then from s (height =
/// n + distance to s, the phase-2 labels that route trapped excess back to
/// the source). Also resets the arc cursors — exact heights invalidate
/// saved scan positions.
void FlowNetwork::GlobalRelabel(NodeId s, NodeId t) {
  ++stats_.global_relabels;
  const NodeId n = num_nodes();
  const uint32_t unreachable = 2 * n;
  std::fill(height_.begin(), height_.end(), unreachable);
  bfs_queue_.clear();
  height_[t] = 0;
  bfs_queue_.push_back(t);
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId v = bfs_queue_[head];
    const uint32_t dv = height_[v];
    for (const ArcId a : out_[v]) {
      const NodeId w = to_[a];
      // w can still push to v iff the arc w->v (the pair of v's arc a)
      // has residual left.
      if (height_[w] == unreachable && w != s && residual_[a ^ 1] > kEps) {
        height_[w] = dv + 1;
        bfs_queue_.push_back(w);
      }
    }
  }
  height_[s] = n;
  bfs_queue_.clear();
  bfs_queue_.push_back(s);
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId v = bfs_queue_[head];
    const uint32_t dv = height_[v];
    for (const ArcId a : out_[v]) {
      const NodeId w = to_[a];
      if (height_[w] == unreachable && residual_[a ^ 1] > kEps) {
        height_[w] = dv + 1;  // = n + distance-to-s, < 2n
        bfs_queue_.push_back(w);
      }
    }
  }
  // Nodes still at 2n have no residual path to s, so they cannot hold
  // excess (excess always arrives over an arc whose reversal leads back
  // to the source); leaving them parked is safe.
  std::fill(cursor_.begin(), cursor_.end(), 0);
}

void FlowNetwork::BuildFrontier(NodeId s, NodeId t,
                                std::vector<NodeId>& frontier) {
  const NodeId n = num_nodes();
  const uint32_t hmax = 2 * n;
  frontier.clear();
  std::fill(queued_.begin(), queued_.end(), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v != s && v != t && excess_[v] > kEps && height_[v] < hmax) {
      queued_[v] = 1;
      frontier.push_back(v);
    }
  }
}

double FlowNetwork::MaxFlow(NodeId s, NodeId t, const ExecutionContext& ctx) {
  const NodeId n = num_nodes();
  assert(s < n && t < n && s != t);
  (void)n;
  ++stats_.max_flow_calls;
  const bool warm =
      warm_start_ && primed_ && !force_cold_ && s == last_s_ && t == last_t_;
  if (warm) {
    ++stats_.warm_starts;
  } else {
    ColdInit();
  }
  last_s_ = s;
  last_t_ = t;
  primed_ = true;
  force_cold_ = false;

  // Exact heights first, then (re-)saturate the source arcs whose head can
  // still reach t. On a warm start most of these arcs are already
  // saturated (their flow survived the retune), so this pushes only the
  // delta the previous solve bounced back to s.
  GlobalRelabel(s, t);
  // Infinite source arcs (ForceToSource) cannot be saturated literally —
  // infinite excess would go NaN when bounced back to s. Inject a finite
  // surrogate instead: 1 + the sum of finite capacities bounds any s-t
  // flow (every DSD network cuts finitely at t), and capping the
  // outstanding injection at that bound keeps warm restarts from
  // re-injecting flow the previous solve already placed.
  double finite_bound = -1.0;
  for (const ArcId a : out_[s]) {
    double amount = residual_[a];
    if (!(amount > kEps) || height_[to_[a]] >= num_nodes()) continue;
    const NodeId w = to_[a];
    if (std::isinf(amount)) {
      if (finite_bound < 0.0) {
        finite_bound = 1.0;
        for (ArcId f = 0; f < num_arcs(); f += 2) {
          if (!std::isinf(capacity_[f])) finite_bound += capacity_[f];
        }
      }
      amount = finite_bound - residual_[a ^ 1];  // minus flow already placed
      if (!(amount > kEps)) continue;
      // residual_[a] stays infinite: the arc is never saturated, keeping w
      // on the source side of every cut.
    } else {
      residual_[a] = 0.0;
    }
    residual_[a ^ 1] += amount;
    excess_[w] += amount;
  }

  Discharge(s, t, ctx);
  return excess_[t];
}

void FlowNetwork::Discharge(NodeId s, NodeId t, const ExecutionContext& ctx) {
  // Heartbeat: refresh exact heights after ~one residual-graph sweep worth
  // of scan work — the amortised replacement for a per-relabel Gap scan.
  const uint64_t gr_interval =
      std::max<uint64_t>(4ull * num_nodes() + num_arcs(), 1024);
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;
  BuildFrontier(s, t, frontier);
  uint64_t work_since_gr = 0;

  // FIFO rounds: each round discharges the current frontier and collects
  // the nodes it activates; the stop flag and the heartbeat are checked
  // between rounds.
  while (!frontier.empty() && !ctx.ShouldStop()) {
    if (work_since_gr >= gr_interval) {
      GlobalRelabel(s, t);
      BuildFrontier(s, t, frontier);
      work_since_gr = 0;
      continue;
    }
    next.clear();
    for (const NodeId v : frontier) {
      queued_[v] = 0;
      work_since_gr += DischargeNode(v, s, t, next);
    }
    frontier.swap(next);
  }
}

uint64_t FlowNetwork::DischargeNode(NodeId v, NodeId s, NodeId t,
                                    std::vector<NodeId>& next) {
  const uint32_t hmax = 2 * num_nodes();
  const std::vector<ArcId>& arcs = out_[v];
  double& ev = excess_[v];
  if (ev <= kEps) return 0;
  ++stats_.discharges;
  uint64_t work = 0;  // arc scans, for the global-relabel heartbeat
  uint32_t cur = cursor_[v];
  while (ev > kEps) {
    if (cur == arcs.size()) {
      // No admissible arc left: relabel to one above the lowest residual
      // neighbour.
      uint32_t best = hmax;
      for (const ArcId a : arcs) {
        ++work;
        if (residual_[a] > kEps) best = std::min(best, height_[to_[a]] + 1);
      }
      height_[v] = std::max(best, height_[v] + 1);
      ++stats_.relabels;
      cur = 0;
      if (height_[v] >= hmax) break;  // parked: no residual path to s
      continue;
    }
    const ArcId a = arcs[cur];
    const NodeId w = to_[a];
    ++work;
    if (residual_[a] > kEps && height_[v] == height_[w] + 1) {
      const double amount = std::min(ev, residual_[a]);
      residual_[a] -= amount;
      residual_[a ^ 1] += amount;
      ev -= amount;
      excess_[w] += amount;
      ++stats_.pushes;
      if (w != s && w != t && !queued_[w]) {
        queued_[w] = 1;
        next.push_back(w);
      }
      if (ev > kEps) ++cur;  // arc saturated; otherwise stay on it
    } else {
      ++cur;
    }
  }
  cursor_[v] = cur;
  return work;
}

std::vector<FlowNetwork::NodeId> FlowNetwork::MinCutSourceSide(
    NodeId s) const {
  std::vector<char> seen(num_nodes(), 0);
  std::vector<NodeId> stack = {s};
  seen[s] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const ArcId a : out_[v]) {
      if (residual_[a] > kEps && !seen[to_[a]]) {
        seen[to_[a]] = 1;
        stack.push_back(to_[a]);
      }
    }
  }
  std::vector<NodeId> side;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (seen[v]) side.push_back(v);
  }
  return side;
}

std::vector<FlowNetwork::NodeId> FlowNetwork::MaximalMinCutSourceSide(
    NodeId t) const {
  // Reverse residual search from t: u reaches t through arc u->w when the
  // pair of w's out-arc w->u, i.e. u->w, still has residual capacity.
  std::vector<char> reaches_t(num_nodes(), 0);
  std::vector<NodeId> stack = {t};
  reaches_t[t] = 1;
  while (!stack.empty()) {
    const NodeId w = stack.back();
    stack.pop_back();
    for (const ArcId a : out_[w]) {
      const NodeId u = to_[a];
      if (residual_[a ^ 1] > kEps && !reaches_t[u]) {
        reaches_t[u] = 1;
        stack.push_back(u);
      }
    }
  }
  std::vector<NodeId> side;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!reaches_t[v]) side.push_back(v);
  }
  return side;
}

}  // namespace dsd
