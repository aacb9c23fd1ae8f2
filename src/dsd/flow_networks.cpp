#include "dsd/flow_networks.h"

#include <algorithm>
#include <cassert>

#include "clique/clique_enumerator.h"
#include "flow/flow_network.h"

namespace dsd {

namespace {

using NodeId = FlowNetwork::NodeId;
using ArcId = FlowNetwork::ArcId;

// Common shape of the three constructions: node 0 is s, nodes 1..n are the
// graph vertices, the last node is t; per-vertex source and alpha arcs are
// remembered for retuning. The FlowNetwork and the ExecutionContext it
// solves under live here, as do the warm-start toggle and stats pass-through.
class FlowSolverBase : public DensestFlowSolver {
 public:
  uint64_t NumNodes() const override { return network_->num_nodes(); }

  void ForceToSource(const std::vector<VertexId>& vertices) override {
    for (VertexId v : vertices) {
      network_->SetCapacity(source_arcs_[v], FlowNetwork::kInfinity);
    }
  }

  void SetWarmStart(bool on) override { network_->set_warm_start(on); }

  FlowStats Stats() const override { return network_->stats(); }

  std::vector<VertexId> MaximalSide() const override {
    return GraphVertices(network_->MaximalMinCutSourceSide(Sink()));
  }

 protected:
  FlowSolverBase(VertexId n, const ExecutionContext& ctx) : n_(n), ctx_(ctx) {}

  // Runs the min cut at the current capacities and extracts the graph
  // vertices on the source side.
  std::vector<VertexId> SolveAndExtract() {
    network_->MaxFlow(0, Sink(), ctx_);
    return GraphVertices(network_->MinCutSourceSide(0));
  }

  NodeId Sink() const {
    return static_cast<NodeId>(network_->num_nodes()) - 1;
  }

  // Graph vertices (nodes 1..n) of a node list.
  std::vector<VertexId> GraphVertices(const std::vector<NodeId>& nodes) const {
    std::vector<VertexId> vertices;
    for (NodeId node : nodes) {
      if (node >= 1 && node <= n_) vertices.push_back(node - 1);
    }
    return vertices;
  }

  VertexId n_;
  ExecutionContext ctx_;
  std::unique_ptr<FlowNetwork> network_;
  std::vector<ArcId> alpha_arcs_;
  std::vector<ArcId> source_arcs_;
};

// Goldberg's edge-density network.
class EdsFlowSolver : public FlowSolverBase {
 public:
  EdsFlowSolver(const Graph& graph, const ExecutionContext& ctx)
      : FlowSolverBase(graph.NumVertices(), ctx) {
    m_ = static_cast<double>(graph.NumEdges());
    network_ = std::make_unique<FlowNetwork>(static_cast<NodeId>(n_) + 2);
    const NodeId s = 0;
    const NodeId t = static_cast<NodeId>(n_) + 1;
    alpha_arcs_.reserve(n_);
    source_arcs_.reserve(n_);
    degrees_.reserve(n_);
    for (VertexId v = 0; v < n_; ++v) {
      source_arcs_.push_back(network_->AddArc(s, v + 1, m_));
      degrees_.push_back(static_cast<double>(graph.Degree(v)));
      alpha_arcs_.push_back(network_->AddArc(v + 1, t, m_));
    }
    for (const Edge& e : graph.Edges()) {
      network_->AddArc(e.first + 1, e.second + 1, 1.0);
      network_->AddArc(e.second + 1, e.first + 1, 1.0);
    }
  }

  std::vector<VertexId> Solve(double alpha) override {
    for (VertexId v = 0; v < n_; ++v) {
      network_->SetCapacity(alpha_arcs_[v], m_ + 2.0 * alpha - degrees_[v]);
    }
    return SolveAndExtract();
  }

 private:
  double m_ = 0.0;
  std::vector<double> degrees_;
};

// Algorithm 1's network for h-cliques, h >= 3. Lambda nodes are the
// (h-1)-clique instances.
class CliqueFlowSolver : public FlowSolverBase {
 public:
  CliqueFlowSolver(const Graph& graph, int h, std::vector<uint64_t> degrees,
                   const ExecutionContext& ctx)
      : FlowSolverBase(graph.NumVertices(), ctx), h_(h) {
    assert(h >= 3);
    assert(degrees.size() == graph.NumVertices());
    // Collect Lambda = (h-1)-cliques; `degrees` are the h-clique degrees,
    // supplied by the caller so the pass can run on a parallel or caching
    // oracle instead of a fresh sequential enumeration.
    std::vector<std::vector<VertexId>> lambda;
    CliqueEnumerator sub_cliques(graph, h - 1);
    sub_cliques.Enumerate([&lambda](std::span<const VertexId> c) {
      lambda.emplace_back(c.begin(), c.end());
    });

    const NodeId num_nodes =
        static_cast<NodeId>(n_) + static_cast<NodeId>(lambda.size()) + 2;
    network_ = std::make_unique<FlowNetwork>(num_nodes);
    const NodeId s = 0;
    const NodeId t = num_nodes - 1;

    for (VertexId v = 0; v < n_; ++v) {
      source_arcs_.push_back(
          network_->AddArc(s, v + 1, static_cast<double>(degrees[v])));
      alpha_arcs_.push_back(network_->AddArc(v + 1, t, 0.0));
    }
    // psi -> members (infinite), completions v -> psi (capacity 1).
    std::vector<VertexId> completions;
    for (size_t i = 0; i < lambda.size(); ++i) {
      const NodeId psi = static_cast<NodeId>(n_) + 1 + static_cast<NodeId>(i);
      const std::vector<VertexId>& members = lambda[i];
      for (VertexId v : members) {
        network_->AddArc(psi, v + 1, FlowNetwork::kInfinity);
      }
      // v completes psi iff v is adjacent to every member: intersect the
      // members' sorted adjacency lists.
      completions.assign(graph.Neighbors(members[0]).begin(),
                         graph.Neighbors(members[0]).end());
      std::vector<VertexId> next;
      for (size_t j = 1; j < members.size() && !completions.empty(); ++j) {
        auto nbrs = graph.Neighbors(members[j]);
        next.clear();
        std::set_intersection(completions.begin(), completions.end(),
                              nbrs.begin(), nbrs.end(),
                              std::back_inserter(next));
        completions.swap(next);
      }
      for (VertexId v : completions) {
        network_->AddArc(v + 1, psi, 1.0);
      }
    }
  }

  std::vector<VertexId> Solve(double alpha) override {
    for (VertexId v = 0; v < n_; ++v) {
      network_->SetCapacity(alpha_arcs_[v], alpha * h_);
    }
    return SolveAndExtract();
  }

 private:
  int h_;
};

// Algorithm 8 (grouped = false) / construct+ Algorithm 7 (grouped = true).
class PatternFlowSolver : public FlowSolverBase {
 public:
  PatternFlowSolver(const Graph& graph, const MotifOracle& oracle,
                    bool grouped, const ExecutionContext& ctx)
      : FlowSolverBase(graph.NumVertices(), ctx),
        motif_size_(oracle.MotifSize()) {
    std::vector<InstanceGroup> groups = oracle.Groups(graph, {});
    if (!grouped) {
      // Expand each group into `multiplicity` single-instance nodes,
      // exactly as PExact builds one node per pattern instance.
      std::vector<InstanceGroup> expanded;
      for (const InstanceGroup& g : groups) {
        for (uint64_t i = 0; i < g.multiplicity; ++i) {
          expanded.push_back({g.vertices, 1});
        }
      }
      groups = std::move(expanded);
    }
    std::vector<uint64_t> degrees = oracle.Degrees(graph, {}, ctx);

    const NodeId num_nodes =
        static_cast<NodeId>(n_) + static_cast<NodeId>(groups.size()) + 2;
    network_ = std::make_unique<FlowNetwork>(num_nodes);
    const NodeId s = 0;
    const NodeId t = num_nodes - 1;
    for (VertexId v = 0; v < n_; ++v) {
      source_arcs_.push_back(
          network_->AddArc(s, v + 1, static_cast<double>(degrees[v])));
      alpha_arcs_.push_back(network_->AddArc(v + 1, t, 0.0));
    }
    for (size_t i = 0; i < groups.size(); ++i) {
      const NodeId g = static_cast<NodeId>(n_) + 1 + static_cast<NodeId>(i);
      const double mult = static_cast<double>(groups[i].multiplicity);
      for (VertexId v : groups[i].vertices) {
        network_->AddArc(v + 1, g, mult);
        network_->AddArc(g, v + 1, mult * (motif_size_ - 1));
      }
    }
  }

  std::vector<VertexId> Solve(double alpha) override {
    for (VertexId v = 0; v < n_; ++v) {
      network_->SetCapacity(alpha_arcs_[v], alpha * motif_size_);
    }
    return SolveAndExtract();
  }

 private:
  int motif_size_;
};

}  // namespace

std::unique_ptr<DensestFlowSolver> MakeEdsFlowSolver(
    const Graph& graph, const ExecutionContext& ctx) {
  return std::make_unique<EdsFlowSolver>(graph, ctx);
}

std::unique_ptr<DensestFlowSolver> MakeCliqueFlowSolver(
    const Graph& graph, int h, const ExecutionContext& ctx) {
  // One dispatch path for the degree pass: the clique oracle runs it on
  // ctx.threads workers, and sequentially under a 1-thread context.
  return std::make_unique<CliqueFlowSolver>(
      graph, h, CliqueOracle(h).Degrees(graph, {}, ctx), ctx);
}

std::unique_ptr<DensestFlowSolver> MakePatternFlowSolver(
    const Graph& graph, const MotifOracle& oracle, bool grouped,
    const ExecutionContext& ctx) {
  return std::make_unique<PatternFlowSolver>(graph, oracle, grouped, ctx);
}

std::unique_ptr<DensestFlowSolver> MakeDefaultFlowSolver(
    const Graph& graph, const MotifOracle& oracle,
    const ExecutionContext& ctx) {
  // Dispatch on the undecorated oracle so a CachingOracle around a clique
  // oracle still gets the clique network; the degree pass itself goes
  // through the decorated `oracle`, keeping memoization and parallelism.
  if (const auto* clique =
          dynamic_cast<const CliqueOracle*>(&oracle.Underlying())) {
    if (clique->h() == 2) return MakeEdsFlowSolver(graph, ctx);
    return std::make_unique<CliqueFlowSolver>(
        graph, clique->h(), oracle.Degrees(graph, {}, ctx), ctx);
  }
  return MakePatternFlowSolver(graph, oracle, /*grouped=*/true, ctx);
}

}  // namespace dsd
