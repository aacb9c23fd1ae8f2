#include "dsd/core_exact.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "dsd/flow_networks.h"
#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "graph/connectivity.h"
#include "graph/subgraph.h"
#include "util/timer.h"

namespace dsd {

namespace {

// Ceil of a lower-bound density, as a core order (Lemma 7).
uint64_t CeilLevel(double density) {
  return static_cast<uint64_t>(std::ceil(density));
}

// Connected components of G[vertices], as parent-id vertex lists.
std::vector<std::vector<VertexId>> ComponentsOf(
    const Graph& graph, const std::vector<VertexId>& vertices) {
  Subgraph sub = InducedSubgraph(graph, vertices);
  std::vector<std::vector<VertexId>> components;
  for (const std::vector<VertexId>& group :
       ConnectedComponents(sub.graph).Groups()) {
    components.push_back(sub.ToParent(group));
  }
  return components;
}

}  // namespace

DensestResult CoreExact(const Graph& graph, const MotifOracle& oracle,
                        const CoreExactOptions& options,
                        const ExecutionContext& ctx) {
  Timer total_timer;
  DensestResult result;
  const VertexId n = graph.NumVertices();
  const int h = oracle.MotifSize();
  if (n < 2) {
    FillResult(graph, oracle, {}, result, ctx);
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }

  // Step 1: (k, Psi)-core decomposition (Algorithm 3), with residual-density
  // tracking for Pruning1.
  const std::shared_ptr<const MotifCoreDecomposition> decomposition =
      DecomposeForSolve(graph, oracle, ctx, result.stats);
  if (decomposition->kmax == 0) {
    // No motif instance anywhere: density 0, empty answer.
    FillResult(graph, oracle, {}, result, ctx);
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }

  // Step 2: bounds and initial location. Theorem 1 gives
  // kmax/|V_Psi| <= rho_opt <= kmax; Pruning1 tightens the lower bound to
  // rho' (best residual density during peeling, itself >= kmax/|V_Psi|).
  double lower = static_cast<double>(decomposition->kmax) / h;
  std::vector<VertexId> initial_best =
      decomposition->CoreVertices(decomposition->kmax);
  if (options.pruning1) {
    lower = decomposition->best_residual_density;
    initial_best = decomposition->BestResidualVertices();
  }
  double upper = static_cast<double>(decomposition->kmax);
  uint64_t core_level = CeilLevel(lower);

  std::vector<std::vector<VertexId>> components =
      ComponentsOf(graph, decomposition->CoreVertices(core_level));

  // Pruning2: per-component densities raise the lower bound and core level.
  if (options.pruning2) {
    double rho2 = 0.0;
    size_t argmax = 0;
    std::vector<double> densities(components.size(), 0.0);
    for (size_t i = 0; i < components.size(); ++i) {
      densities[i] = MeasureDensity(graph, oracle, components[i], ctx);
      if (densities[i] > rho2) {
        rho2 = densities[i];
        argmax = i;
      }
    }
    if (!components.empty() && rho2 > lower) {
      lower = rho2;
      initial_best = components[argmax];
    }
    if (CeilLevel(rho2) > core_level) {
      core_level = CeilLevel(rho2);
      components = ComponentsOf(graph, decomposition->CoreVertices(core_level));
      densities.assign(components.size(), 0.0);
      for (size_t i = 0; i < components.size(); ++i) {
        densities[i] = MeasureDensity(graph, oracle, components[i], ctx);
      }
    }
    // Process densest components first: they raise `lower` early and let the
    // initial feasibility check skip the rest.
    std::vector<size_t> order(components.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&densities](size_t a, size_t b) {
      return densities[a] > densities[b];
    });
    std::vector<std::vector<VertexId>> sorted;
    sorted.reserve(components.size());
    for (size_t i : order) sorted.push_back(std::move(components[i]));
    components = std::move(sorted);
  }

  for (const std::vector<VertexId>& component : components) {
    result.stats.located_vertices += component.size();
  }
  if (options.track_network_sizes) {
    // Figure 9's x = -1: the network Algorithm 1 would build on all of G.
    result.stats.flow_network_sizes.push_back(
        MakeDefaultFlowSolver(graph, oracle, ctx)->NumNodes());
  }

  // Step 3: per-component binary search on ever-shrinking cores.
  const double global_gap = 1.0 / (static_cast<double>(n) * (n - 1));
  std::vector<VertexId> best = std::move(initial_best);
  double best_density = MeasureDensity(graph, oracle, best, ctx);

  for (std::vector<VertexId> component : components) {
    if (ctx.ShouldStop()) break;
    uint64_t applied_level = core_level;
    if (CeilLevel(lower) > applied_level) {
      applied_level = CeilLevel(lower);
      component = RestrictToCore(graph, oracle, component, applied_level, ctx);
    }
    if (component.size() < 2) continue;

    Subgraph sub = InducedSubgraph(graph, component);
    std::unique_ptr<DensestFlowSolver> solver =
        MakeDefaultFlowSolver(sub.graph, oracle, ctx);
    solver->SetWarmStart(options.flow_warm_start);
    if (options.track_network_sizes) {
      result.stats.flow_network_sizes.push_back(solver->NumNodes());
    }

    // Initial feasibility: can this component beat the current lower bound?
    std::vector<VertexId> side = solver->Solve(lower);
    ++result.stats.binary_search_iterations;
    if (side.empty()) {
      AccumulateFlowStats(*solver, result.stats);
      continue;
    }
    std::vector<VertexId> candidate = sub.ToParent(side);

    const double gap =
        options.pruning3
            ? 1.0 / (static_cast<double>(component.size()) *
                     (static_cast<double>(component.size()) - 1))
            : global_gap;
    while (upper - lower >= gap && !ctx.ShouldStop()) {
      const double alpha = (lower + upper) / 2.0;
      side = solver->Solve(alpha);
      ++result.stats.binary_search_iterations;
      if (options.track_network_sizes) {
        result.stats.flow_network_sizes.push_back(solver->NumNodes());
      }
      if (side.empty()) {
        upper = alpha;
        continue;
      }
      candidate = sub.ToParent(side);
      lower = alpha;
      // A denser subgraph exists, so the CDS lives in a higher core
      // (Lemma 7): shrink the component and rebuild a smaller network.
      if (CeilLevel(alpha) > applied_level) {
        applied_level = CeilLevel(alpha);
        component =
            RestrictToCore(graph, oracle, component, applied_level, ctx);
        if (component.size() < 2) break;
        sub = InducedSubgraph(graph, component);
        AccumulateFlowStats(*solver, result.stats);
        solver = MakeDefaultFlowSolver(sub.graph, oracle, ctx);
        solver->SetWarmStart(options.flow_warm_start);
      }
    }
    AccumulateFlowStats(*solver, result.stats);

    const double candidate_density =
        MeasureDensity(graph, oracle, candidate, ctx);
    if (candidate_density > best_density) {
      best_density = candidate_density;
      best = std::move(candidate);
    }
  }

  FillResult(graph, oracle, std::move(best), result, ctx);
  result.stats.total_seconds = total_timer.Seconds();
  return result;
}

DensestResult CorePExact(const Graph& graph, const PatternOracle& oracle,
                         const CoreExactOptions& options,
                         const ExecutionContext& ctx) {
  return CoreExact(graph, oracle, options, ctx);
}

}  // namespace dsd
