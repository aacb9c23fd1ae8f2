#include "dsd/core_exact.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>

#include "dsd/dinkelbach.h"
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

  // Step 2: start density and initial location. Theorem 1 gives
  // kmax/|V_Psi| <= rho_opt <= kmax, and the kmax-core attains at least the
  // lower bound; Pruning1 starts from rho' (the best residual density seen
  // during peeling) and locates in the ceil(rho')-core instead.
  std::vector<VertexId> best;
  double best_density = 0.0;
  uint64_t core_level = 0;
  if (options.pruning1) {
    best = decomposition->BestResidualVertices();
    best_density = decomposition->best_residual_density;
    core_level = CeilLevel(best_density);
  } else {
    best = decomposition->CoreVertices(decomposition->kmax);
    const std::optional<double> density =
        decomposition->CoreDensity(decomposition->kmax);
    best_density =
        density ? *density : MeasureDensity(graph, oracle, best, ctx);
    core_level = CeilLevel(static_cast<double>(decomposition->kmax) / h);
  }

  std::vector<std::vector<VertexId>> components =
      ComponentsOf(graph, decomposition->CoreVertices(core_level));

  // Pruning2: per-component densities raise the start density and core
  // level.
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
    if (!components.empty() && rho2 > best_density) {
      best_density = rho2;
      best = components[argmax];
    }
    if (CeilLevel(rho2) > core_level) {
      core_level = CeilLevel(rho2);
      components = ComponentsOf(graph, decomposition->CoreVertices(core_level));
      densities.assign(components.size(), 0.0);
      for (size_t i = 0; i < components.size(); ++i) {
        densities[i] = MeasureDensity(graph, oracle, components[i], ctx);
      }
    }
    // Process densest components first: they raise the start density early,
    // which lets the later components restrict to a higher core.
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

  // Step 3: one Dinkelbach search per component, each started from the
  // best density so far.
  for (std::vector<VertexId> component : components) {
    if (ctx.ShouldStop()) break;
    // Lemma 7 between components: once a denser set is known, the CDS lies
    // in a higher core, so this component's network is built on that core.
    if (CeilLevel(best_density) > core_level) {
      component = RestrictToCore(graph, oracle, component,
                                 CeilLevel(best_density), ctx);
    }
    if (component.size() < 2) continue;

    Subgraph sub = InducedSubgraph(graph, component);
    std::unique_ptr<DensestFlowSolver> solver =
        MakeDefaultFlowSolver(sub.graph, oracle, ctx);
    solver->SetWarmStart(options.flow_warm_start);
    if (options.track_network_sizes) {
      result.stats.flow_network_sizes.push_back(solver->NumNodes());
    }
    DensitySearch found = DinkelbachSearch(graph, oracle, sub, *solver,
                                           best_density, ctx, result.stats);
    AccumulateFlowStats(*solver, result.stats);
    if (found.density > best_density) {
      best_density = found.density;
      best = std::move(found.vertices);
    } else if (!found.vertices.empty() && found.density == best_density) {
      // A tie: motif counts are supermodular, so the union of two optimal
      // sets is optimal, and keeping it returns the unique largest CDS.
      std::vector<VertexId> merged;
      std::set_union(best.begin(), best.end(), found.vertices.begin(),
                     found.vertices.end(), std::back_inserter(merged));
      best = std::move(merged);
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
