#include "dsd/solver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dsd/core_app.h"
#include "dsd/core_exact.h"
#include "dsd/exact.h"
#include "dsd/extensions.h"
#include "dsd/inc_app.h"
#include "dsd/oracle_factory.h"
#include "dsd/peel_app.h"
#include "dsd/query_densest.h"
#include "parallel/parallel_for.h"
#include "util/timer.h"

namespace dsd {

namespace {

using RunFn = DensestResult (*)(const Graph&, const MotifOracle&,
                                const SolveRequest&, const ExecutionContext&);
using ValidateFn = Status (*)(const Graph&, const SolveRequest&);

/// Adapter turning a (run, validate) function pair into a Solver, so the
/// built-in algorithms need no class each. `max_threads` declares how many
/// workers the algorithm can exploit (1 = sequential).
class FunctionSolver : public Solver {
 public:
  FunctionSolver(std::string name, std::string description, RunFn run,
                 ValidateFn validate, unsigned max_threads)
      : name_(std::move(name)),
        description_(std::move(description)),
        run_(run),
        validate_(validate),
        max_threads_(max_threads) {}

  std::string Name() const override { return name_; }
  std::string Description() const override { return description_; }
  unsigned MaxThreads() const override { return max_threads_; }

  Status Validate(const Graph& graph,
                  const SolveRequest& request) const override {
    return validate_ != nullptr ? validate_(graph, request) : Status::Ok();
  }

  DensestResult Run(const Graph& graph, const MotifOracle& oracle,
                    const SolveRequest& request,
                    const ExecutionContext& ctx) const override {
    return run_(graph, oracle, request, ctx);
  }

 private:
  std::string name_;
  std::string description_;
  RunFn run_;
  ValidateFn validate_;
  unsigned max_threads_;
};

Status RequireMinSize(const Graph& graph, const SolveRequest& request) {
  (void)graph;
  if (request.min_size == 0) {
    return Status::InvalidArgument(
        "algorithm 'at-least' requires min_size >= 1");
  }
  return Status::Ok();
}

Status RequireSeeds(const Graph& graph, const SolveRequest& request) {
  (void)graph;
  if (request.seeds.empty()) {
    return Status::InvalidArgument(
        "algorithm 'query' requires at least one seed vertex");
  }
  return Status::Ok();
}

constexpr unsigned kAnyThreads = std::numeric_limits<unsigned>::max();

/// The worker budget an algorithm can actually spend: the request's
/// resolved count clamped by the solver's declared capability. Solve uses
/// it to pick the oracle implementation; RunSolve narrows it once more by
/// the oracle's own MaxUsefulThreads() for the context and the stats.
unsigned ClampedThreadBudget(unsigned requested, const Solver& solver) {
  return std::min(ResolveThreadCount(requested), solver.MaxThreads());
}

void RegisterBuiltins(SolverRegistry& registry) {
  auto add = [&registry](std::string name, std::string description, RunFn run,
                         ValidateFn validate = nullptr,
                         unsigned max_threads = kAnyThreads) {
    Status status = registry.Register(std::make_unique<FunctionSolver>(
        std::move(name), std::move(description), run, validate, max_threads));
    (void)status;  // Built-in names are distinct by construction.
  };
  add("exact",
      "whole-graph flow binary search (Algorithm 1; the evaluation baseline)",
      [](const Graph& g, const MotifOracle& o, const SolveRequest&,
         const ExecutionContext& ctx) { return Exact(g, o, ctx); });
  add("core-exact",
      "core-located exact search (Algorithm 4; CorePExact for patterns)",
      [](const Graph& g, const MotifOracle& o, const SolveRequest&,
         const ExecutionContext& ctx) {
        return CoreExact(g, o, CoreExactOptions(), ctx);
      });
  add("peel",
      "greedy min-degree peeling, 1/|V_Psi| approximation (Algorithm 2)",
      [](const Graph& g, const MotifOracle& o, const SolveRequest&,
         const ExecutionContext& ctx) { return PeelApp(g, o, ctx); });
  // IncApp is Algorithm 5 kept faithful: a bottom-up decomposition whose
  // removals form a data-dependence chain, measured as the sequential
  // baseline CoreApp is compared against — so it declines the thread budget
  // rather than silently becoming a different algorithm.
  add("inc-app",
      "bottom-up (kmax, Psi)-core, 1/|V_Psi| approximation (Algorithm 5)",
      [](const Graph& g, const MotifOracle& o, const SolveRequest&,
         const ExecutionContext& ctx) {
        return IncApp(g, o, ctx.WithThreads(1));
      },
      nullptr, /*max_threads=*/1);
  add("core-app",
      "top-down (kmax, Psi)-core, 1/|V_Psi| approximation (Algorithm 6)",
      [](const Graph& g, const MotifOracle& o, const SolveRequest&,
         const ExecutionContext& ctx) {
        return CoreApp(g, o, CoreAppOptions(), ctx);
      });
  // StreamApp models semi-streaming passes that read the graph once,
  // sequentially, from storage; a thread pool would contradict the access
  // model whose pass count the stats report.
  add("stream",
      "multi-pass streaming peeling with slack eps (Bahmani et al.)",
      [](const Graph& g, const MotifOracle& o, const SolveRequest& r,
         const ExecutionContext& ctx) {
        return StreamApp(g, o, r.eps, ctx.WithThreads(1));
      },
      nullptr, /*max_threads=*/1);
  add("at-least",
      "densest subgraph with at least min_size vertices (greedy residual)",
      [](const Graph& g, const MotifOracle& o, const SolveRequest& r,
         const ExecutionContext& ctx) {
        return DensestAtLeast(g, o, r.min_size, ctx);
      },
      &RequireMinSize);
  add("query",
      "densest subgraph containing every seed vertex (Section 6.3 variant)",
      [](const Graph& g, const MotifOracle& o, const SolveRequest& r,
         const ExecutionContext& ctx) {
        return QueryDensest(g, o, r.seeds, ctx);
      },
      &RequireSeeds);
}

/// Checks the algorithm-independent request fields and canonicalises the
/// seed list (sorted, duplicates dropped) in place.
Status SanitizeRequest(const Graph& graph, SolveRequest& request,
                       SolveStats& stats) {
  if (!std::isfinite(request.eps) || request.eps <= 0.0) {
    return Status::InvalidArgument("eps must be finite and > 0");
  }
  if (request.threads > SolveRequest::kMaxThreadBudget) {
    return Status::InvalidArgument(
        "threads must be <= " +
        std::to_string(SolveRequest::kMaxThreadBudget) + " (0 = auto), got " +
        std::to_string(request.threads));
  }
  if (std::isnan(request.time_budget_seconds) ||
      request.time_budget_seconds < 0.0) {
    return Status::InvalidArgument(
        "time_budget_seconds must be >= 0 (0 = unlimited)");
  }
  for (VertexId seed : request.seeds) {
    if (seed >= graph.NumVertices()) {
      return Status::InvalidArgument(
          "seed vertex " + std::to_string(seed) + " out of range [0, " +
          std::to_string(graph.NumVertices()) + ")");
    }
  }
  const size_t before = request.seeds.size();
  std::sort(request.seeds.begin(), request.seeds.end());
  request.seeds.erase(
      std::unique(request.seeds.begin(), request.seeds.end()),
      request.seeds.end());
  stats.seeds_deduplicated = before - request.seeds.size();
  request.threads = ResolveThreadCount(request.threads);
  return Status::Ok();
}

StatusOr<SolveResponse> RunSolve(const Graph& graph, const Solver& solver,
                                 const MotifOracle& oracle,
                                 SolveRequest request, Timer timer,
                                 DecompositionIndex* decompositions) {
  SolveResponse response;
  response.stats.algorithm = solver.Name();
  response.stats.motif = oracle.Name();
  Status status = SanitizeRequest(graph, request, response.stats);
  if (!status.ok()) return status;
  status = solver.Validate(graph, request);
  if (!status.ok()) return status;

  // The context carries what the run will actually use: the budget clamped
  // by the algorithm's and the oracle's parallel capability, and the time
  // budget as a wall-clock deadline for cooperative early exit.
  ExecutionContext ctx;
  ctx.threads = std::min(ClampedThreadBudget(request.threads, solver),
                         oracle.MaxUsefulThreads());
  if (request.time_budget_seconds > 0.0) {
    ctx = ctx.WithDeadlineAfter(request.time_budget_seconds -
                                timer.Seconds());
  }
  ctx.decompositions = decompositions;
  response.stats.threads = ctx.threads;

  response.result = solver.Run(graph, oracle, request, ctx);
  response.stats.wall_seconds = timer.Seconds();
  if (request.time_budget_seconds > 0.0 &&
      response.stats.wall_seconds > request.time_budget_seconds) {
    return Status::DeadlineExceeded(
        "solve took " + std::to_string(response.stats.wall_seconds) +
        "s, over the " + std::to_string(request.time_budget_seconds) +
        "s budget");
  }
  return response;
}

}  // namespace

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

Status SolverRegistry::Register(std::unique_ptr<Solver> solver) {
  if (solver == nullptr || solver->Name().empty()) {
    return Status::InvalidArgument("solver must have a non-empty name");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (FindLocked(solver->Name()) != nullptr) {
    return Status::InvalidArgument("algorithm '" + solver->Name() +
                                   "' is already registered");
  }
  solvers_.push_back(std::move(solver));
  return Status::Ok();
}

const Solver* SolverRegistry::FindLocked(std::string_view name) const {
  // Returned pointers stay valid across later registrations: solvers_ holds
  // unique_ptrs, so the Solver objects never move when the vector grows.
  for (const std::unique_ptr<Solver>& solver : solvers_) {
    if (solver->Name() == name) return solver.get();
  }
  return nullptr;
}

const Solver* SolverRegistry::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindLocked(name);
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    names.reserve(solvers_.size());
    for (const std::unique_ptr<Solver>& solver : solvers_) {
      names.push_back(solver->Name());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

StatusOr<std::unique_ptr<MotifOracle>> ParseMotif(const std::string& name) {
  return MakeOracle(name);
}

std::vector<std::string> KnownMotifNames() {
  return OracleFactory::Global().Names();
}

StatusOr<SolveResponse> Solve(const Graph& graph,
                              const SolveRequest& request) {
  Timer timer;
  const Solver* solver = SolverRegistry::Global().Find(request.algorithm);
  if (solver == nullptr) {
    return Status::NotFound("unknown algorithm '" + request.algorithm + "'");
  }
  // Build the oracle for the budget the algorithm can actually spend, with
  // memoization for the repeated core sub-queries. RunSolve derives the
  // context from the same ClampedThreadBudget, so oracle and stats agree.
  OracleOptions options;
  options.threads = ClampedThreadBudget(request.threads, *solver);
  options.cache = true;
  StatusOr<std::unique_ptr<MotifOracle>> oracle =
      MakeOracle(request.motif, options);
  if (!oracle.ok()) return oracle.status();
  return RunSolve(graph, *solver, *oracle.value(), request, timer,
                  /*decompositions=*/nullptr);
}

StatusOr<SolveResponse> Solve(const Graph& graph, const MotifOracle& oracle,
                              const SolveRequest& request,
                              DecompositionIndex* decompositions) {
  Timer timer;
  const Solver* solver = SolverRegistry::Global().Find(request.algorithm);
  if (solver == nullptr) {
    return Status::NotFound("unknown algorithm '" + request.algorithm + "'");
  }
  return RunSolve(graph, *solver, oracle, request, timer, decompositions);
}

}  // namespace dsd
