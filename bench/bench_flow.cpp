// Flow-engine bench: exact and core-exact on registry datasets, sweeping
// thread budgets and the warm-start toggle, emitting one JSON record per
// run (BENCH_flow.json via scripts/run_bench.sh) with the FlowNetwork work
// counters so the warm-vs-cold gap is machine-readable.
//
// Fail-loud contracts (exit 1), like bench_peel:
//   * every run of the same algo x dataset cell must return the identical
//     densest subgraph — bit-identical vertices and density across threads
//     {1, 2, 4, auto} and warm/cold flow search;
//   * on the core-exact pl-100k cell, the warm-started flow search must
//     do strictly less discharge+relabel work than the cold ablation and
//     must actually warm-start (warm_starts > 0).
//
// exact on pl-1m (a ~4.5 s whole-graph flow per run) only joins the grid
// under DSD_BENCH_SCALE=large.
//
// Usage: bench_flow [output.json]   (stdout when no path is given)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dsd/core_exact.h"
#include "dsd/exact.h"
#include "dsd/motif_oracle.h"
#include "parallel/parallel_for.h"
#include "storage/dataset_registry.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

struct Cell {
  std::string algo;     // "core-exact" | "exact"
  std::string dataset;  // registry name
  std::vector<unsigned> threads;  // 0 = auto
  bool sweep_cold = false;        // also run flow_warm_start = false
};

struct Record {
  std::string algo;
  std::string dataset;
  size_t vertices = 0;
  size_t edges = 0;
  double load_ms = 0.0;
  unsigned threads_requested = 0;
  unsigned threads_effective = 0;
  bool warm_start = true;
  double wall_seconds = 0.0;
  double density = 0.0;
  size_t result_vertices = 0;
  uint64_t max_flow_calls = 0;
  uint64_t warm_starts = 0;
  uint64_t discharges = 0;
  uint64_t pushes = 0;
  uint64_t relabels = 0;
  uint64_t global_relabels = 0;
};

int Run(std::FILE* out) {
  std::vector<Cell> cells = {
      {"core-exact", "pl-100k", {1, 2, 4, 0}, /*sweep_cold=*/true},
      {"core-exact", "pl-1m", {1, 4}, /*sweep_cold=*/true},
      {"exact", "pl-100k", {1, 2, 4, 0}, /*sweep_cold=*/false},
  };
  const char* scale = std::getenv("DSD_BENCH_SCALE");
  if (scale != nullptr && std::string(scale) == "large") {
    cells.push_back({"exact", "pl-1m", {1, 4}, /*sweep_cold=*/false});
  }

  const storage::DatasetRegistry& registry = storage::GlobalDatasetRegistry();
  CliqueOracle edge(2);
  std::vector<Record> records;

  for (const Cell& cell : cells) {
    // Materialize (generate + cache) untimed; load_ms is the mmap open.
    StatusOr<std::string> path = registry.Materialize(cell.dataset);
    if (!path.ok()) {
      std::fprintf(stderr, "FAIL: dataset %s: %s\n", cell.dataset.c_str(),
                   path.status().ToString().c_str());
      return 1;
    }
    Timer open_timer;
    StatusOr<Graph> opened = registry.Open(cell.dataset);
    if (!opened.ok()) {
      std::fprintf(stderr, "FAIL: dataset %s: %s\n", cell.dataset.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    const Graph graph = std::move(opened).value();
    const double load_ms = open_timer.Seconds() * 1e3;

    DensestResult baseline;
    bool have_baseline = false;
    uint64_t warm_ops_t1 = 0, cold_ops_t1 = 0, warm_starts_t1 = 0;
    for (const bool warm : {true, false}) {
      if (!warm && !cell.sweep_cold) continue;
      for (const unsigned requested : cell.threads) {
        const unsigned effective = ResolveThreadCount(requested);
        const ExecutionContext ctx =
            ExecutionContext().WithThreads(effective);
        Timer timer;
        DensestResult result;
        if (cell.algo == "core-exact") {
          CoreExactOptions options;
          options.flow_warm_start = warm;
          result = CoreExact(graph, edge, options, ctx);
        } else {
          // Exact always warm-starts (no toggle in its API); the cold
          // comparison lives on the core-exact cells.
          result = Exact(graph, edge, ctx);
        }
        const double wall = timer.Seconds();

        if (!have_baseline) {
          baseline = result;
          have_baseline = true;
        } else if (result.vertices != baseline.vertices ||
                   result.density != baseline.density) {
          std::fprintf(stderr,
                       "FAIL: %s on %s (threads=%u warm=%d) diverged from "
                       "the sequential warm baseline\n",
                       cell.algo.c_str(), cell.dataset.c_str(), requested,
                       warm ? 1 : 0);
          return 1;
        }
        if (requested == 1) {
          const uint64_t ops =
              result.stats.flow_discharges + result.stats.flow_relabels;
          if (warm) {
            warm_ops_t1 = ops;
            warm_starts_t1 = result.stats.flow_warm_starts;
          } else {
            cold_ops_t1 = ops;
          }
        }

        Record r;
        r.algo = cell.algo;
        r.dataset = cell.dataset;
        r.vertices = graph.NumVertices();
        r.edges = static_cast<size_t>(graph.NumEdges());
        r.load_ms = load_ms;
        r.threads_requested = requested;
        r.threads_effective = effective;
        r.warm_start = warm;
        r.wall_seconds = wall;
        r.density = result.density;
        r.result_vertices = result.vertices.size();
        r.max_flow_calls = result.stats.flow_max_flow_calls;
        r.warm_starts = result.stats.flow_warm_starts;
        r.discharges = result.stats.flow_discharges;
        r.pushes = result.stats.flow_pushes;
        r.relabels = result.stats.flow_relabels;
        r.global_relabels = result.stats.flow_global_relabels;
        records.push_back(r);
        std::fprintf(stderr,
                     "%-10s %-8s threads=%u warm=%d  %.3f s  "
                     "calls=%llu warm_starts=%llu disc=%llu relab=%llu\n",
                     cell.algo.c_str(), cell.dataset.c_str(), requested,
                     warm ? 1 : 0, wall,
                     static_cast<unsigned long long>(r.max_flow_calls),
                     static_cast<unsigned long long>(r.warm_starts),
                     static_cast<unsigned long long>(r.discharges),
                     static_cast<unsigned long long>(r.relabels));
      }
    }
    // The acceptance contract, checked where the flow search genuinely
    // iterates: warm-started core-exact on pl-100k must reuse preflows and
    // do strictly less discharge+relabel work than cold-per-iteration.
    if (cell.algo == "core-exact" && cell.dataset == "pl-100k") {
      if (warm_starts_t1 == 0) {
        std::fprintf(stderr,
                     "FAIL: core-exact on pl-100k never warm-started\n");
        return 1;
      }
      if (warm_ops_t1 >= cold_ops_t1) {
        std::fprintf(stderr,
                     "FAIL: warm-started flow search did no less work than "
                     "cold (%llu >= %llu discharge+relabel ops)\n",
                     static_cast<unsigned long long>(warm_ops_t1),
                     static_cast<unsigned long long>(cold_ops_t1));
        return 1;
      }
    }
  }

  std::fprintf(out, "{\n  \"benchmark\": \"flow\",\n  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        out,
        "    {\"algo\": \"%s\", \"dataset\": \"%s\", \"vertices\": %zu, "
        "\"edges\": %zu, \"load_ms\": %.3f, \"threads_requested\": %u, "
        "\"threads_effective\": %u, \"warm_start\": %s, "
        "\"wall_seconds\": %.6f, \"density\": %.6f, "
        "\"result_vertices\": %zu, \"max_flow_calls\": %llu, "
        "\"warm_starts\": %llu, \"discharges\": %llu, \"pushes\": %llu, "
        "\"relabels\": %llu, \"global_relabels\": %llu}%s\n",
        r.algo.c_str(), r.dataset.c_str(), r.vertices, r.edges, r.load_ms,
        r.threads_requested, r.threads_effective,
        r.warm_start ? "true" : "false", r.wall_seconds, r.density,
        r.result_vertices, static_cast<unsigned long long>(r.max_flow_calls),
        static_cast<unsigned long long>(r.warm_starts),
        static_cast<unsigned long long>(r.discharges),
        static_cast<unsigned long long>(r.pushes),
        static_cast<unsigned long long>(r.relabels),
        static_cast<unsigned long long>(r.global_relabels),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace dsd::bench

int main(int argc, char** argv) {
  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", argv[1]);
      return 1;
    }
  }
  int status = dsd::bench::Run(out);
  if (out != stdout) std::fclose(out);
  return status;
}
