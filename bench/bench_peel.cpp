// Peeling-engine scaling bench: runs every peeling-based algorithm through
// dsd::Solve at several thread budgets — the workloads whose hot loop is
// now the batch-bracket peeling engine (bucket queue + parallel frontier
// PeelBatch) — over a clique motif, a closed-form star motif, and a
// 5-vertex motif (basket) whose brackets the generic engine peels (its
// opening Degrees pass is a per-edge triangle formula) — and emits
// machine-readable JSON (one record per algo x motif x graph x threads) so
// scripts/run_bench.sh can track the perf trajectory as BENCH_peel.json.
//
// Like bench_threads, every multi-threaded run is parity-checked against
// its threads = 1 baseline: the peeling engine is deterministic by
// construction (canonical within-bracket order), so any divergence fails
// the bench with exit 1. Wall-clock scaling itself must be read on a
// multicore host. Every record also carries the peel engine's bracket
// count and the time spent counting them (refill_ns).
//
// Usage: bench_peel [output.json]   (stdout when no path is given)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dsd/result.h"
#include "graph/generators.h"
#include "harness/runner.h"
#include "storage/dataset_registry.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

struct BenchGraph {
  std::string name;
  Graph graph;
  double load_ms = 0.0;  // generation or registry-open time
  // Motifs worth timing at this graph's scale: the generic 5-vertex motif
  // row runs on its own smaller community graph, where a full basket
  // decomposition stays in bench budget while its brackets are still large
  // enough to shard through the generic rank-masked peel kernel.
  std::vector<std::string> motifs;
  // Algorithms to run; empty means the whole peeling family. The registry
  // graphs restrict to plain peel so the >= 10^6-edge rows stay cheap.
  std::vector<std::string> algos;
};

struct Record {
  std::string algo;
  std::string motif;
  std::string dataset;
  unsigned threads_requested = 0;
  unsigned threads_effective = 0;
  double wall_seconds = 0.0;
  double density = 0.0;
  size_t result_vertices = 0;
  size_t vertices = 0;  // dataset size
  size_t edges = 0;
  double load_ms = 0.0;
  PeelEngineStats peel;
};

int Run(std::FILE* out) {
  // The planted-clique demo graph stresses deep, narrow brackets; the
  // power-law community graph has huge low-degree brackets (the periphery)
  // where the parallel frontier kernels get real shards.
  std::vector<BenchGraph> graphs;
  {
    Timer timer;
    Graph g = gen::PlantedClique(500, 0.01, 15, 7);
    graphs.push_back({"demo_planted_k15", std::move(g),
                      timer.Seconds() * 1e3, {"4-clique", "3-star"}, {}});
  }
  {
    Timer timer;
    Graph g = gen::PowerLawWithCommunities(6000, 3, 20, 12, 0.9, 0x9EE1);
    graphs.push_back({"communities_6k", std::move(g), timer.Seconds() * 1e3,
                      {"4-clique", "3-star"}, {}});
  }
  // Generic-engine row: basket (5-vertex house) peels its brackets with
  // the plan-compiled matcher and the generic parallel peel kernel; only
  // its opening Degrees pass takes the per-edge triangle formula.
  {
    Timer timer;
    Graph g = gen::PowerLawWithCommunities(1500, 3, 14, 10, 0.9, 0xBA5CE7);
    graphs.push_back({"communities_1500", std::move(g),
                      timer.Seconds() * 1e3, {"basket"}, {}});
  }
  // Registry-dataset rows: >= 10^6 edges, opened through the storage
  // layer (.dsdg mmap after the first materialize). Edge-motif peel keeps
  // the rows cheap; DSD_BENCH_SCALE=large adds the 10^7-edge rung.
  {
    std::vector<std::string> dataset_names = {"pl-100k", "pl-1m"};
    const char* scale = std::getenv("DSD_BENCH_SCALE");
    if (scale != nullptr && std::string(scale) == "large") {
      dataset_names.push_back("pl-10m");
    }
    const storage::DatasetRegistry& registry =
        storage::GlobalDatasetRegistry();
    for (const std::string& name : dataset_names) {
      // Materialize (generate + cache) untimed so load_ms reports the
      // steady-state open cost, not the one-off generation.
      StatusOr<std::string> path = registry.Materialize(name);
      if (!path.ok()) {
        std::fprintf(stderr, "FAIL: dataset %s: %s\n", name.c_str(),
                     path.status().ToString().c_str());
        return 1;
      }
      Timer open_timer;
      StatusOr<Graph> opened = registry.Open(name);
      if (!opened.ok()) {
        std::fprintf(stderr, "FAIL: dataset %s: %s\n", name.c_str(),
                     opened.status().ToString().c_str());
        return 1;
      }
      graphs.push_back({name, std::move(opened).value(),
                        open_timer.Seconds() * 1e3,
                        {"edge"},
                        {"peel"}});
    }
  }

  // The peeling-based algorithm family: peel and at-least decompose the
  // whole graph, core-app peels windows top-down.
  const std::vector<std::string> default_algos = {"peel", "core-app",
                                                  "at-least"};
  const std::vector<unsigned> thread_counts = {1, 2, 4};

  std::vector<Record> records;
  for (const BenchGraph& bg : graphs) {
    for (const std::string& algo :
         bg.algos.empty() ? default_algos : bg.algos) {
      for (const std::string& motif : bg.motifs) {
        SolveResponse baseline;
        for (unsigned threads : thread_counts) {
          SolveRequest request;
          request.algorithm = algo;
          request.motif = motif;
          request.threads = threads;
          if (algo == "at-least") request.min_size = 32;
          SolveResponse response = MustSolve(bg.graph, std::move(request));
          if (threads == thread_counts.front()) {
            baseline = response;
          } else if (response.result.vertices != baseline.result.vertices ||
                     response.result.instances != baseline.result.instances) {
            std::fprintf(stderr,
                         "FAIL: %s/%s on %s with %u threads diverged from "
                         "the sequential answer\n",
                         algo.c_str(), motif.c_str(), bg.name.c_str(),
                         threads);
            return 1;
          }
          Record record;
          record.algo = algo;
          record.motif = motif;
          record.dataset = bg.name;
          record.vertices = bg.graph.NumVertices();
          record.edges = static_cast<size_t>(bg.graph.NumEdges());
          record.load_ms = bg.load_ms;
          record.threads_requested = threads;
          record.threads_effective = response.stats.threads;
          record.wall_seconds = response.stats.wall_seconds;
          record.density = response.result.density;
          record.result_vertices = response.result.vertices.size();
          record.peel = response.result.stats.peel;
          records.push_back(record);
          std::fprintf(stderr, "%-10s %-9s %-16s threads=%u  %.3f ms\n",
                       algo.c_str(), motif.c_str(), bg.name.c_str(), threads,
                       response.stats.wall_seconds * 1e3);
        }
      }
    }
  }

  std::fprintf(out, "{\n  \"benchmark\": \"peel\",\n  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(out,
                 "    {\"algo\": \"%s\", \"motif\": \"%s\", "
                 "\"dataset\": \"%s\", "
                 "\"vertices\": %zu, \"edges\": %zu, "
                 "\"load_ms\": %.3f, "
                 "\"threads_requested\": %u, \"threads_effective\": %u, "
                 "\"wall_seconds\": %.6f, \"density\": %.6f, "
                 "\"result_vertices\": %zu, "
                 "\"brackets\": %llu, \"refill_ns\": %llu}%s\n",
                 r.algo.c_str(), r.motif.c_str(), r.dataset.c_str(),
                 r.vertices, r.edges, r.load_ms,
                 r.threads_requested, r.threads_effective, r.wall_seconds,
                 r.density, r.result_vertices,
                 static_cast<unsigned long long>(r.peel.brackets),
                 static_cast<unsigned long long>(r.peel.refill_ns),
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
