// Thread-scaling bench for the ExecutionContext-aware solve path: runs the
// parallel-capable algorithms through dsd::Solve at several thread budgets
// on the bundled demo graphs, plus the pattern-oracle hot queries for
// non-clique motifs (star-3 and the 5-vertex basket, both forced through
// the generic engine with use_special_kernels = false — the PDS workloads
// whose root loops the parallel pattern kernels shard), and emits
// machine-readable JSON (one record per algo x motif x graph x threads) so
// scripts/run_bench.sh can track the perf trajectory as BENCH_threads.json.
//
// Besides timing, every multi-threaded run is checked bit-identical to its
// threads = 1 baseline (the parallel kernels are deterministic integer
// reductions); a mismatch fails the bench with exit 1.
//
// Usage: bench_threads [output.json]   (stdout when no path is given)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dsd/oracle_factory.h"
#include "graph/generators.h"
#include "harness/runner.h"
#include "parallel/parallel_for.h"
#include "storage/dataset_registry.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

struct BenchGraph {
  std::string name;
  Graph graph;
  double load_ms = 0.0;  // generation or registry-open time
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
};

void FillDatasetFields(Record& record, const BenchGraph& bg) {
  record.dataset = bg.name;
  record.vertices = bg.graph.NumVertices();
  record.edges = static_cast<size_t>(bg.graph.NumEdges());
  record.load_ms = bg.load_ms;
}

BenchGraph TimedGenerate(std::string name, Graph (*make)()) {
  Timer timer;
  Graph graph = make();
  return {std::move(name), std::move(graph), timer.Seconds() * 1e3};
}

int Run(std::FILE* out) {
  // The dsd_cli --demo graph plus a denser community graph where the
  // 4-clique degree passes dominate and the thread budget has real work.
  std::vector<BenchGraph> graphs;
  graphs.push_back(TimedGenerate("demo_planted_k15", [] {
    return gen::PlantedClique(500, 0.01, 15, 7);
  }));
  graphs.push_back(TimedGenerate("communities_8k", [] {
    return gen::PowerLawWithCommunities(8000, 3, 24, 12, 0.9, 0x5EED);
  }));

  const std::vector<std::string> algos = {"exact", "core-exact", "peel"};
  const std::vector<unsigned> thread_counts = {1, 2, 4};

  std::vector<Record> records;
  for (const BenchGraph& bg : graphs) {
    for (const std::string& algo : algos) {
      SolveResponse baseline;
      for (unsigned threads : thread_counts) {
        SolveRequest request;
        request.algorithm = algo;
        request.motif = "4-clique";
        request.threads = threads;
        SolveResponse response = MustSolve(bg.graph, std::move(request));
        if (threads == thread_counts.front()) {
          baseline = response;
        } else if (response.result.vertices != baseline.result.vertices ||
                   response.result.instances != baseline.result.instances) {
          std::fprintf(stderr,
                       "FAIL: %s on %s with %u threads diverged from the "
                       "sequential answer\n",
                       algo.c_str(), bg.name.c_str(), threads);
          return 1;
        }
        Record record;
        record.algo = algo;
        record.motif = "4-clique";
        FillDatasetFields(record, bg);
        record.threads_requested = threads;
        record.threads_effective = response.stats.threads;
        record.wall_seconds = response.stats.wall_seconds;
        record.density = response.result.density;
        record.result_vertices = response.result.vertices.size();
        records.push_back(record);
        std::fprintf(stderr, "%-14s %-8s %-16s threads=%u  %.3f ms\n",
                     algo.c_str(), record.motif.c_str(), bg.name.c_str(),
                     threads, response.stats.wall_seconds * 1e3);
      }
    }

    // Pattern-oracle scaling: motif-degree passes through the generic
    // plan-compiled engine — the query CorePExact hammers, and the one the
    // parallel pattern kernels shard per root vertex. Both motifs are
    // forced off their closed forms (use_special_kernels = false, the
    // bench_ablation baseline): star-3's O(m) kernel would time
    // thread-spawn overhead instead, and basket's per-edge triangle
    // formula would not time the engine at all.
    for (const std::string& motif : {std::string("3-star"),
                                     std::string("basket")}) {
      std::vector<uint64_t> baseline_degrees;
      for (unsigned threads : thread_counts) {
        OracleOptions options;
        options.threads = threads;
        options.use_special_kernels = false;
        StatusOr<std::unique_ptr<MotifOracle>> oracle =
            MakeOracle(motif, options);
        if (!oracle.ok()) {
          std::fprintf(stderr, "FAIL: %s\n", oracle.status().ToString().c_str());
          return 1;
        }
        ExecutionContext ctx;
        ctx.threads = threads;
        Timer timer;
        std::vector<uint64_t> degrees =
            oracle.value()->Degrees(bg.graph, {}, ctx);
        const double seconds = timer.Seconds();
        if (threads == thread_counts.front()) {
          baseline_degrees = degrees;
        } else if (degrees != baseline_degrees) {
          std::fprintf(stderr,
                       "FAIL: %s degrees on %s with %u threads diverged "
                       "from the sequential answer\n",
                       motif.c_str(), bg.name.c_str(), threads);
          return 1;
        }
        Record record;
        record.algo = "oracle-degrees";
        record.motif = motif;
        FillDatasetFields(record, bg);
        record.threads_requested = threads;
        // Same clamp the kernel applies per call (hardware + root count),
        // so this row's semantics match the solve-path rows above.
        record.threads_effective =
            ResolveThreadCount(threads, bg.graph.NumVertices());
        record.wall_seconds = seconds;
        record.density = 0.0;
        record.result_vertices = bg.graph.NumVertices();
        records.push_back(record);
        std::fprintf(stderr, "%-14s %-8s %-16s threads=%u  %.3f ms\n",
                     record.algo.c_str(), record.motif.c_str(), bg.name.c_str(),
                     threads, seconds * 1e3);
      }
    }
  }

  // Registry-dataset rows: a real-scale graph (>= 10^6 edges) opened
  // through the storage layer (.dsdg mmap after the first materialize)
  // instead of regenerated per run. Edge-motif peel keeps the row cheap
  // enough for every run; DSD_BENCH_SCALE=large adds the 10^7-edge rung.
  {
    std::vector<std::string> dataset_names = {"pl-1m"};
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
      BenchGraph bg{name, std::move(opened).value(),
                    open_timer.Seconds() * 1e3};
      SolveResponse baseline;
      for (unsigned threads : thread_counts) {
        SolveRequest request;
        request.algorithm = "peel";
        request.motif = "edge";
        request.threads = threads;
        SolveResponse response = MustSolve(bg.graph, std::move(request));
        if (threads == thread_counts.front()) {
          baseline = response;
        } else if (response.result.vertices != baseline.result.vertices ||
                   response.result.instances != baseline.result.instances) {
          std::fprintf(stderr,
                       "FAIL: peel on %s with %u threads diverged from the "
                       "sequential answer\n",
                       name.c_str(), threads);
          return 1;
        }
        Record record;
        record.algo = "peel";
        record.motif = "edge";
        FillDatasetFields(record, bg);
        record.threads_requested = threads;
        record.threads_effective = response.stats.threads;
        record.wall_seconds = response.stats.wall_seconds;
        record.density = response.result.density;
        record.result_vertices = response.result.vertices.size();
        records.push_back(record);
        std::fprintf(stderr, "%-14s %-8s %-16s threads=%u  %.3f ms\n",
                     "peel", "edge", name.c_str(), threads,
                     response.stats.wall_seconds * 1e3);
      }
    }
  }

  std::fprintf(out, "{\n  \"benchmark\": \"threads\",\n  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(out,
                 "    {\"algo\": \"%s\", \"motif\": \"%s\", "
                 "\"dataset\": \"%s\", \"vertices\": %zu, \"edges\": %zu, "
                 "\"load_ms\": %.3f, "
                 "\"threads_requested\": %u, \"threads_effective\": %u, "
                 "\"wall_seconds\": %.6f, \"density\": %.6f, "
                 "\"result_vertices\": %zu}%s\n",
                 r.algo.c_str(), r.motif.c_str(), r.dataset.c_str(),
                 r.vertices, r.edges, r.load_ms, r.threads_requested,
                 r.threads_effective, r.wall_seconds, r.density,
                 r.result_vertices, i + 1 < records.size() ? "," : "");
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
