// Micro-benchmarks (google-benchmark) for the substrates: k-core
// decomposition, clique enumeration, motif-core peeling, max-flow, pattern
// matching, edge-list ingestion. These are throughput baselines for regressions, not paper
// figures.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "clique/clique_enumerator.h"
#include "core/kcore.h"
#include "dsd/core_app.h"
#include "dsd/core_exact.h"
#include "dsd/motif_core.h"
#include "dsd/motif_oracle.h"
#include "dsd/oracle_factory.h"
#include "flow/flow_network.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "parallel/parallel_for.h"
#include "pattern/isomorphism.h"
#include "pattern/special.h"
#include "storage/ingest.h"

namespace dsd {
namespace {

Graph BenchGraph(int64_t n) {
  return gen::BarabasiAlbert(static_cast<VertexId>(n), 4, 0xB3&0xFF);
}

void BM_KCoreDecomposition(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KCoreDecomposition(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_KCoreDecomposition)->Arg(10000)->Arg(50000);

// One sequential h-clique Count (arg: h), listing only: the graph's
// orientation is built before the timed loop, and every enumerator reads
// it. BM_CliqueOrientation times that build.
void BM_CliqueEnumeration(benchmark::State& state) {
  Graph g = BenchGraph(10000);
  const int h = static_cast<int>(state.range(0));
  GraphOrientation(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CliqueEnumerator(g, h).Count());
  }
}
BENCHMARK(BM_CliqueEnumeration)->Arg(3)->Arg(4)->Arg(5);

// Builds the clique orientation (k-core order plus CSR DAG) of a fresh
// n-vertex graph (arg: n) per iteration; making the graph is untimed.
void BM_CliqueOrientation(benchmark::State& state) {
  const Graph g = BenchGraph(state.range(0));
  const std::vector<EdgeId> offsets(g.RawOffsets().begin(),
                                    g.RawOffsets().end());
  const std::vector<VertexId> neighbors(g.RawNeighbors().begin(),
                                        g.RawNeighbors().end());
  for (auto _ : state) {
    state.PauseTiming();
    const Graph fresh(offsets, neighbors);  // a new slot, so a new build
    state.ResumeTiming();
    benchmark::DoNotOptimize(&GraphOrientation(fresh));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_CliqueOrientation)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMicrosecond);

// Peels a 100k-vertex graph in id order, one CliqueOracle::PeelVertex call
// per vertex. Each call should cost O(its alive neighbourhood); an O(n)
// term per call (a graph-sized array, a per-call graph copy) shows up here
// as a ~10^5x blow-up of the total.
void BM_CliquePeelVertex(benchmark::State& state) {
  static const Graph g = gen::BarabasiAlbert(100000, 3, 0xB3);
  const CliqueOracle oracle(static_cast<int>(state.range(0)));
  std::vector<char> alive(g.NumVertices());
  for (auto _ : state) {
    std::fill(alive.begin(), alive.end(), 1);
    uint64_t destroyed = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      destroyed += oracle.PeelVertex(g, v, alive, [](VertexId, uint64_t) {});
      alive[v] = 0;
    }
    benchmark::DoNotOptimize(destroyed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumVertices()));
}
BENCHMARK(BM_CliquePeelVertex)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

// Motif-core decomposition (the peel engine behind peel, core-app, at-least
// and query) at state.range(0) threads. count_ms is the time inside
// PeelBatch; the rest of a row is the initial Degrees, the bracket pops and
// the apply stage (refiling survivors into the BucketQueue).
void BM_MotifCoreDecompose(benchmark::State& state, const char* motif,
                           Graph (*make_graph)()) {
  const Graph g = make_graph();
  OracleOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  std::unique_ptr<MotifOracle> oracle = MakeOracle(motif, options).value();
  ExecutionContext ctx;
  ctx.threads = options.threads;
  uint64_t count_ns = 0;
  for (auto _ : state) {
    MotifCoreDecomposition d = MotifCoreDecompose(g, *oracle, ctx);
    count_ns += d.peel_stats.refill_ns;
    benchmark::DoNotOptimize(d);
  }
  state.counters["count_ms"] = benchmark::Counter(
      static_cast<double>(count_ns) / 1e6, benchmark::Counter::kAvgIterations);
}

Graph CliqueDecomposeGraph() { return BenchGraph(5000); }

// One whole-graph clique Count or Degrees pass (args: h, threads) on the
// clique peel graph, with the enumerator (and so the graph's orientation)
// built once outside the timed loop. Each worker searches with its own thread's
// scratch, so the 4-thread rows should scale off the 1-thread ones.
void BM_CliqueCount(benchmark::State& state) {
  static const Graph g = CliqueDecomposeGraph();
  const CliqueEnumerator enumerator(g, static_cast<int>(state.range(0)));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerator.Count(threads));
  }
}
BENCHMARK(BM_CliqueCount)
    ->Args({3, 1})->Args({3, 4})->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_CliqueDegrees(benchmark::State& state) {
  static const Graph g = CliqueDecomposeGraph();
  const CliqueEnumerator enumerator(g, static_cast<int>(state.range(0)));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerator.Degrees(threads));
  }
}
BENCHMARK(BM_CliqueDegrees)
    ->Args({3, 1})->Args({3, 4})->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The shape of perfbench's batch-peel pattern graph: 30k vertices, a
// Barabasi-Albert backbone (m = 3) and 16 planted 16-vertex communities.
// Its 3-star degrees reach far past the queue's near band.
Graph PatternDecomposeGraph() {
  return gen::PowerLawWithCommunities(30000, 3, 16, 16, 0.9, 0xB3);
}

BENCHMARK_CAPTURE(BM_MotifCoreDecompose, edge, "edge", &CliqueDecomposeGraph)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_MotifCoreDecompose, triangle, "triangle",
                  &CliqueDecomposeGraph)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_MotifCoreDecompose, 4-clique, "4-clique",
                  &CliqueDecomposeGraph)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_MotifCoreDecompose, 3-star, "3-star",
                  &PatternDecomposeGraph)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MotifCoreDecompose, diamond, "diamond",
                  &PatternDecomposeGraph)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MotifCoreDecompose, basket, "basket",
                  &PatternDecomposeGraph)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

const Graph& HubFirstPatternGraph() {
  static const Graph g = PatternDecomposeGraph();
  return g;
}

// The pattern graph under a fixed random relabelling: the ids a SNAP edge
// list or a shuffled .dsdg brings, instead of the generator's hubs first.
const Graph& RelabelledPatternGraph() {
  static const Graph relabelled = [] {
    const Graph& g = HubFirstPatternGraph();
    std::vector<VertexId> perm(g.NumVertices());
    std::iota(perm.begin(), perm.end(), VertexId{0});
    std::shuffle(perm.begin(), perm.end(), std::mt19937_64(0x5EED));
    GraphBuilder builder(g.NumVertices());
    for (const Edge& e : g.Edges()) {
      builder.AddEdge(perm[e.first], perm[e.second]);
    }
    return builder.Build();
  }();
  return relabelled;
}

// One full pattern-degree pass (the Degrees call that opens every generic
// pattern peel) over the pattern graph at state.range(0) threads, on its own
// rather than folded into a BM_MotifCoreDecompose row. These rows time the
// generic engine; BM_OracleDegrees times what the oracle runs.
void BM_PatternDegrees(benchmark::State& state, Pattern (*make_pattern)(),
                       const Graph& (*graph)()) {
  const PatternPlanSet plans(make_pattern());
  const PatternMatcher matcher(graph(), plans);
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Degrees({}, threads));
  }
}
BENCHMARK_CAPTURE(BM_PatternDegrees, basket, &Pattern::Basket,
                  &HubFirstPatternGraph)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_PatternDegrees, basket_relabelled, &Pattern::Basket,
                  &RelabelledPatternGraph)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

// The same pass through the motif's oracle at state.range(0) threads: for
// basket that is the per-edge triangle formula (pattern/special.h).
void BM_OracleDegrees(benchmark::State& state, const char* motif,
                      const Graph& (*graph)()) {
  std::unique_ptr<MotifOracle> oracle = MakeOracle(motif).value();
  const ExecutionContext ctx =
      ExecutionContext().WithThreads(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle->Degrees(graph(), {}, ctx));
  }
}
BENCHMARK_CAPTURE(BM_OracleDegrees, basket, "basket", &HubFirstPatternGraph)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_OracleDegrees, basket_relabelled, "basket",
                  &RelabelledPatternGraph)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

// The fixed cost of one ParallelForStrided call on state.range(0) workers:
// an empty body over one index per worker, so the row is the wake-up and
// join of the caller's parked helpers.
void BM_ParallelForEmpty(benchmark::State& state) {
  const unsigned t = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    ParallelForStrided(t, t, [](unsigned, uint64_t i) {
      benchmark::DoNotOptimize(i);
    });
  }
}
BENCHMARK(BM_ParallelForEmpty)->Arg(4)->UseRealTime();

// One dense-tail bracket of the pattern graph, peeled through PeelBatch at
// state.range(0) threads: the first vertex the decomposition removes at
// its top core level, with the rest of that level alive. A generic motif's
// peel ends in a few hundred such brackets of one or two members, which
// the 4-thread row spreads over the workers by (position, slice) parts.
void BM_PeelBatchTail(benchmark::State& state, const char* motif) {
  const Graph& g = HubFirstPatternGraph();
  OracleOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  std::unique_ptr<MotifOracle> oracle = MakeOracle(motif, options).value();
  ExecutionContext ctx;
  ctx.threads = options.threads;
  const MotifCoreDecomposition d =
      MotifCoreDecompose(g, *oracle, ExecutionContext().WithThreads(4));
  size_t start = 0;
  while (d.core[d.removal_order[start]] < d.kmax) ++start;
  std::vector<char> alive(g.NumVertices(), 0);
  for (size_t i = start; i < d.removal_order.size(); ++i) {
    alive[d.removal_order[i]] = 1;
  }
  const std::vector<VertexId> frontier = {d.removal_order[start]};
  std::vector<char> mask;
  uint64_t destroyed = 0;
  for (auto _ : state) {
    mask = alive;
    destroyed = oracle->PeelBatch(g, frontier, {mask.data(), mask.size()},
                                  [](VertexId, uint64_t) {}, ctx)[0];
  }
  state.counters["destroyed"] = static_cast<double>(destroyed);
}
BENCHMARK_CAPTURE(BM_PeelBatchTail, basket, "basket")
    ->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_CoreApp(benchmark::State& state) {
  Graph g = BenchGraph(20000);
  CliqueOracle oracle(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoreApp(g, oracle));
  }
}
BENCHMARK(BM_CoreApp);

void BM_CoreExactTriangle(benchmark::State& state) {
  Graph g = gen::PlantedClique(3000, 0.002, 12, 0xC0DE);
  CliqueOracle oracle(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoreExact(g, oracle));
  }
}
BENCHMARK(BM_CoreExactTriangle);

void BM_MaxFlowGrid(benchmark::State& state) {
  // k x k grid: s -> row 0, row k-1 -> t, unit capacities.
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    FlowNetwork net(static_cast<FlowNetwork::NodeId>(k * k + 2));
    auto id = [k](int r, int c) {
      return static_cast<FlowNetwork::NodeId>(1 + r * k + c);
    };
    for (int c = 0; c < k; ++c) {
      net.AddArc(0, id(0, c), 1.0);
      net.AddArc(id(k - 1, c), static_cast<FlowNetwork::NodeId>(k * k + 1),
                 1.0);
    }
    for (int r = 0; r + 1 < k; ++r) {
      for (int c = 0; c < k; ++c) {
        net.AddArc(id(r, c), id(r + 1, c), 1.0);
        if (c + 1 < k) net.AddArc(id(r, c), id(r, c + 1), 1.0);
        if (c > 0) net.AddArc(id(r, c), id(r, c - 1), 1.0);
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        net.MaxFlow(0, static_cast<FlowNetwork::NodeId>(k * k + 1)));
  }
}
BENCHMARK(BM_MaxFlowGrid)->Arg(20)->Arg(60);

void BM_PatternEmbeddings(benchmark::State& state) {
  Graph g = gen::ErdosRenyi(500, 0.02, 0xE1B);
  Pattern p = state.range(0) == 0 ? Pattern::Diamond() : Pattern::C3Star();
  for (auto _ : state) {
    PatternMatcher e(g, p);
    benchmark::DoNotOptimize(e.CountInstances({}));
  }
}
BENCHMARK(BM_PatternEmbeddings)->Arg(0)->Arg(1);

void BM_StarKernel(benchmark::State& state) {
  Graph g = BenchGraph(20000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StarDegrees(g, 3, {}));
  }
}
BENCHMARK(BM_StarKernel);

// The load phase at the layer: IngestEdgeListFile on the text of a graph
// shaped like perfbench's peel-l input (10^5 vertices, ~3 x 10^5 edges),
// written once to a temp file, in bytes/s of text. SaveEdgeList writes
// rows in CSR order, so the per-row sort finds them sorted.
void BM_IngestEdgeList(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dsd_bench_ingest.txt")
          .string();
  const Graph shape = gen::PowerLawWithCommunities(100000, 3, 32, 16, 0.9, 7);
  if (!io::SaveEdgeList(shape, path).ok()) {
    state.SkipWithError("cannot write the edge list");
    return;
  }
  const auto bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  for (auto _ : state) {
    StatusOr<Graph> graph = storage::IngestEdgeListFile(path);
    if (!graph.ok()) {
      state.SkipWithError("ingest failed");
      break;
    }
    benchmark::DoNotOptimize(graph.value().NumEdges());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  std::remove(path.c_str());
}
BENCHMARK(BM_IngestEdgeList)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dsd

BENCHMARK_MAIN();
