// dsd_cli — command-line densest subgraph discovery.
//
// Usage:
//   dsd_cli --input graph.txt [--motif triangle] [--algo core-exact]
//           [--query 3,17,42] [--min-size 20] [--eps 0.1] [--threads N]
//           [--time-budget S] [--verbose]
//   dsd_cli --demo            # run on a small generated graph
//   dsd_cli --stats           # print graph statistics and exit (no solve)
//   dsd_cli --list-algos      # registered algorithms, one per line
//   dsd_cli --list-motifs     # recognised motif names, one per line
//
// --input accepts edge-list text or a .dsdg binary container (sniffed by
// magic; .dsdg opens via mmap, zero-copy).
//
// The CLI is a thin shell over dsd::Solve: flags are packed into a
// dsd::SolveRequest and every semantic check (unknown algorithm/motif, bad
// eps, missing --min-size/--query, out-of-range or duplicate seeds) happens
// in the library, which reports a Status instead of exiting.
//
// Exit codes map the Status taxonomy so scripts can branch without parsing
// stderr: 0 success, 1 environment failure (IoError), 2 bad request
// (usage, InvalidArgument, NotFound), 3 blown time budget
// (DeadlineExceeded), 4 capacity shed (ResourceExhausted — surfaced by
// embedders with admission control, e.g. dsd_server).
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsd/dsd.h"
#include "storage/graph_store.h"

namespace {

using dsd::VertexId;

struct Options {
  std::string input;
  bool demo = false;
  bool stats = false;
  bool verbose = false;
  dsd::SolveRequest request;
};

[[noreturn]] void Usage(const char* error) {
  std::FILE* out = error != nullptr ? stderr : stdout;
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      out,
      "usage: dsd_cli (--input FILE | --demo) [--motif M] [--algo A]\n"
      "               [--query v1,v2,...] [--min-size K] [--eps E]\n"
      "               [--threads N] [--time-budget S] [--stats]\n"
      "               [--verbose]\n"
      "       dsd_cli --list-algos | --list-motifs\n"
      "  FILE is edge-list text or a .dsdg container (sniffed by magic);\n"
      "  --stats prints graph statistics (incl. memory footprint) and\n"
      "  exits without solving\n"
      "  motifs:     edge triangle <h>-clique 2-star 3-star c3-star diamond\n"
      "              2-triangle 3-triangle basket\n"
      "  algorithms: exact core-exact peel inc-app core-app stream at-least "
      "query\n");
  std::exit(error == nullptr ? 0 : 2);
}

VertexId ParseVertexId(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage((flag + " expects a non-negative integer, got '" + text + "'")
              .c_str());
  }
  try {
    unsigned long value = std::stoul(text);
    if (value > std::numeric_limits<VertexId>::max()) {
      throw std::out_of_range(text);
    }
    return static_cast<VertexId>(value);
  } catch (const std::out_of_range&) {
    Usage((flag + " value out of range: '" + text + "'").c_str());
  }
}

double ParseDouble(const std::string& flag, const std::string& text) {
  try {
    size_t used = 0;
    double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    Usage((flag + " expects a number, got '" + text + "'").c_str());
  }
}

std::vector<VertexId> ParseIdList(const std::string& text) {
  std::vector<VertexId> ids;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    ids.push_back(ParseVertexId("--query", text.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  if (ids.empty()) Usage("--query expects a comma-separated vertex list");
  return ids;
}

/// Status taxonomy -> process exit code (documented in the header comment
/// and README). Usage errors share code 2 with InvalidArgument: both mean
/// "the request was wrong", whoever caught it first.
int ExitCodeFor(const dsd::Status& status) {
  if (status.ok()) return 0;
  if (status.IsIoError()) return 1;
  if (status.IsDeadlineExceeded()) return 3;
  if (status.IsResourceExhausted()) return 4;
  return 2;  // InvalidArgument, NotFound: a bad request either way.
}

[[noreturn]] void ListAndExit(const std::vector<std::string>& names) {
  for (const std::string& name : names) std::printf("%s\n", name.c_str());
  std::exit(0);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--input") {
      options.input = next();
    } else if (arg == "--demo") {
      options.demo = true;
    } else if (arg == "--motif") {
      options.request.motif = next();
    } else if (arg == "--algo") {
      options.request.algorithm = next();
    } else if (arg == "--query") {
      options.request.seeds = ParseIdList(next());
    } else if (arg == "--min-size") {
      options.request.min_size = ParseVertexId("--min-size", next());
    } else if (arg == "--eps") {
      options.request.eps = ParseDouble("--eps", next());
    } else if (arg == "--threads") {
      options.request.threads =
          static_cast<unsigned>(ParseVertexId("--threads", next()));
    } else if (arg == "--time-budget") {
      options.request.time_budget_seconds =
          ParseDouble("--time-budget", next());
    } else if (arg == "--list-algos") {
      ListAndExit(dsd::SolverRegistry::Global().Names());
    } else if (arg == "--list-motifs") {
      ListAndExit(dsd::KnownMotifNames());
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(nullptr);
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (options.input.empty() && !options.demo) {
    Usage("one of --input or --demo is required");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);

  dsd::Graph graph;
  if (options.demo) {
    graph = dsd::gen::PlantedClique(500, 0.01, 15, 7);
    std::printf("# demo graph (planted K15 in G(500, 0.01))\n");
  } else {
    dsd::StatusOr<dsd::Graph> loaded =
        dsd::storage::LoadGraphFile(options.input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return ExitCodeFor(loaded.status());
    }
    graph = std::move(loaded).value();
  }
  std::printf("# graph: n=%u m=%llu\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  if (options.stats) {
    std::printf("vertices      %u\n", graph.NumVertices());
    std::printf("edges         %llu\n",
                static_cast<unsigned long long>(graph.NumEdges()));
    std::printf("max_degree    %llu\n",
                static_cast<unsigned long long>(graph.MaxDegree()));
    const double n = graph.NumVertices();
    std::printf("avg_degree    %.3f\n",
                n > 0 ? 2.0 * static_cast<double>(graph.NumEdges()) / n
                      : 0.0);
    std::printf("memory_bytes  %zu\n", graph.MemoryFootprintBytes());
    std::printf("storage       %s\n",
                graph.IsBorrowed() ? "mmap (borrowed)" : "heap (owned)");
    return 0;
  }

  dsd::StatusOr<dsd::SolveResponse> solved =
      dsd::Solve(graph, options.request);
  if (!solved.ok()) {
    std::fprintf(stderr, "error: %s\n", solved.status().ToString().c_str());
    return ExitCodeFor(solved.status());
  }
  const dsd::SolveResponse& response = solved.value();
  const dsd::DensestResult& result = response.result;

  std::printf("motif      %s\n", response.stats.motif.c_str());
  std::printf("algorithm  %s\n", response.stats.algorithm.c_str());
  // Effective worker count: the --threads budget clamped by what the
  // algorithm and oracle can exploit (sequential algorithms report 1).
  std::printf("threads    %u\n", response.stats.threads);
  std::printf("density    %.6f\n", result.density);
  std::printf("instances  %llu\n",
              static_cast<unsigned long long>(result.instances));
  std::printf("vertices   %zu\n", result.vertices.size());
  std::printf("time       %.3f ms\n", result.stats.total_seconds * 1e3);
  if (options.verbose) {
    std::printf("members   ");
    for (VertexId v : result.vertices) std::printf(" %u", v);
    std::printf("\n");
    if (result.stats.kmax > 0) {
      std::printf("kmax       %u\n", result.stats.kmax);
    }
    if (result.stats.binary_search_iterations > 0) {
      std::printf("iterations %d\n", result.stats.binary_search_iterations);
    }
    if (result.stats.peel.brackets > 0) {
      const dsd::PeelEngineStats& peel = result.stats.peel;
      std::printf("peel       brackets=%llu count=%.3f ms\n",
                  static_cast<unsigned long long>(peel.brackets),
                  static_cast<double>(peel.refill_ns) * 1e-6);
    }
    std::printf("wall       %.3f ms\n", response.stats.wall_seconds * 1e3);
  }
  return 0;
}
