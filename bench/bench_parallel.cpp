// Thread-scaling bench for the Section 6.3 parallel algorithms: clique
// counting, clique-degrees and clique-core decomposition (the batch peel,
// MotifCoreDecompose on the MakeOracle stack) at 1/2/4/8 workers. Every
// row must reproduce the 1-thread counts, degrees and core numbers, or the
// binary exits 1.
#include <cstdio>
#include <memory>
#include <vector>

#include "clique/clique_enumerator.h"
#include "dsd/motif_core.h"
#include "dsd/oracle_factory.h"
#include "graph/generators.h"
#include "harness/report.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

constexpr int kH = 4;

bool Run() {
  Graph g = gen::PowerLawWithCommunities(60000, 3, 30, 14, 0.9, 0x9A7);
  Banner("Parallel scaling (n=" + std::to_string(g.NumVertices()) + ", m=" +
         std::to_string(g.NumEdges()) + ", Psi = 4-clique)");
  // The 1-thread row's answers, which every later row must reproduce.
  uint64_t count = 0;
  std::vector<uint64_t> degrees;
  std::vector<uint64_t> core;
  bool ok = true;
  Table table(
      {"threads", "clique count", "clique degrees", "MotifCoreDecompose"});
  // The graph's clique orientation is built on its first clique kernel and
  // reused by every later one: build it here, so the 1-thread row does not
  // pay a serial build that the other rows skip.
  GraphOrientation(g);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    Timer count_timer;
    const uint64_t threaded_count = CliqueEnumerator(g, kH).Count(threads);
    double count_seconds = count_timer.Seconds();
    Timer degrees_timer;
    const std::vector<uint64_t> threaded_degrees =
        CliqueEnumerator(g, kH).Degrees(threads);
    double degrees_seconds = degrees_timer.Seconds();

    OracleOptions options;
    options.threads = threads;
    const std::unique_ptr<MotifOracle> oracle =
        MakeOracle("4-clique", options).value();
    Timer peel_timer;
    const MotifCoreDecomposition peeled = MotifCoreDecompose(
        g, *oracle, ExecutionContext().WithThreads(threads));
    double peel_seconds = peel_timer.Seconds();
    if (threads == 1) {
      count = threaded_count;
      degrees = threaded_degrees;
      core = peeled.core;
    }

    if (threaded_count != count || threaded_degrees != degrees) {
      std::fprintf(stderr, "FAIL: %u-thread clique count/degrees differ\n",
                   threads);
      ok = false;
    }
    if (peeled.core != core) {
      std::fprintf(stderr, "FAIL: %u-thread core numbers differ\n", threads);
      ok = false;
    }
    table.AddRow({std::to_string(threads), FormatSeconds(count_seconds),
                  FormatSeconds(degrees_seconds), FormatSeconds(peel_seconds)});
  }
  table.Print();
  return ok;
}

}  // namespace
}  // namespace dsd::bench

int main() {
  std::printf("Parallel algorithms (Section 6.3) thread scaling\n");
  return dsd::bench::Run() ? 0 : 1;
}
