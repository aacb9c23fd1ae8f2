// Storage bench: what the .dsdg container buys over re-parsing text.
//
// Materializes the pl-1m registry dataset (>= 10^6 edges, fixed seed),
// writes it out as an edge-list text file, and times the three ways of
// getting it back into memory:
//
//   mmap   OpenDsdgFile, zero-copy     — the steady-state bench/server path
//   read   OpenDsdgFile, malloc+fread  — the no-mmap fallback
//   text   IngestEdgeListFile          — the streaming SNAP ingester
//
// plus an `mmap+touch` row that sweeps both CSR arrays after the open, so
// the lazy-paging cost is visible next to the O(1) open cost rather than
// hidden inside the first solve.
//
// The bench FAILS (exit 1) unless (a) every loaded graph is bitwise
// identical to the .dsdg contents and (b) the mmap open is at least 10x
// faster than text ingestion — the contract that justifies the format.
// Emits BENCH_storage.json records with dataset/vertices/edges/load_ms.
//
// Usage: bench_storage [output.json]   (stdout when no path is given)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/io.h"
#include "storage/dataset_registry.h"
#include "storage/graph_store.h"
#include "storage/ingest.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

constexpr char kDataset[] = "pl-1m";
constexpr double kRequiredSpeedup = 10.0;
constexpr int kOpenRepeats = 5;  // opens are microseconds; time the median

struct Record {
  std::string path;  // "mmap", "mmap+touch", "read", "text"
  double load_ms = 0.0;
  size_t vertices = 0;
  size_t edges = 0;
};

bool BitwiseEqual(const Graph& a, const Graph& b) {
  const auto ao = a.RawOffsets();
  const auto bo = b.RawOffsets();
  const auto an = a.RawNeighbors();
  const auto bn = b.RawNeighbors();
  return ao.size() == bo.size() && an.size() == bn.size() &&
         std::memcmp(ao.data(), bo.data(), ao.size_bytes()) == 0 &&
         (an.empty() ||
          std::memcmp(an.data(), bn.data(), an.size_bytes()) == 0);
}

/// Forces every payload page in: sums both CSR arrays.
uint64_t TouchAll(const Graph& graph) {
  uint64_t sum = 0;
  for (EdgeId offset : graph.RawOffsets()) sum += offset;
  for (VertexId v : graph.RawNeighbors()) sum += v;
  return sum;
}

/// Median open time over kOpenRepeats runs (first run pays cold caches).
template <typename Fn>
double MedianMs(Fn&& open, Graph* last) {
  std::vector<double> times;
  for (int i = 0; i < kOpenRepeats; ++i) {
    Timer timer;
    StatusOr<Graph> graph = open();
    const double ms = timer.Seconds() * 1e3;
    if (!graph.ok()) return -1.0;
    *last = std::move(graph).value();
    times.push_back(ms);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

int Run(std::FILE* out) {
  const storage::DatasetRegistry& registry = storage::GlobalDatasetRegistry();
  StatusOr<std::string> dsdg_path = registry.Materialize(kDataset);
  if (!dsdg_path.ok()) {
    std::fprintf(stderr, "FAIL: materialize %s: %s\n", kDataset,
                 dsdg_path.status().ToString().c_str());
    return 1;
  }

  // The reference copy everything is checked against.
  StatusOr<Graph> reference = storage::OpenDsdgFile(dsdg_path.value());
  if (!reference.ok()) {
    std::fprintf(stderr, "FAIL: open %s: %s\n", dsdg_path.value().c_str(),
                 reference.status().ToString().c_str());
    return 1;
  }
  const size_t vertices = reference.value().NumVertices();
  const size_t edges = static_cast<size_t>(reference.value().NumEdges());
  std::fprintf(stderr, "%s: n=%zu m=%zu (%s)\n", kDataset, vertices, edges,
               dsdg_path.value().c_str());

  // The text twin the ingester is timed against.
  const std::string text_path = registry.cache_dir() + "/" + kDataset + ".txt";
  const Status saved = io::SaveEdgeList(reference.value(), text_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", saved.ToString().c_str());
    return 1;
  }

  std::vector<Record> records;
  auto add = [&](const char* path, double ms) {
    records.push_back({path, ms, vertices, edges});
    std::fprintf(stderr, "%-11s %10.3f ms\n", path, ms);
  };

  Graph loaded;
  storage::OpenOptions mmap_options;
  const double mmap_ms = MedianMs(
      [&] { return storage::OpenDsdgFile(dsdg_path.value(), mmap_options); },
      &loaded);
  if (mmap_ms < 0.0 || !BitwiseEqual(reference.value(), loaded)) {
    std::fprintf(stderr, "FAIL: mmap open failed or mismatched\n");
    return 1;
  }
  add("mmap", mmap_ms);

  // The checksum is compared and printed below, so the page-in loop is
  // live code and the row times it, not only the open.
  uint64_t touch_checksum = 0;
  const double touch_ms = MedianMs(
      [&]() -> StatusOr<Graph> {
        StatusOr<Graph> graph =
            storage::OpenDsdgFile(dsdg_path.value(), mmap_options);
        if (graph.ok()) touch_checksum = TouchAll(graph.value());
        return graph;
      },
      &loaded);
  if (touch_checksum != TouchAll(reference.value())) {
    std::fprintf(stderr, "FAIL: mmap+touch read back different bytes\n");
    return 1;
  }
  add("mmap+touch", touch_ms);

  storage::OpenOptions read_options;
  read_options.use_mmap = false;
  const double read_ms = MedianMs(
      [&] { return storage::OpenDsdgFile(dsdg_path.value(), read_options); },
      &loaded);
  if (read_ms < 0.0 || !BitwiseEqual(reference.value(), loaded)) {
    std::fprintf(stderr, "FAIL: fallback open failed or mismatched\n");
    return 1;
  }
  add("read", read_ms);

  // Text ingestion: once is plenty (it is the slow path by orders of
  // magnitude). Vertex counts can differ — text cannot carry isolated
  // vertices — so parity here is edge count, not bitwise.
  Timer text_timer;
  StatusOr<Graph> ingested = storage::IngestEdgeListFile(text_path);
  const double text_ms = text_timer.Seconds() * 1e3;
  if (!ingested.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", ingested.status().ToString().c_str());
    return 1;
  }
  if (ingested.value().NumEdges() != reference.value().NumEdges()) {
    std::fprintf(stderr, "FAIL: text ingest edge count mismatch\n");
    return 1;
  }
  add("text", text_ms);

  const double speedup = mmap_ms > 0.0 ? text_ms / mmap_ms : 0.0;
  std::fprintf(stderr, "mmap speedup over text: %.1fx (required >= %.0fx)\n",
               speedup, kRequiredSpeedup);
  if (speedup < kRequiredSpeedup) {
    std::fprintf(stderr, "FAIL: mmap open must be >= %.0fx faster than "
                 "text ingestion\n", kRequiredSpeedup);
    return 1;
  }

  std::fprintf(out,
               "{\n  \"benchmark\": \"storage\",\n"
               "  \"dataset\": \"%s\",\n"
               "  \"speedup_mmap_vs_text\": %.1f,\n"
               "  \"touch_checksum\": %llu,\n"
               "  \"results\": [\n",
               kDataset, speedup,
               static_cast<unsigned long long>(touch_checksum));
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(out,
                 "    {\"path\": \"%s\", \"dataset\": \"%s\", "
                 "\"vertices\": %zu, \"edges\": %zu, \"load_ms\": %.3f}%s\n",
                 r.path.c_str(), kDataset, r.vertices, r.edges, r.load_ms,
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
