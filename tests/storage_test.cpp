// Tests for src/storage/: the .dsdg binary container (write, mmap/read
// open, corruption rejection), the streaming edge-list ingester (format
// tolerance, typed line-numbered errors, id remapping), and the dataset
// registry (spec validation, manifest parsing, materialize-once caching).
//
// The contract under test everywhere: a graph that travels through the
// storage layer comes back BITWISE identical (same CSR arrays), damaged
// files are rejected with a typed Status rather than misread, and every
// load path hands out a fresh generation tag so a DecompositionIndex can
// never serve one file open's entries for another.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "storage/dataset_registry.h"
#include "storage/format.h"
#include "storage/graph_store.h"
#include "storage/ingest.h"

namespace dsd::storage {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/dsd_storage_" + name;
}

Graph SampleGraph() {
  return gen::PowerLawWithCommunities(500, 3, 8, 10, 0.8, 42);
}

/// Deterministic, every vertex degree >= 2: ring plus skip chords. Text
/// edge lists cannot represent isolated vertices, so bitwise text
/// round-trip tests need a graph without them (SampleGraph has a few).
Graph ConnectedSampleGraph() {
  constexpr VertexId n = 400;
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) {
    builder.AddEdge(v, (v + 1) % n);
    builder.AddEdge(v, (v * 7 + 3) % n);
  }
  return builder.Build();
}

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

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path,
              const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Container round-trips

TEST(DsdgFormatTest, RoundTripsBitwiseViaMmapAndFallback) {
  const Graph original = SampleGraph();
  const std::string path = TempPath("roundtrip.dsdg");
  ASSERT_TRUE(WriteDsdgFile(original, path).ok());

  OpenOptions mmap_options;
  mmap_options.use_mmap = true;
  StatusOr<Graph> mapped = OpenDsdgFile(path, mmap_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().IsBorrowed());
  EXPECT_TRUE(BitwiseEqual(original, mapped.value()));

  OpenOptions fallback_options;
  fallback_options.use_mmap = false;
  StatusOr<Graph> buffered = OpenDsdgFile(path, fallback_options);
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_TRUE(BitwiseEqual(original, buffered.value()));

  // Graph-level accessors agree too, not just the raw arrays.
  EXPECT_EQ(original.NumVertices(), mapped.value().NumVertices());
  EXPECT_EQ(original.NumEdges(), mapped.value().NumEdges());
  for (VertexId v = 0; v < original.NumVertices(); v += 37) {
    ASSERT_TRUE(std::equal(original.Neighbors(v).begin(),
                           original.Neighbors(v).end(),
                           mapped.value().Neighbors(v).begin(),
                           mapped.value().Neighbors(v).end()));
  }
}

TEST(DsdgFormatTest, EmptyAndEdgelessGraphsRoundTrip) {
  const std::string path = TempPath("empty.dsdg");
  const Graph empty;
  ASSERT_TRUE(WriteDsdgFile(empty, path).ok());
  StatusOr<Graph> reread = OpenDsdgFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread.value().NumVertices(), 0u);
  EXPECT_EQ(reread.value().NumEdges(), 0u);

  GraphBuilder builder(3);  // vertices but no edges
  const Graph edgeless = builder.Build();
  ASSERT_TRUE(WriteDsdgFile(edgeless, path).ok());
  reread = OpenDsdgFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread.value().NumVertices(), 3u);
  EXPECT_EQ(reread.value().NumEdges(), 0u);
}

TEST(DsdgFormatTest, VerifyAtOpenAcceptsIntactFile) {
  const std::string path = TempPath("verified.dsdg");
  ASSERT_TRUE(WriteDsdgFile(SampleGraph(), path).ok());
  OpenOptions options;
  options.verify = true;
  EXPECT_TRUE(OpenDsdgFile(path, options).ok());
  EXPECT_TRUE(VerifyDsdgFile(path).ok());
}

// ---------------------------------------------------------------------------
// Corruption and mismatch rejection

TEST(DsdgFormatTest, RejectsBadMagic) {
  const std::string path = TempPath("bad_magic.dsdg");
  ASSERT_TRUE(WriteDsdgFile(SampleGraph(), path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  bytes[0] ^= 0xFF;
  WriteAll(path, bytes);
  StatusOr<Graph> opened = OpenDsdgFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
  EXPECT_NE(opened.status().message().find("bad magic"), std::string::npos)
      << opened.status().ToString();
}

TEST(DsdgFormatTest, RejectsVersionMismatch) {
  const std::string path = TempPath("bad_version.dsdg");
  ASSERT_TRUE(WriteDsdgFile(SampleGraph(), path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  bytes[8] = 99;  // version field, offset 8
  WriteAll(path, bytes);
  StatusOr<Graph> opened = OpenDsdgFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
  EXPECT_NE(opened.status().message().find("version"), std::string::npos)
      << opened.status().ToString();
}

TEST(DsdgFormatTest, RejectsForeignEndianness) {
  const std::string path = TempPath("bad_endian.dsdg");
  ASSERT_TRUE(WriteDsdgFile(SampleGraph(), path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  // Byte-swap the endian tag (offset 12): what a big-endian writer's file
  // looks like to this little-endian reader.
  std::swap(bytes[12], bytes[15]);
  std::swap(bytes[13], bytes[14]);
  WriteAll(path, bytes);
  StatusOr<Graph> opened = OpenDsdgFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
  EXPECT_NE(opened.status().message().find("endian"), std::string::npos)
      << opened.status().ToString();
}

TEST(DsdgFormatTest, RejectsCorruptHeaderViaChecksum) {
  const std::string path = TempPath("bad_header.dsdg");
  ASSERT_TRUE(WriteDsdgFile(SampleGraph(), path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  bytes[17] ^= 0x01;  // inside num_vertices; magic/version/endian intact
  WriteAll(path, bytes);
  StatusOr<Graph> opened = OpenDsdgFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
  EXPECT_NE(opened.status().message().find("header checksum"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(DsdgFormatTest, RejectsTruncatedFileAtOpen) {
  const std::string path = TempPath("truncated.dsdg");
  ASSERT_TRUE(WriteDsdgFile(SampleGraph(), path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  ASSERT_GE(bytes.size(), size_t{64});
  bytes.erase(bytes.end() - 8, bytes.end());
  WriteAll(path, bytes);
  StatusOr<Graph> opened = OpenDsdgFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
  EXPECT_NE(opened.status().message().find("truncated"), std::string::npos)
      << opened.status().ToString();

  // Shorter than even a header: still a typed error, not a crash.
  bytes.resize(10);
  WriteAll(path, bytes);
  opened = OpenDsdgFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
}

TEST(DsdgFormatTest, PayloadCorruptionCaughtByVerifyNotByPlainOpen) {
  const std::string path = TempPath("bad_payload.dsdg");
  ASSERT_TRUE(WriteDsdgFile(SampleGraph(), path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  bytes[bytes.size() - 1] ^= 0x01;  // flip a neighbor id bit
  WriteAll(path, bytes);

  // A plain open only checks the header and the size — by design (lazy
  // paging); the payload checksum is the on-demand deep check.
  EXPECT_TRUE(OpenDsdgFile(path).ok());
  const Status deep = VerifyDsdgFile(path);
  ASSERT_FALSE(deep.ok());
  EXPECT_TRUE(deep.IsInvalidArgument());

  OpenOptions options;
  options.verify = true;
  EXPECT_FALSE(OpenDsdgFile(path, options).ok());
}

TEST(DsdgFormatTest, MissingFileIsIoError) {
  StatusOr<Graph> opened = OpenDsdgFile(TempPath("nonexistent.dsdg"));
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIoError());
}

// ---------------------------------------------------------------------------
// Generation tags: DecompositionIndex soundness across opens

TEST(DsdgFormatTest, EveryOpenGetsAFreshGenerationTag) {
  const Graph original = SampleGraph();
  const std::string path = TempPath("generation.dsdg");
  ASSERT_TRUE(WriteDsdgFile(original, path).ok());
  StatusOr<Graph> first = OpenDsdgFile(path);
  StatusOr<Graph> second = OpenDsdgFile(path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Same bytes, three distinct identities: an index keyed by generation
  // can never serve one graph's entries for another.
  EXPECT_NE(first.value().Generation(), original.Generation());
  EXPECT_NE(first.value().Generation(), second.value().Generation());
}

// ---------------------------------------------------------------------------
// Sniffing and the unified load path

TEST(SniffTest, DistinguishesContainerFromTextAndReportsMissing) {
  const std::string dsdg = TempPath("sniff.dsdg");
  ASSERT_TRUE(WriteDsdgFile(SampleGraph(), dsdg).ok());
  StatusOr<GraphFileKind> kind = SniffGraphFile(dsdg);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.value(), GraphFileKind::kDsdg);

  const std::string text = TempPath("sniff.txt");
  WriteText(text, "0 1\n1 2\n");
  kind = SniffGraphFile(text);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.value(), GraphFileKind::kEdgeList);

  EXPECT_TRUE(SniffGraphFile(TempPath("sniff_missing")).status().IsIoError());
}

TEST(SniffTest, LoadGraphFileDispatchesOnMagic) {
  const Graph original = ConnectedSampleGraph();
  const std::string dsdg = TempPath("load.dsdg");
  const std::string text = TempPath("load.txt");
  ASSERT_TRUE(WriteDsdgFile(original, dsdg).ok());
  ASSERT_TRUE(io::SaveEdgeList(original, text).ok());

  StatusOr<Graph> from_dsdg = LoadGraphFile(dsdg);
  ASSERT_TRUE(from_dsdg.ok());
  EXPECT_TRUE(BitwiseEqual(original, from_dsdg.value()));

  StatusOr<Graph> from_text = LoadGraphFile(text);
  ASSERT_TRUE(from_text.ok());
  EXPECT_TRUE(BitwiseEqual(original, from_text.value()));
}

// ---------------------------------------------------------------------------
// Edge-list ingestion

StatusOr<Graph> IngestText(const std::string& text,
                           IngestStats* stats = nullptr) {
  EdgeListIngester ingester;
  Status consumed = ingester.Consume(text);
  if (!consumed.ok()) return consumed;
  return ingester.Finish(stats);
}

TEST(IngestTest, ToleratesCommentsBlanksAndCrlf) {
  IngestStats stats;
  StatusOr<Graph> graph = IngestText(
      "# SNAP-style comment\n"
      "% matrix-market-style comment\n"
      "\n"
      "   \t \n"
      "0 1\r\n"
      "\t1  2\n"
      "2 0",  // final line without a newline still counts
      &stats);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().NumVertices(), 3u);
  EXPECT_EQ(graph.value().NumEdges(), 3u);
  EXPECT_EQ(stats.comment_lines, 2u);
  EXPECT_EQ(stats.blank_lines, 2u);
  EXPECT_EQ(stats.lines, 7u);
  EXPECT_FALSE(stats.ids_remapped);
}

TEST(IngestTest, DropsSelfLoopsAndDuplicatesEitherOrientation) {
  IngestStats stats;
  StatusOr<Graph> graph = IngestText(
      "0 1\n"
      "1 0\n"  // reverse duplicate
      "0 1\n"  // exact duplicate
      "1 1\n"  // self loop
      "1 2\n",
      &stats);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().NumEdges(), 2u);
  EXPECT_EQ(stats.self_loops, 1u);
  EXPECT_EQ(stats.duplicate_edges, 2u);
}

TEST(IngestTest, RemapsOneBasedAndScatteredIdsPreservingOrder) {
  IngestStats stats;
  // 1-based ids: everything shifts down by one, order preserved.
  StatusOr<Graph> one_based = IngestText("1 2\n2 3\n3 1\n", &stats);
  ASSERT_TRUE(one_based.ok());
  EXPECT_EQ(one_based.value().NumVertices(), 3u);
  EXPECT_TRUE(stats.ids_remapped);
  EXPECT_EQ(one_based.value().Neighbors(0).size(), 2u);

  // Scattered ids compact by rank: 7 -> 0, 100 -> 1, 4000 -> 2.
  StatusOr<Graph> scattered = IngestText("100 7\n100 4000\n", &stats);
  ASSERT_TRUE(scattered.ok());
  EXPECT_EQ(scattered.value().NumVertices(), 3u);
  EXPECT_TRUE(stats.ids_remapped);
  const auto hub = scattered.value().Neighbors(1);  // 100 has both edges
  EXPECT_EQ(std::vector<VertexId>(hub.begin(), hub.end()),
            (std::vector<VertexId>{0, 2}));
}

TEST(IngestTest, MalformedLinesReportTypedErrorsWithLineNumbers) {
  StatusOr<Graph> missing_second = IngestText("0 1\n17\n");
  ASSERT_FALSE(missing_second.ok());
  EXPECT_TRUE(missing_second.status().IsInvalidArgument());
  EXPECT_NE(missing_second.status().message().find("line 2"),
            std::string::npos)
      << missing_second.status().ToString();

  StatusOr<Graph> garbage = IngestText("0 1\n1 2\nx y\n");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.status().message().find("line 3"), std::string::npos);

  StatusOr<Graph> trailing = IngestText("0 1 weight\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("trailing garbage"),
            std::string::npos);

  StatusOr<Graph> overflow = IngestText("0 999999999999999999999999\n");
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsInvalidArgument());
}

TEST(IngestTest, ErrorIsStickyAcrossConsumeAndFinish) {
  EdgeListIngester ingester;
  EXPECT_FALSE(ingester.Consume("bogus\n").ok());
  EXPECT_FALSE(ingester.Consume("0 1\n").ok());  // still the line-1 error
  StatusOr<Graph> finished = ingester.Finish();
  ASSERT_FALSE(finished.ok());
  EXPECT_NE(finished.status().message().find("line 1"), std::string::npos);
}

TEST(IngestTest, ChunkBoundariesInsideLinesAndTokensAreInvisible) {
  // Same edges as a one-shot parse, fed one byte at a time.
  const std::string text = "10 20\n20 30\n30 10\n";
  EdgeListIngester ingester;
  for (char c : text) {
    ASSERT_TRUE(ingester.Consume(std::string_view(&c, 1)).ok());
  }
  StatusOr<Graph> chunked = ingester.Finish();
  ASSERT_TRUE(chunked.ok());
  StatusOr<Graph> oneshot = IngestText(text);
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(BitwiseEqual(chunked.value(), oneshot.value()));
}

TEST(IngestTest, FinishTwiceIsAnError) {
  EdgeListIngester ingester;
  ASSERT_TRUE(ingester.Consume("0 1\n").ok());
  EXPECT_TRUE(ingester.Finish().ok());
  EXPECT_FALSE(ingester.Finish().ok());
}

TEST(IngestTest, SavedEdgeListReingestsBitwise) {
  // The text round-trip contract: SaveEdgeList emits dense 0-based ids in
  // CSR order, and rank-based remapping maps them back verbatim.
  const Graph original = ConnectedSampleGraph();
  const std::string path = TempPath("reingest.txt");
  ASSERT_TRUE(io::SaveEdgeList(original, path).ok());
  IngestStats stats;
  StatusOr<Graph> reread = IngestEdgeListFile(path, &stats);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_TRUE(BitwiseEqual(original, reread.value()));
  EXPECT_FALSE(stats.ids_remapped);
  EXPECT_EQ(stats.duplicate_edges, 0u);
}

TEST(IngestTest, ConvertEdgeListToDsdgProducesTheSameGraph) {
  const std::string text = TempPath("convert.txt");
  const std::string dsdg = TempPath("convert.dsdg");
  WriteText(text, "# five\n1 2\n2 3\n3 1\n3 4\n4 5\n");
  IngestStats stats;
  ASSERT_TRUE(ConvertEdgeListToDsdg(text, dsdg, &stats).ok());
  EXPECT_EQ(stats.edges, 5u);
  StatusOr<Graph> direct = IngestEdgeListFile(text);
  StatusOr<Graph> via_dsdg = OpenDsdgFile(dsdg);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_dsdg.ok());
  EXPECT_TRUE(BitwiseEqual(direct.value(), via_dsdg.value()));
  EXPECT_TRUE(VerifyDsdgFile(dsdg).ok());
}

// ---------------------------------------------------------------------------
// Dataset registry

DatasetSpec SmallErSpec(const std::string& name) {
  DatasetSpec spec;
  spec.name = name;
  spec.kind = "er";
  spec.params = {{"n", "500"}, {"p", "0.01"}, {"seed", "7"}};
  return spec;
}

TEST(DatasetRegistryTest, BuiltinsArePresentAndValidated) {
  DatasetRegistry registry(TempPath("cache_builtin"));
  const std::vector<std::string> names = registry.Names();
  for (const char* expected : {"pl-100k", "pl-1m", "er-1m", "pl-10m"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(registry.Info("pl-1m").ok());
  EXPECT_TRUE(registry.Info("nonesuch").status().IsNotFound());
  EXPECT_TRUE(registry.BuildFresh("nonesuch").status().IsNotFound());
  EXPECT_TRUE(registry.Materialize("nonesuch").status().IsNotFound());
}

TEST(DatasetRegistryTest, AddValidatesSpecsAtRegistration) {
  DatasetRegistry registry(TempPath("cache_add"));
  EXPECT_TRUE(registry.Add(SmallErSpec("tiny")).ok());

  DatasetSpec unknown_kind = SmallErSpec("bad1");
  unknown_kind.kind = "quantum";
  EXPECT_TRUE(registry.Add(unknown_kind).IsInvalidArgument());

  DatasetSpec missing_param = SmallErSpec("bad2");
  missing_param.params.erase("seed");
  EXPECT_TRUE(registry.Add(missing_param).IsInvalidArgument());

  DatasetSpec extra_param = SmallErSpec("bad3");
  extra_param.params["bogus"] = "1";
  EXPECT_TRUE(registry.Add(extra_param).IsInvalidArgument());

  DatasetSpec non_numeric = SmallErSpec("bad4");
  non_numeric.params["n"] = "many";
  EXPECT_TRUE(registry.Add(non_numeric).IsInvalidArgument());

  DatasetSpec unnamed = SmallErSpec("");
  EXPECT_TRUE(registry.Add(unnamed).IsInvalidArgument());
}

TEST(DatasetRegistryTest, MaterializeCachesAndOpenMatchesBuildFresh) {
  const std::string cache = TempPath("cache_mat");
  std::filesystem::remove_all(cache);
  DatasetRegistry registry(cache);
  ASSERT_TRUE(registry.Add(SmallErSpec("tiny")).ok());

  StatusOr<std::string> path = registry.Materialize("tiny");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(path.value()));
  const auto first_write = std::filesystem::last_write_time(path.value());

  // Second materialize reuses the cache file instead of regenerating.
  StatusOr<std::string> again = registry.Materialize("tiny");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(path.value(), again.value());
  EXPECT_EQ(first_write, std::filesystem::last_write_time(again.value()));

  // And the cached container holds exactly the fixed-seed graph.
  StatusOr<Graph> opened = registry.Open("tiny");
  StatusOr<Graph> fresh = registry.BuildFresh("tiny");
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(opened.value().IsBorrowed());
  EXPECT_TRUE(BitwiseEqual(opened.value(), fresh.value()));
}

TEST(DatasetRegistryTest, FileKindPassesThroughDsdgAndConvertsText) {
  const std::string cache = TempPath("cache_file");
  std::filesystem::remove_all(cache);
  DatasetRegistry registry(cache);

  const Graph graph = ConnectedSampleGraph();
  const std::string dsdg = TempPath("filekind.dsdg");
  ASSERT_TRUE(WriteDsdgFile(graph, dsdg).ok());
  DatasetSpec direct;
  direct.name = "direct";
  direct.kind = "file";
  direct.params = {{"path", dsdg}};
  ASSERT_TRUE(registry.Add(direct).ok());
  StatusOr<std::string> path = registry.Materialize("direct");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), dsdg);  // already a container: no copy

  const std::string text = TempPath("filekind.txt");
  ASSERT_TRUE(io::SaveEdgeList(graph, text).ok());
  DatasetSpec textual;
  textual.name = "textual";
  textual.kind = "file";
  textual.params = {{"path", text}};
  ASSERT_TRUE(registry.Add(textual).ok());
  path = registry.Materialize("textual");
  ASSERT_TRUE(path.ok());
  EXPECT_NE(path.value(), text);  // converted into the cache
  StatusOr<Graph> opened = registry.Open("textual");
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(BitwiseEqual(graph, opened.value()));
}

TEST(DatasetRegistryTest, ManifestAddsEntriesAndReportsLineNumbers) {
  DatasetRegistry registry(TempPath("cache_manifest"));
  const std::string manifest = TempPath("manifest.txt");
  WriteText(manifest,
            "# local datasets\n"
            "\n"
            "web er n=1000 p=0.004 seed=11\n"
            "roads ba n=2000 epv=2 seed=12\n");
  ASSERT_TRUE(registry.LoadManifest(manifest).ok());
  EXPECT_TRUE(registry.Info("web").ok());
  EXPECT_TRUE(registry.Info("roads").ok());

  WriteText(manifest, "ok er n=10 p=0.1 seed=1\nbroken er n=10\n");
  Status bad = registry.LoadManifest(manifest);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("line 2"), std::string::npos)
      << bad.ToString();

  WriteText(manifest, "noparams\n");
  bad = registry.LoadManifest(manifest);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("line 1"), std::string::npos);

  WriteText(manifest, "x er n=10 p=0.1 seed=1 malformed-token\n");
  bad = registry.LoadManifest(manifest);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("key=value"), std::string::npos);

  EXPECT_TRUE(
      registry.LoadManifest(TempPath("manifest_missing")).IsIoError());
}

// ---------------------------------------------------------------------------
// Memory footprint (reported by dsd_cli --stats and server stats)

TEST(MemoryFootprintTest, CountsBothCsrArrays) {
  const Graph graph = SampleGraph();
  const size_t expected =
      (static_cast<size_t>(graph.NumVertices()) + 1) * sizeof(EdgeId) +
      static_cast<size_t>(2 * graph.NumEdges()) * sizeof(VertexId);
  EXPECT_EQ(graph.MemoryFootprintBytes(), expected);
  EXPECT_EQ(Graph().MemoryFootprintBytes(), sizeof(EdgeId));

  // A borrowed (mmap) graph reports the same footprint as its owned twin.
  const std::string path = TempPath("footprint.dsdg");
  ASSERT_TRUE(WriteDsdgFile(graph, path).ok());
  StatusOr<Graph> mapped = OpenDsdgFile(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value().MemoryFootprintBytes(), expected);
}

}  // namespace
}  // namespace dsd::storage
