// Streaming SNAP/edge-list ingestion.
//
// SNAP datasets ship as text: one "u v" pair per line, '#' or '%'
// comments, arbitrary (often 1-based or sparse) vertex ids, frequently
// with self-loops and both orientations of each edge. The ingester
// consumes that text in fixed-size chunks — the file is never resident as
// a whole — numbers vertices by raw-id rank, drops self-loops, collapses
// duplicates, and builds the CSR directly. io::ParseEdgeList and
// io::LoadEdgeList forward here, so this is the one edge-list parser.
// Parse errors are typed InvalidArgument carrying the 1-based line number,
// so the server's `load` verb can tell a client exactly which line of
// their upload was malformed.
//
// Memory: while streaming, 16 B per kept edge (its two raw 64-bit ids, in
// 512 KiB blocks) and no hash map. Finish() ranks the distinct ids once,
// with a 4 B-per-id table over 0..max id when that range is below
// kRankTableSlack times the endpoint count, else with a sorted copy of the
// endpoints (16 B per edge); then it fills the CSR (8 B per edge plus 8 B
// per vertex), freeing the blocks as it reads them, and sorts and
// deduplicates its rows in place.
#ifndef DSD_STORAGE_INGEST_H_
#define DSD_STORAGE_INGEST_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/graph.h"
#include "util/status.h"

namespace dsd::storage {

/// Finish() ranks ids with a table indexed by raw id when the largest kept
/// id is below kRankTableSlack x the number of kept edge endpoints (twice
/// the kept edges), and by sorting otherwise. Both give the same numbering.
inline constexpr uint64_t kRankTableSlack = 2;

/// What ingestion saw and did. `vertices`/`edges` describe the resulting
/// graph; the rest make data-quality visible (dsd_convert --stats prints
/// them).
struct IngestStats {
  uint64_t lines = 0;           ///< total input lines
  uint64_t comment_lines = 0;   ///< '#'/'%' lines skipped
  uint64_t blank_lines = 0;     ///< empty/whitespace lines skipped
  uint64_t edges_in = 0;        ///< edge lines parsed
  uint64_t self_loops = 0;      ///< dropped u == v entries
  uint64_t duplicate_edges = 0; ///< collapsed repeat/reverse entries
  bool ids_remapped = false;    ///< raw ids were not already dense 0..n-1
  uint64_t vertices = 0;
  uint64_t edges = 0;           ///< undirected edges in the result
};

/// Incremental ingester: feed the text in arbitrary chunks (Consume),
/// then Finish() to get the graph. LoadGraphFile/IngestEdgeListFile wrap
/// it for files; the server could feed network chunks directly.
class EdgeListIngester {
 public:
  EdgeListIngester();
  ~EdgeListIngester();
  EdgeListIngester(const EdgeListIngester&) = delete;
  EdgeListIngester& operator=(const EdgeListIngester&) = delete;

  /// Consumes the next chunk of text. Chunks may split lines anywhere.
  /// InvalidArgument (with a line number) sticks: later calls and
  /// Finish() return the same error.
  Status Consume(std::string_view chunk);

  /// Flushes any final unterminated line and builds the normalized graph.
  /// The ingester is spent afterwards.
  StatusOr<Graph> Finish(IngestStats* stats = nullptr);

 private:
  struct Impl;
  Impl* impl_;
};

/// Streams `path` through an EdgeListIngester (64 KiB chunks).
/// IoError when unreadable; InvalidArgument with a line number on
/// malformed content.
StatusOr<Graph> IngestEdgeListFile(const std::string& path,
                                   IngestStats* stats = nullptr);

/// Streams `path` to a .dsdg container at `out_path` without ever holding
/// the text in memory (the CSR arrays are built incrementally and written
/// once). The conversion pipeline behind dsd_convert and the dataset
/// registry's materialization.
Status ConvertEdgeListToDsdg(const std::string& path,
                             const std::string& out_path,
                             IngestStats* stats = nullptr);

}  // namespace dsd::storage

#endif  // DSD_STORAGE_INGEST_H_
