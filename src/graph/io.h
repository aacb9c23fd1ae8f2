// Edge-list text I/O (the format SNAP datasets ship in).
#ifndef DSD_GRAPH_IO_H_
#define DSD_GRAPH_IO_H_

#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace dsd::io {

/// Parses an edge-list: one "u v" pair per line, whitespace separated.
/// Lines starting with '#' or '%' are comments; blank lines are skipped.
/// Vertex ids are arbitrary non-negative integers, numbered densely by
/// raw-id rank, so dense 0-based ids keep their numbers. Self-loops and
/// duplicate edges are dropped. Forwards to storage::EdgeListIngester.
StatusOr<Graph> ParseEdgeList(const std::string& text);

/// Loads an edge-list file (storage::IngestEdgeListFile, which streams it
/// in chunks). See ParseEdgeList for the format.
StatusOr<Graph> LoadEdgeList(const std::string& path);

/// Serializes a graph as "u v" lines (normalized, u < v, CSR order).
std::string ToEdgeList(const Graph& graph);

/// Writes ToEdgeList(graph) to a file.
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace dsd::io

#endif  // DSD_GRAPH_IO_H_
