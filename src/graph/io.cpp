#include "graph/io.h"

#include <fstream>
#include <sstream>

#include "storage/ingest.h"

namespace dsd::io {

StatusOr<Graph> ParseEdgeList(const std::string& text) {
  storage::EdgeListIngester ingester;
  Status consumed = ingester.Consume(text);
  if (!consumed.ok()) return consumed;
  return ingester.Finish();
}

StatusOr<Graph> LoadEdgeList(const std::string& path) {
  return storage::IngestEdgeListFile(path);
}

std::string ToEdgeList(const Graph& graph) {
  std::ostringstream out;
  for (const Edge& e : graph.Edges()) {
    out << e.first << ' ' << e.second << '\n';
  }
  return out.str();
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file << ToEdgeList(graph);
  if (!file) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

}  // namespace dsd::io
