#include "storage/ingest.h"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "storage/graph_store.h"

namespace dsd::storage {

namespace {

/// Parses the decimal digits at `p`, advancing it past them. False on
/// overflow or no digits.
bool ParseUint(const char*& p, const char* end, uint64_t& out) {
  const char* start = p;
  uint64_t value = 0;
  while (p < end && static_cast<unsigned char>(*p - '0') < 10) {
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (value > UINT64_MAX / 10 ||
        (value == UINT64_MAX / 10 && digit > UINT64_MAX % 10)) {
      return false;
    }
    value = value * 10 + digit;
    ++p;
  }
  out = value;
  return p != start;
}

void SkipSpaces(const char*& p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t')) ++p;
}

/// Raw endpoints of the kept edges, u0 v0 u1 v1 ..., in fixed-size blocks:
/// appending never copies or faults in again what is already stored.
using EndpointBlocks = std::vector<std::vector<uint64_t>>;
constexpr size_t kBlockEndpoints = size_t{1} << 16;  // even: pairs stay whole

/// Replaces every raw id in `blocks` by its rank among the distinct ids and
/// returns how many there are. A table indexed by raw id ranks in two
/// linear passes when max_id < kRankTableSlack * endpoints, so the table
/// is bounded by the input's size; wider ranges (sparse or hostile ids up
/// to 2^64 - 1) rank by binary search in a sorted, deduplicated copy.
VertexId RankIds(EndpointBlocks& blocks, uint64_t max_id) {
  size_t endpoints = 0;
  for (const std::vector<uint64_t>& block : blocks) endpoints += block.size();
  if (endpoints == 0) return 0;
  if (max_id / kRankTableSlack < endpoints) {
    std::vector<VertexId> rank(max_id + 1, 0);
    for (const std::vector<uint64_t>& block : blocks) {
      for (uint64_t id : block) rank[id] = 1;
    }
    VertexId next = 0;
    for (VertexId& r : rank) {
      const VertexId present = r;
      r = next;
      next += present;
    }
    for (std::vector<uint64_t>& block : blocks) {
      for (uint64_t& id : block) id = rank[id];
    }
    return next;
  }
  std::vector<uint64_t> sorted;
  sorted.reserve(endpoints);
  for (const std::vector<uint64_t>& block : blocks) {
    sorted.insert(sorted.end(), block.begin(), block.end());
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (std::vector<uint64_t>& block : blocks) {
    for (uint64_t& id : block) {
      id = static_cast<uint64_t>(
          std::lower_bound(sorted.begin(), sorted.end(), id) -
          sorted.begin());
    }
  }
  return static_cast<VertexId>(sorted.size());
}

}  // namespace

struct EdgeListIngester::Impl {
  // Raw endpoints of the kept (non-loop) edges: Finish ranks the distinct
  // ids once, so the numbering preserves the input's id order — dense
  // 0-based files keep their ids verbatim, 1-based files shift down by
  // one, arbitrary ids compact order-preservingly.
  EndpointBlocks endpoints;
  uint64_t max_id = 0;
  std::string carry;  // unterminated tail of the previous chunk
  IngestStats stats;  // stats.lines is also the current line's number
  Status error = Status::Ok();
  bool finished = false;

  /// Parses one line (without its '\n'). On a malformed line sets `error`
  /// and returns false.
  bool ParseLine(const char* p, const char* end);

  /// Records the current line's defect as the sticky error; false.
  bool Fail(const char* defect);
};

bool EdgeListIngester::Impl::Fail(const char* defect) {
  error = Status::InvalidArgument("line " + std::to_string(stats.lines) +
                                  ": " + defect);
  return false;
}

EdgeListIngester::EdgeListIngester() : impl_(new Impl) {}

EdgeListIngester::~EdgeListIngester() { delete impl_; }

bool EdgeListIngester::Impl::ParseLine(const char* p, const char* end) {
  ++stats.lines;
  // Tolerate CRLF: a trailing '\r' belongs to the terminator, not the line.
  if (p < end && end[-1] == '\r') --end;

  SkipSpaces(p, end);
  if (p == end) {
    ++stats.blank_lines;
    return true;
  }
  if (*p == '#' || *p == '%') {
    ++stats.comment_lines;
    return true;
  }

  uint64_t raw_u = 0;
  uint64_t raw_v = 0;
  if (!ParseUint(p, end, raw_u)) return Fail("expected first vertex id");
  SkipSpaces(p, end);
  if (!ParseUint(p, end, raw_v)) return Fail("expected second vertex id");
  SkipSpaces(p, end);
  if (p != end) return Fail("trailing garbage");

  ++stats.edges_in;
  if (raw_u == raw_v) {
    ++stats.self_loops;
    return true;
  }
  if (endpoints.empty() || endpoints.back().size() == kBlockEndpoints) {
    endpoints.emplace_back().reserve(kBlockEndpoints);
  }
  endpoints.back().push_back(raw_u);
  endpoints.back().push_back(raw_v);
  max_id = std::max({max_id, raw_u, raw_v});
  return true;
}

Status EdgeListIngester::Consume(std::string_view chunk) {
  Impl& impl = *impl_;
  if (!impl.error.ok()) return impl.error;

  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p < end) {
    const char* newline =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (newline == nullptr) {
      impl.carry.append(p, end);
      break;
    }
    bool parsed = true;
    if (impl.carry.empty()) {
      parsed = impl.ParseLine(p, newline);
    } else {
      impl.carry.append(p, newline);
      parsed = impl.ParseLine(impl.carry.data(),
                              impl.carry.data() + impl.carry.size());
      impl.carry.clear();
    }
    if (!parsed) return impl.error;
    p = newline + 1;
  }
  return Status::Ok();
}

StatusOr<Graph> EdgeListIngester::Finish(IngestStats* stats) {
  Impl& impl = *impl_;
  if (impl.finished) {
    return Status::InvalidArgument("EdgeListIngester::Finish called twice");
  }
  impl.finished = true;
  if (impl.error.ok() && !impl.carry.empty()) {
    // A final line without '\n' is still a line.
    const std::string last = std::move(impl.carry);
    impl.ParseLine(last.data(), last.data() + last.size());
  }
  if (!impl.error.ok()) return impl.error;

  EndpointBlocks& blocks = impl.endpoints;
  const VertexId n = RankIds(blocks, impl.max_id);
  // Ranks equal raw ids exactly when the ids are 0..n-1.
  impl.stats.ids_remapped = n > 0 && impl.max_id != n - 1;

  // CSR build: offsets[v] counts up to the end of row v, then the fill
  // walks the edges backwards, decrementing it to the row's start and
  // freeing each block once read. So each row holds its neighbours in
  // input order, and a list written in CSR order (io::SaveEdgeList) needs
  // no per-row sort.
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  for (const std::vector<uint64_t>& block : blocks) {
    for (uint64_t x : block) ++offsets[x];
  }
  EdgeId total = 0;
  for (EdgeId& o : offsets) o = total += o;
  std::vector<VertexId> neighbors(total);
  for (; !blocks.empty(); blocks.pop_back()) {
    const std::vector<uint64_t>& block = blocks.back();
    for (size_t i = block.size(); i > 0; i -= 2) {
      const auto u = static_cast<VertexId>(block[i - 2]);
      const auto v = static_cast<VertexId>(block[i - 1]);
      neighbors[--offsets[u]] = v;
      neighbors[--offsets[v]] = u;
    }
  }

  // Sort and deduplicate each row, compacting the array in place:
  // duplicates (either orientation) land adjacent in a sorted row.
  EdgeId kept = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto begin = neighbors.begin() + static_cast<ptrdiff_t>(offsets[v]);
    const auto end = neighbors.begin() + static_cast<ptrdiff_t>(offsets[v + 1]);
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
    const auto unique_end = std::unique(begin, end);
    offsets[v] = kept;
    const auto out = neighbors.begin() + static_cast<ptrdiff_t>(kept);
    if (out != begin) std::copy(begin, unique_end, out);
    kept += static_cast<EdgeId>(unique_end - begin);
  }
  offsets[n] = kept;
  // Each duplicate undirected edge contributed two duplicate slots.
  impl.stats.duplicate_edges = (total - kept) / 2;
  neighbors.resize(kept);
  neighbors.shrink_to_fit();  // a no-op unless there were duplicates
  impl.stats.vertices = n;
  impl.stats.edges = kept / 2;
  if (stats != nullptr) *stats = impl.stats;
  return Graph(std::move(offsets), std::move(neighbors));
}

StatusOr<Graph> IngestEdgeListFile(const std::string& path,
                                   IngestStats* stats) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  EdgeListIngester ingester;
  char buffer[64 * 1024];
  Status status = Status::Ok();
  for (;;) {
    const size_t got = std::fread(buffer, 1, sizeof(buffer), file);
    if (got == 0) break;
    status = ingester.Consume(std::string_view(buffer, got));
    if (!status.ok()) break;
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (!status.ok()) return status;
  if (read_error) return Status::IoError("read failure on " + path);
  return ingester.Finish(stats);
}

Status ConvertEdgeListToDsdg(const std::string& path,
                             const std::string& out_path,
                             IngestStats* stats) {
  StatusOr<Graph> graph = IngestEdgeListFile(path, stats);
  if (!graph.ok()) return graph.status();
  return WriteDsdgFile(graph.value(), out_path);
}

}  // namespace dsd::storage
