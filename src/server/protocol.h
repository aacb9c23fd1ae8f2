// The dsd_server wire protocol: length-prefixed frames carrying one-line
// text messages.
//
// Framing (both directions, TCP and the --stdin pipe mode alike):
//
//   frame := <decimal payload byte count> '\n' <payload bytes>
//
// The payload is a single line of ASCII text with NO trailing newline (the
// length prefix replaces it). Length-prefixing keeps parsing trivial in
// any language while making message boundaries explicit — a client never
// scans for delimiters inside a payload.
//
// Request payloads: a verb followed by space-separated key=value fields
// (values contain no spaces; list values are comma-separated):
//
//   solve graph=G [algo=A] [motif=M] [threads=N] [budget=S] [min_size=K]
//         [eps=E] [seeds=a,b,c] [members=1] [id=N]
//   load name=G (preset=P [seed=N] | file=PATH) [id=N]
//   stats [id=N]      list [id=N]      ping [id=N]      shutdown [id=N]
//
// Response payloads start with "ok" or "err" and echo the request id:
//
//   ok id=N wall=S threads=T density=D instances=I vertices=V
//      members_hash=H [members=a,b,...]        (solve)
//   ok id=N received=... completed=... failed=... shed=... coalesced=...
//      queue=... running=... resident_bytes=... index_hits=... ...  (stats)
//   err id=N code=<Status::CodeName()> msg=<rest of line, may have spaces>
//
// `coalesced` counts solves answered by attaching to an identical solve
// that was still queued (batch admission): each attached request still
// receives its own response frame, bit-identical modulo its id and
// members flag, but only one execution ran.
//
// `density` is printed with enough digits (%.17g) to round-trip the exact
// double, and `members_hash` is an order-independent-free FNV-1a over the
// sorted member ids — together they let a replay client verify responses
// BIT-IDENTICAL against a direct dsd::Solve without shipping the full
// vertex list on every response.
#ifndef DSD_SERVER_PROTOCOL_H_
#define DSD_SERVER_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "dsd/solver.h"
#include "graph/types.h"
#include "util/status.h"

namespace dsd::server {

/// Frames larger than this are a protocol error (no legitimate request
/// comes close; a bad length prefix must not make the reader allocate GB).
inline constexpr size_t kMaxFramePayloadBytes = size_t{1} << 20;

// ---------------------------------------------------------------------------
// Framing over POSIX file descriptors.

/// Writes one frame (length prefix + payload), looping over partial
/// writes. IoError on a closed/failed descriptor.
Status WriteFrame(int fd, std::string_view payload);

/// Buffered frame reader over a descriptor (socket or pipe).
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Reads the next frame into `payload`. Returns 1 on a frame, 0 on clean
  /// EOF at a frame boundary, -1 on malformed framing or a read error
  /// (diagnostic in `error`).
  int Next(std::string* payload, std::string* error);

 private:
  /// Refills buf_ from fd_; returns false on EOF or error (eof_/error_
  /// distinguish).
  bool Fill(std::string* error);

  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Request payloads.

/// A parsed request payload.
struct WireRequest {
  enum class Verb { kSolve, kLoad, kStats, kList, kPing, kShutdown };

  Verb verb = Verb::kPing;
  /// Echoed verbatim in the response so pipelined clients can match.
  uint64_t id = 0;

  // solve
  std::string graph;
  SolveRequest solve;
  bool want_members = false;

  // load
  std::string load_name;
  std::string load_preset;
  std::string load_file;
  uint64_t load_seed = 0;
  bool has_load_seed = false;
};

/// Parses a request payload. InvalidArgument on an unknown verb, unknown
/// key, malformed value, or missing required field. Semantic validation of
/// solve parameters stays in dsd::Solve — the protocol only checks shape.
StatusOr<WireRequest> ParseWireRequest(const std::string& payload);

// ---------------------------------------------------------------------------
// Response payloads.

/// Order-independent identity of a member list is not needed — results are
/// sorted — so this is plain FNV-1a over the ids in order; equal lists
/// yield equal hashes and practically never otherwise.
uint64_t MembersHash(std::span<const VertexId> members);

/// "ok ..." response for a completed solve.
std::string FormatSolveOk(uint64_t id, const SolveResponse& response,
                          bool include_members);

/// "err id=N code=... msg=..." from a non-OK status.
std::string FormatError(uint64_t id, const Status& status);

/// A parsed response payload (client side: bench_server, tests).
struct WireResponse {
  bool ok = false;
  uint64_t id = 0;

  // err
  std::string code;  // a Status::CodeName() spelling
  std::string msg;

  /// Every key=value field, verbatim (ok and err alike).
  std::map<std::string, std::string> fields;

  // Typed accessors over `fields` for the solve-response keys; return
  // false when the key is absent or malformed.
  bool GetDouble(const std::string& key, double* out) const;
  bool GetUint(const std::string& key, uint64_t* out) const;
};

/// Parses a response payload. InvalidArgument when it starts with neither
/// "ok" nor "err" or a field is malformed.
StatusOr<WireResponse> ParseWireResponse(const std::string& payload);

}  // namespace dsd::server

#endif  // DSD_SERVER_PROTOCOL_H_
