// DsdServer: the long-lived densest-subgraph service.
//
// Composition of the server/ pieces: a GraphRegistry of resident graphs
// (load once, serve forever), a ServerExecutor that partitions the
// hardware budget across in-flight solves and sheds load at admission,
// and the length-prefixed protocol of protocol.h. The core — Handle() —
// is transport-independent: it maps one request payload to one response
// payload, asynchronously for solves (the respond callback fires on an
// executor worker). Two transports wrap it: ServeTcp (concurrent
// connections, pipelined out-of-order responses matched by id) and
// ServeStdin (synchronous request/response over a pipe, for tests and
// CI). Shutdown is graceful by construction: BeginShutdown flips the
// executor to draining — new solves are refused with ResourceExhausted,
// in-flight ones run to completion and their responses are written —
// and the TCP loop additionally stops accepting connections.
#ifndef DSD_SERVER_SERVER_H_
#define DSD_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/executor.h"
#include "server/graph_registry.h"
#include "util/status.h"

namespace dsd::server {

struct ServerOptions {
  /// Hardware worker budget partitioned across in-flight solves
  /// (0 = hardware concurrency).
  unsigned hardware_threads = 0;
  /// Executor pool size (0 = auto; see ServerExecutor::Options).
  unsigned workers = 0;
  /// Admission queue bound.
  size_t max_queue = 64;
};

/// Per-(graph, algorithm, motif) EWMA of observed solve wall times; the
/// admission controller's cost estimate. Unknown keys estimate 0, which
/// disables the deadline-based shed for the first request of a kind —
/// admission control learns from traffic rather than guessing.
class CostModel {
 public:
  double Estimate(const std::string& key) const;
  void Observe(const std::string& key, double seconds);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> ewma_;
};

class DsdServer {
 public:
  explicit DsdServer(ServerOptions options = {});
  ~DsdServer();

  /// Makes `graph` resident under `name` (pre-loading at startup; the
  /// wire protocol's `load` verb lands here too).
  Status AddGraph(std::string name, Graph graph);

  GraphRegistry& registry() { return registry_; }

  /// Handles one request payload; `respond` is invoked exactly once with
  /// the response payload — inline for control verbs, from an executor
  /// worker for admitted solves. Thread-safe.
  void Handle(std::string payload,
              std::function<void(std::string)> respond);

  /// Refuse new solves / connections; already-admitted work still runs.
  void BeginShutdown();
  bool ShuttingDown() const;

  /// Blocks until every admitted solve has completed.
  void Drain();

  // -- TCP transport ------------------------------------------------------
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and returns the bound port.
  StatusOr<uint16_t> ListenTcp(uint16_t port);

  /// Accept loop; returns once shutdown was requested (a `shutdown`
  /// frame, BeginShutdown from another thread, or StopTcp — e.g. from a
  /// signal handler) AND all connections/solves finished draining.
  void ServeTcp();

  /// Unblocks ServeTcp. Async-signal-safe (only shutdown(2) on the
  /// listening socket).
  void StopTcp();

  // -- Pipe transport -----------------------------------------------------
  /// Synchronous frame loop over (in_fd, out_fd) — the --stdin mode.
  /// Returns on EOF or a `shutdown` frame, after draining. Non-OK only
  /// on a framing/IO error.
  Status ServePipe(int in_fd, int out_fd);

  struct Stats {
    uint64_t received = 0;    ///< request frames parsed OK
    uint64_t completed = 0;   ///< solves answered "ok"
    uint64_t failed = 0;      ///< solves answered "err" after running
    uint64_t shed = 0;        ///< solves refused at admission
    uint64_t coalesced = 0;   ///< solves answered by riding a queued twin
    /// CSR footprint plus decomposition-index bytes over resident graphs
    uint64_t resident_bytes = 0;
    DecompositionIndex::Stats index;  ///< summed over resident graphs
  };
  Stats stats() const;

 private:
  void HandleSolve(const struct WireRequest& request,
                   std::function<void(std::string)> respond);
  std::string HandleLoad(const struct WireRequest& request);
  std::string FormatStats(uint64_t id) const;

  ServerOptions options_;
  GraphRegistry registry_;
  ServerExecutor executor_;
  CostModel cost_model_;

  // Batch admission: while a solve is still QUEUED, later requests with an
  // identical (graph, algorithm, motif, params) key attach to it as extra
  // waiters instead of occupying queue slots; the one execution fans its
  // response out to every waiter (each under its own request id /
  // members flag). The entry is removed the moment the job starts running
  // — coalescing with an in-flight solve would return a result computed
  // before the latecomer arrived.
  struct PendingSolve;
  std::mutex coalesce_mutex_;
  std::map<std::string, std::shared_ptr<PendingSolve>> pending_solves_;

  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> coalesced_{0};

  std::atomic<bool> shutting_down_{false};

  // Set once by ListenTcp, thereafter only read (StopTcp may be called
  // from any thread or a signal handler); closed by the destructor alone,
  // so no shutdown(2) can race a close and hit a reused descriptor.
  std::atomic<int> listen_fd_{-1};
  std::mutex connections_mutex_;
  std::vector<int> connection_fds_;
  std::vector<std::thread> connection_threads_;
};

/// The generator presets the `load` verb accepts (name -> fixed-seed
/// graph); shared by tools/dsd_server's --preload flag. NotFound for
/// unknown preset names.
StatusOr<Graph> BuildPresetGraph(const std::string& preset, uint64_t seed,
                                 bool has_seed);

}  // namespace dsd::server

#endif  // DSD_SERVER_SERVER_H_
