#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <utility>

#include "dsd/solver.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "parallel/parallel_for.h"
#include "server/protocol.h"
#include "storage/graph_store.h"

namespace dsd::server {

namespace {

/// Tracks responses still owed to one transport endpoint so it can
/// outlive its read side: Handle() promises exactly one respond() per
/// request, but for admitted solves that call fires on an executor
/// worker, possibly after the reader saw EOF. The transport waits on
/// pending == 0 before closing the write side.
struct Endpoint {
  int fd;
  std::mutex write_mutex;
  std::mutex pending_mutex;
  std::condition_variable drained;
  size_t pending = 0;

  explicit Endpoint(int fd_in) : fd(fd_in) {}

  std::function<void(std::string)> Responder() {
    return [this](std::string payload) {
      {
        std::lock_guard<std::mutex> lock(write_mutex);
        // A closed peer is not an error worth tearing the server down
        // for; the remaining responses are simply undeliverable.
        WriteFrame(fd, payload).ok();
      }
      std::lock_guard<std::mutex> lock(pending_mutex);
      --pending;
      if (pending == 0) drained.notify_all();
    };
  }

  void Expect() {
    std::lock_guard<std::mutex> lock(pending_mutex);
    ++pending;
  }

  void AwaitDrained() {
    std::unique_lock<std::mutex> lock(pending_mutex);
    drained.wait(lock, [this]() { return pending == 0; });
  }
};

std::string JoinComma(const std::vector<std::string>& items) {
  std::string joined;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) joined += ',';
    joined += items[i];
  }
  return joined;
}

/// Coalescing identity of a solve: every request field that can change the
/// response payload except the request id and the members flag, which stay
/// per-waiter. Fields are joined with a separator no field value contains,
/// and doubles are rendered with round-trip precision so distinct budgets
/// or eps values never collide.
std::string CoalesceKeyFor(const WireRequest& request) {
  char numeric[96];
  std::snprintf(numeric, sizeof(numeric), "\x1f%.17g\x1f%llu\x1f%u\x1f%.17g",
                request.solve.eps,
                static_cast<unsigned long long>(request.solve.min_size),
                request.solve.threads, request.solve.time_budget_seconds);
  std::string key = request.graph;
  key += '\x1f';
  key += request.solve.algorithm;
  key += '\x1f';
  key += request.solve.motif;
  key += numeric;
  for (VertexId seed : request.solve.seeds) {
    key += '\x1f';
    key += std::to_string(seed);
  }
  return key;
}

}  // namespace

/// The waiters owed a response from one coalesced solve execution.
struct DsdServer::PendingSolve {
  struct Waiter {
    uint64_t id;
    bool want_members;
    std::function<void(std::string)> respond;
  };
  std::vector<Waiter> waiters;
};

// ---------------------------------------------------------------------------
// CostModel

double CostModel::Estimate(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ewma_.find(key);
  return it == ewma_.end() ? 0.0 : it->second;
}

void CostModel::Observe(const std::string& key, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = ewma_.emplace(key, seconds);
  if (!inserted) {
    // Smooth enough to ride out one outlier, fresh enough that a few
    // observations after a phase change converge the estimate.
    it->second = 0.7 * it->second + 0.3 * seconds;
  }
}

// ---------------------------------------------------------------------------
// DsdServer core

DsdServer::DsdServer(ServerOptions options)
    : options_(options),
      registry_(ResolveThreadCount(options.hardware_threads)),
      executor_({.hardware_threads = options.hardware_threads,
                 .workers = options.workers,
                 .max_queue = options.max_queue}) {}

DsdServer::~DsdServer() {
  BeginShutdown();
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) ::close(listen_fd);
  // executor_'s destructor drains; every respond callback a job holds
  // points at transport state that the transports (ServeTcp/ServePipe)
  // already waited out before returning.
}

Status DsdServer::AddGraph(std::string name, Graph graph) {
  return registry_.Add(std::move(name), std::move(graph));
}

void DsdServer::BeginShutdown() {
  shutting_down_.store(true, std::memory_order_release);
  executor_.BeginDrain();
}

bool DsdServer::ShuttingDown() const {
  return shutting_down_.load(std::memory_order_acquire);
}

void DsdServer::Drain() { executor_.Drain(); }

void DsdServer::Handle(std::string payload,
                       std::function<void(std::string)> respond) {
  StatusOr<WireRequest> parsed = ParseWireRequest(payload);
  if (!parsed.ok()) {
    // The id is unknown when the payload would not even parse; 0 is the
    // protocol's "no id" value.
    respond(FormatError(0, parsed.status()));
    return;
  }
  const WireRequest& request = parsed.value();
  received_.fetch_add(1, std::memory_order_relaxed);

  switch (request.verb) {
    case WireRequest::Verb::kPing:
      respond("ok id=" + std::to_string(request.id));
      return;
    case WireRequest::Verb::kList:
      respond("ok id=" + std::to_string(request.id) +
              " graphs=" + JoinComma(registry_.Names()) +
              " algos=" + JoinComma(SolverRegistry::Global().Names()));
      return;
    case WireRequest::Verb::kStats:
      respond(FormatStats(request.id));
      return;
    case WireRequest::Verb::kShutdown:
      BeginShutdown();
      respond("ok id=" + std::to_string(request.id));
      return;
    case WireRequest::Verb::kLoad:
      respond(HandleLoad(request));
      return;
    case WireRequest::Verb::kSolve:
      HandleSolve(request, std::move(respond));
      return;
  }
}

void DsdServer::HandleSolve(const WireRequest& request,
                            std::function<void(std::string)> respond) {
  std::shared_ptr<ResidentGraph> resident = registry_.Find(request.graph);
  if (resident == nullptr) {
    respond(FormatError(request.id,
                        Status::NotFound("no resident graph named '" +
                                         request.graph + "'")));
    return;
  }

  const std::string cost_key = request.graph + "/" +
                               request.solve.algorithm + "/" +
                               request.solve.motif;
  const SolveRequest solve_template = request.solve;

  // Batch admission: if an identical solve is still queued, attach to it
  // as an extra waiter — one execution will answer everybody — instead of
  // burning a queue slot and a redundant solve.
  const std::string coalesce_key = CoalesceKeyFor(request);
  auto pending = std::make_shared<PendingSolve>();
  {
    std::lock_guard<std::mutex> lock(coalesce_mutex_);
    // No attaching once draining: the shutdown contract is that solves
    // arriving after the shutdown verb are refused, even when a queued
    // twin could have answered them for free.
    auto it = ShuttingDown() ? pending_solves_.end()
                             : pending_solves_.find(coalesce_key);
    if (it != pending_solves_.end()) {
      it->second->waiters.push_back(
          {request.id, request.want_members, std::move(respond)});
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    pending->waiters.push_back(
        {request.id, request.want_members, std::move(respond)});
    // emplace may find the key already mapped (only reachable in the
    // draining race above); the job then detaches by pointer identity and
    // this request simply rides its own single-waiter pending.
    pending_solves_.emplace(coalesce_key, pending);
  }

  // Closes the coalescing window and takes ownership of every response
  // owed so far. Runs as the job's first action (or on the shed path), so
  // requests arriving later start a fresh solve rather than receiving a
  // result computed before they were admitted.
  auto detach = [this, coalesce_key, pending]() {
    std::lock_guard<std::mutex> lock(coalesce_mutex_);
    auto it = pending_solves_.find(coalesce_key);
    if (it != pending_solves_.end() && it->second == pending) {
      pending_solves_.erase(it);
    }
    return std::move(pending->waiters);
  };

  ServerExecutor::Job job = [this, resident = std::move(resident), cost_key,
                             solve_template, detach](unsigned thread_budget) {
    const std::vector<PendingSolve::Waiter> waiters = detach();
    if (waiters.empty()) return;  // defensive: shed path already answered
    StatusOr<std::shared_ptr<const MotifOracle>> oracle =
        resident->OracleFor(solve_template.motif);
    if (!oracle.ok()) {
      failed_.fetch_add(waiters.size(), std::memory_order_relaxed);
      for (const PendingSolve::Waiter& waiter : waiters) {
        waiter.respond(FormatError(waiter.id, oracle.status()));
      }
      return;
    }
    // The partition grant caps the request's own budget; an explicit
    // threads= below the grant is honored (a client may want a
    // deterministic sequential run), 0 = "auto" takes the whole grant.
    SolveRequest solve = solve_template;
    solve.threads = solve.threads == 0
                        ? thread_budget
                        : std::min(solve.threads, thread_budget);
    StatusOr<SolveResponse> response = dsd::Solve(
        resident->graph(), *oracle.value(), solve, &resident->decompositions());
    if (!response.ok()) {
      failed_.fetch_add(waiters.size(), std::memory_order_relaxed);
      for (const PendingSolve::Waiter& waiter : waiters) {
        waiter.respond(FormatError(waiter.id, response.status()));
      }
      return;
    }
    cost_model_.Observe(cost_key, response.value().stats.wall_seconds);
    completed_.fetch_add(waiters.size(), std::memory_order_relaxed);
    for (const PendingSolve::Waiter& waiter : waiters) {
      waiter.respond(
          FormatSolveOk(waiter.id, response.value(), waiter.want_members));
    }
  };

  const Status admitted =
      executor_.Submit(std::move(job), cost_model_.Estimate(cost_key),
                       solve_template.time_budget_seconds);
  if (!admitted.ok()) {
    const std::vector<PendingSolve::Waiter> waiters = detach();
    shed_.fetch_add(waiters.size(), std::memory_order_relaxed);
    for (const PendingSolve::Waiter& waiter : waiters) {
      waiter.respond(FormatError(waiter.id, admitted));
    }
  }
}

std::string DsdServer::HandleLoad(const WireRequest& request) {
  // Files go through the storage layer: .dsdg containers are sniffed by
  // magic and mmap'ed zero-copy; anything else streams through the
  // edge-list ingester, whose errors carry the offending line number.
  // A resident graph is trusted for its whole lifetime (its decomposition
  // index serves whatever the first solve computed), so .dsdg payloads are
  // verified once here: corruption is a typed InvalidArgument, never an
  // out-of-bounds read later.
  StatusOr<Graph> graph =
      !request.load_preset.empty()
          ? BuildPresetGraph(request.load_preset, request.load_seed,
                             request.has_load_seed)
          : storage::LoadGraphFile(request.load_file, {.verify = true});
  if (!graph.ok()) return FormatError(request.id, graph.status());
  const VertexId vertices = graph.value().NumVertices();
  const EdgeId edges = graph.value().NumEdges();
  const size_t bytes = graph.value().MemoryFootprintBytes();
  const Status added =
      registry_.Add(request.load_name, std::move(graph).value());
  if (!added.ok()) return FormatError(request.id, added);
  return "ok id=" + std::to_string(request.id) +
         " name=" + request.load_name +
         " vertices=" + std::to_string(vertices) +
         " edges=" + std::to_string(edges) +
         " bytes=" + std::to_string(bytes);
}

DsdServer::Stats DsdServer::stats() const {
  Stats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  for (const std::string& name : registry_.Names()) {
    std::shared_ptr<ResidentGraph> resident = registry_.Find(name);
    if (resident == nullptr) continue;
    const DecompositionIndex::Stats index = resident->decompositions().stats();
    stats.index.hits += index.hits;
    stats.index.misses += index.misses;
    stats.index.bytes += index.bytes;
    stats.resident_bytes +=
        resident->graph().MemoryFootprintBytes() + index.bytes;
  }
  return stats;
}

std::string DsdServer::FormatStats(uint64_t id) const {
  const Stats stats = this->stats();
  return "ok id=" + std::to_string(id) +
         " received=" + std::to_string(stats.received) +
         " completed=" + std::to_string(stats.completed) +
         " failed=" + std::to_string(stats.failed) +
         " shed=" + std::to_string(stats.shed) +
         " coalesced=" + std::to_string(stats.coalesced) +
         " queue=" + std::to_string(executor_.QueueDepth()) +
         " running=" + std::to_string(executor_.Running()) +
         " resident_bytes=" + std::to_string(stats.resident_bytes) +
         " index_hits=" + std::to_string(stats.index.hits) +
         " index_misses=" + std::to_string(stats.index.misses) +
         " index_bytes=" + std::to_string(stats.index.bytes);
}

// ---------------------------------------------------------------------------
// TCP transport

StatusOr<uint16_t> DsdServer::ListenTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind 127.0.0.1:" + std::to_string(port) + ": " +
                           error);
  }
  if (::listen(fd, 64) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname: " + error);
  }
  listen_fd_.store(fd);
  return static_cast<uint16_t>(ntohs(bound.sin_port));
}

void DsdServer::ServeTcp() {
  for (;;) {
    const int conn_fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR) continue;
      // StopTcp's shutdown(2) (or a closed listener) lands here.
      break;
    }
    if (ShuttingDown()) {
      ::close(conn_fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_fds_.push_back(conn_fd);
    connection_threads_.emplace_back([this, conn_fd]() {
      Endpoint endpoint(conn_fd);
      FrameReader reader(conn_fd);
      std::string payload;
      std::string error;
      // Reading stops on EOF, a framing error, or the shutdown verb;
      // in-flight solves of this connection finish and their responses
      // are written before the fd is abandoned.
      while (reader.Next(&payload, &error) == 1) {
        endpoint.Expect();
        Handle(std::move(payload), endpoint.Responder());
        payload.clear();
        if (ShuttingDown()) {
          StopTcp();  // unblock the accept loop
          break;
        }
      }
      endpoint.AwaitDrained();
      // Signal we are done writing; the fd itself is closed by ServeTcp
      // after the join, so the descriptor number cannot be reused while
      // a racing shutdown(2) on it is still possible.
      ::shutdown(conn_fd, SHUT_RDWR);
    });
  }

  BeginShutdown();
  {
    // Wake readers that are idle in a blocking read: their clients may
    // never send another byte, and drain must not wait on them.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RD);
  }
  for (;;) {
    std::thread worker;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      if (connection_threads_.empty()) break;
      worker = std::move(connection_threads_.back());
      connection_threads_.pop_back();
    }
    if (worker.joinable()) worker.join();
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : connection_fds_) ::close(fd);
    connection_fds_.clear();
  }
  Drain();
  // The listening fd stays open (shut down, accepting nothing) until the
  // destructor: closing here could race a late StopTcp from another
  // thread or signal handler into a recycled descriptor.
}

void DsdServer::StopTcp() {
  // Only shutdown(2) — async-signal-safe, so a SIGTERM/SIGINT handler may
  // call this directly; ServeTcp then runs the orderly drain on its own
  // thread.
  const int listen_fd = listen_fd_.load();
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
}

// ---------------------------------------------------------------------------
// Pipe transport

Status DsdServer::ServePipe(int in_fd, int out_fd) {
  Endpoint endpoint(out_fd);
  FrameReader reader(in_fd);
  std::string payload;
  std::string error;
  int state;
  while ((state = reader.Next(&payload, &error)) == 1) {
    endpoint.Expect();
    Handle(std::move(payload), endpoint.Responder());
    payload.clear();
    if (ShuttingDown()) break;
  }
  endpoint.AwaitDrained();
  if (state < 0) return Status::IoError("pipe transport: " + error);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Presets

StatusOr<Graph> BuildPresetGraph(const std::string& preset, uint64_t seed,
                                 bool has_seed) {
  if (preset == "server-replay") {
    return has_seed ? gen::ServerReplayGraph(seed) : gen::ServerReplayGraph();
  }
  if (preset == "planted-clique") {
    // Small and fast: the smoke-test preset. The densest triangle
    // subgraph is the planted 12-clique.
    return gen::PlantedClique(400, 0.02, 12, has_seed ? seed : 7);
  }
  if (preset == "ba-small") {
    return gen::BarabasiAlbert(2000, 3, has_seed ? seed : 11);
  }
  return Status::NotFound(
      "unknown preset '" + preset +
      "' (known: ba-small, planted-clique, server-replay)");
}

}  // namespace dsd::server
