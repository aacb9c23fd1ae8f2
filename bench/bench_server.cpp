// Trace-replay bench for dsd_server: an in-process server on a TCP
// loopback socket, hammered by concurrent replay clients firing a
// fixed-seed mixed trace (query / at-least / peel across edge, triangle,
// and 2-star motifs) against the 10^5-vertex ServerReplayGraph preset.
//
// Two phases per run:
//   1. Latency phase, at each concurrency level (1 and 4 clients): every
//      client replays its slice of the trace synchronously; per-request
//      latency is measured client-side, and EVERY ok response is
//      parity-checked BIT-IDENTICAL against a direct dsd::Solve on the
//      same graph (density round-tripped at %.17g, instance count,
//      subgraph size, FNV-1a members hash). A divergence means the
//      serving path corrupted an answer — the bench fails with exit 1.
//   2. Overload phase: the trace is replayed with tight deadline budgets
//      into a small admission queue, so the shed machinery (cost-model
//      estimates x queue depth vs budget) actually engages and the shed
//      rate is a measured number, not a structural zero.
//
// Output: BENCH_server.json — per-level p50/p99 latency, throughput, and
// shed rate, plus the end-of-run decomposition-index hit rate.
//
// Usage: bench_server [output.json]   (stdout when no path is given)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dsd/solver.h"
#include "graph/generators.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/random.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

using server::DsdServer;
using server::FrameReader;
using server::MembersHash;
using server::ParseWireRequest;
using server::ParseWireResponse;
using server::ServerOptions;
using server::WireRequest;
using server::WireResponse;
using server::WriteFrame;

/// The request mix. Every spec is a complete solve parameter string; the
/// trace is a fixed-seed shuffle over these, so two hosts (or two commits)
/// replay the identical request sequence.
const std::vector<std::string>& SpecPool() {
  static const std::vector<std::string> specs = {
      "algo=peel motif=edge",
      "algo=peel motif=triangle",
      "algo=peel motif=2-star",
      "algo=at-least motif=edge min_size=32",
      "algo=at-least motif=triangle min_size=16",
      "algo=query motif=edge seeds=11,427,9001",
      "algo=query motif=triangle seeds=11,427,9001",
  };
  return specs;
}

constexpr uint64_t kTraceSeed = 0xBEEFCAFE;
constexpr int kTraceLength = 42;

std::vector<int> BuildTrace() {
  Rng rng(kTraceSeed);
  std::vector<int> trace;
  trace.reserve(kTraceLength);
  for (int i = 0; i < kTraceLength; ++i) {
    trace.push_back(static_cast<int>(rng.NextBounded(SpecPool().size())));
  }
  return trace;
}

/// The response fields that must be bit-identical to a direct Solve.
struct Expected {
  double density = 0.0;
  uint64_t instances = 0;
  uint64_t vertices = 0;
  uint64_t members_hash = 0;
};

int TcpConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const size_t index = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_ms.size() - 1)));
  return sorted_ms[index];
}

struct LevelResult {
  int concurrency = 0;
  bool overload = false;
  size_t requests = 0;
  size_t completed = 0;
  size_t shed = 0;
  size_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  double shed_rate = 0.0;
};

/// Replays the trace at `concurrency` clients against the server on
/// `port`. Returns false on a parity violation or transport failure.
bool ReplayLevel(uint16_t port, int concurrency, bool overload,
                 const std::vector<int>& trace,
                 const std::vector<Expected>& expected,
                 LevelResult* result) {
  std::mutex mutex;
  std::vector<double> latencies_ms;
  size_t completed = 0, shed = 0, failed = 0;
  bool parity_ok = true;

  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(concurrency));
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c]() {
      const int fd = TcpConnect(port);
      if (fd < 0) {
        std::lock_guard<std::mutex> lock(mutex);
        parity_ok = false;
        return;
      }
      FrameReader reader(fd);
      // Client c replays trace positions c, c+concurrency, ... —
      // together the clients cover the whole trace exactly once.
      for (size_t i = static_cast<size_t>(c); i < trace.size();
           i += static_cast<size_t>(concurrency)) {
        std::string request = "solve graph=replay " + SpecPool()[trace[i]] +
                              " id=" + std::to_string(i);
        if (overload) request += " budget=0.4";
        Timer latency;
        std::string payload, error;
        if (!WriteFrame(fd, request).ok() ||
            reader.Next(&payload, &error) != 1) {
          std::lock_guard<std::mutex> lock(mutex);
          parity_ok = false;
          break;
        }
        const double ms = latency.Seconds() * 1e3;
        StatusOr<WireResponse> parsed = ParseWireResponse(payload);
        std::lock_guard<std::mutex> lock(mutex);
        if (!parsed.ok()) {
          parity_ok = false;
          break;
        }
        if (!parsed.value().ok) {
          if (parsed.value().code == "ResourceExhausted") {
            ++shed;
          } else if (overload &&
                     parsed.value().code == "DeadlineExceeded") {
            // Ran and lost the race against its own tight budget; a
            // legitimate overload outcome, counted separately from sheds.
            ++failed;
          } else {
            std::fprintf(stderr, "FAIL: unexpected error response: %s\n",
                         payload.c_str());
            parity_ok = false;
            break;
          }
          latencies_ms.push_back(ms);
          continue;
        }
        const Expected& want = expected[static_cast<size_t>(trace[i])];
        double density = 0.0;
        uint64_t instances = 0, vertices = 0, hash = 0;
        if (!parsed.value().GetDouble("density", &density) ||
            !parsed.value().GetUint("instances", &instances) ||
            !parsed.value().GetUint("vertices", &vertices) ||
            !parsed.value().GetUint("members_hash", &hash) ||
            density != want.density || instances != want.instances ||
            vertices != want.vertices || hash != want.members_hash) {
          std::fprintf(stderr,
                       "FAIL: parity violation at trace[%zu] (%s):\n"
                       "  served:   %s\n"
                       "  expected: density=%.17g instances=%llu "
                       "vertices=%llu members_hash=%llx\n",
                       i, SpecPool()[trace[i]].c_str(), payload.c_str(),
                       want.density,
                       static_cast<unsigned long long>(want.instances),
                       static_cast<unsigned long long>(want.vertices),
                       static_cast<unsigned long long>(want.members_hash));
          parity_ok = false;
          break;
        }
        ++completed;
        latencies_ms.push_back(ms);
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  result->wall_seconds = wall.Seconds();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  result->concurrency = concurrency;
  result->overload = overload;
  result->requests = trace.size();
  result->completed = completed;
  result->shed = shed;
  result->failed = failed;
  result->p50_ms = Percentile(latencies_ms, 0.50);
  result->p99_ms = Percentile(latencies_ms, 0.99);
  result->throughput_rps =
      result->wall_seconds > 0.0
          ? static_cast<double>(completed) / result->wall_seconds
          : 0.0;
  result->shed_rate =
      static_cast<double>(shed) / static_cast<double>(trace.size());
  return parity_ok;
}

int Run(std::FILE* out) {
  std::fprintf(stderr, "building %u-vertex server-replay graph...\n",
               static_cast<unsigned>(gen::kServerReplayVertices));
  Timer load_timer;
  const Graph graph = gen::ServerReplayGraph();
  const double load_ms = load_timer.Seconds() * 1e3;
  std::fprintf(stderr, "graph: n=%u m=%zu\n",
               static_cast<unsigned>(graph.NumVertices()),
               static_cast<size_t>(graph.NumEdges()));

  // Ground truth: one direct library solve per spec (the server must
  // reproduce these bit-identically no matter the concurrency).
  std::vector<Expected> expected;
  for (const std::string& spec : SpecPool()) {
    dsd::StatusOr<WireRequest> request =
        ParseWireRequest("solve graph=replay " + spec);
    if (!request.ok()) {
      std::fprintf(stderr, "FAIL: bad spec '%s': %s\n", spec.c_str(),
                   request.status().ToString().c_str());
      return 1;
    }
    dsd::StatusOr<SolveResponse> response =
        Solve(graph, request.value().solve);
    if (!response.ok()) {
      std::fprintf(stderr, "FAIL: direct solve '%s': %s\n", spec.c_str(),
                   response.status().ToString().c_str());
      return 1;
    }
    Expected want;
    want.density = response.value().result.density;
    want.instances = response.value().result.instances;
    want.vertices = response.value().result.vertices.size();
    want.members_hash = MembersHash(response.value().result.vertices);
    expected.push_back(want);
    std::fprintf(stderr, "  truth %-40s density=%.6f wall=%.3fs\n",
                 spec.c_str(), want.density,
                 response.value().stats.wall_seconds);
  }

  const std::vector<int> trace = BuildTrace();

  // Latency phases: a generous queue so nothing sheds and every response
  // parity-checks; then the overload phase against a tiny queue with
  // per-request deadline budgets, where shedding is the point.
  struct Phase {
    int concurrency;
    bool overload;
    size_t max_queue;
  };
  const std::vector<Phase> phases = {
      {1, false, 64}, {4, false, 64}, {4, true, 2}};

  std::vector<LevelResult> results;
  uint64_t index_hits = 0, index_lookups = 0;
  for (const Phase& phase : phases) {
    ServerOptions options;
    options.max_queue = phase.max_queue;
    DsdServer server(options);
    if (!server.AddGraph("replay", Graph(graph)).ok()) return 1;
    dsd::StatusOr<uint16_t> port = server.ListenTcp(0);
    if (!port.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", port.status().ToString().c_str());
      return 1;
    }
    std::thread serving([&]() { server.ServeTcp(); });

    LevelResult result;
    const bool ok = ReplayLevel(port.value(), phase.concurrency,
                                phase.overload, trace, expected, &result);
    server.BeginShutdown();
    server.StopTcp();
    serving.join();
    if (!ok) return 1;
    if (!phase.overload) {
      // Decomposition-index effectiveness of the steady-state phases:
      // each phase's server is fresh, so hits here are purely cross-request
      // reuse.
      const DsdServer::Stats stats = server.stats();
      index_hits += stats.index.hits;
      index_lookups += stats.index.hits + stats.index.misses;
    }
    results.push_back(result);
    std::fprintf(stderr,
                 "concurrency=%d overload=%d: %zu ok, %zu shed, %zu "
                 "deadline, p50=%.1fms p99=%.1fms, %.2f req/s\n",
                 result.concurrency, result.overload ? 1 : 0,
                 result.completed, result.shed, result.failed,
                 result.p50_ms, result.p99_ms, result.throughput_rps);
  }

  const double index_hit_rate =
      index_lookups > 0
          ? static_cast<double>(index_hits) /
                static_cast<double>(index_lookups)
          : 0.0;

  std::fprintf(out,
               "{\n  \"benchmark\": \"server\",\n"
               "  \"graph\": {\"preset\": \"server-replay\", "
               "\"vertices\": %u, \"edges\": %zu},\n"
               "  \"trace\": {\"seed\": %llu, \"length\": %d, "
               "\"specs\": %zu},\n"
               "  \"parity\": \"bit-identical vs direct dsd::Solve\",\n"
               "  \"index_hit_rate\": %.4f,\n"
               "  \"results\": [\n",
               static_cast<unsigned>(graph.NumVertices()),
               static_cast<size_t>(graph.NumEdges()),
               static_cast<unsigned long long>(kTraceSeed), kTraceLength,
               SpecPool().size(), index_hit_rate);
  for (size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    std::fprintf(out,
                 "    {\"dataset\": \"server-replay\", \"vertices\": %u, "
                 "\"edges\": %zu, \"load_ms\": %.3f, "
                 "\"concurrency\": %d, \"overload\": %s, "
                 "\"requests\": %zu, \"completed\": %zu, \"shed\": %zu, "
                 "\"deadline_exceeded\": %zu, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"throughput_rps\": %.3f, "
                 "\"shed_rate\": %.4f, \"wall_seconds\": %.3f}%s\n",
                 static_cast<unsigned>(graph.NumVertices()),
                 static_cast<size_t>(graph.NumEdges()), load_ms,
                 r.concurrency, r.overload ? "true" : "false", r.requests,
                 r.completed, r.shed, r.failed, r.p50_ms, r.p99_ms,
                 r.throughput_rps, r.shed_rate, r.wall_seconds,
                 i + 1 < results.size() ? "," : "");
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
