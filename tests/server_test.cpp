// Tests for the dsd_server subsystem: wire protocol parsing/formatting and
// framing, ServerExecutor budget partitioning and admission control, and
// DsdServer end to end over both transports — including the concurrency
// semantics the server advertises: responses bit-identical to a direct
// dsd::Solve no matter how many clients are in flight, shed requests
// reported as ResourceExhausted (never garbage), and shutdown that drains
// admitted work before the process lets go.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dsd/solver.h"
#include "graph/generators.h"
#include "server/executor.h"
#include "server/graph_registry.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/graph_store.h"

namespace dsd::server {
namespace {

// ---------------------------------------------------------------------------
// Protocol: requests

TEST(WireRequestTest, ParsesSolveWithEveryField) {
  StatusOr<WireRequest> parsed = ParseWireRequest(
      "solve graph=web algo=at-least motif=triangle threads=4 budget=2.5 "
      "min_size=20 eps=0.25 seeds=3,1,7 members=1 id=42");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const WireRequest& request = parsed.value();
  EXPECT_EQ(request.verb, WireRequest::Verb::kSolve);
  EXPECT_EQ(request.id, 42u);
  EXPECT_EQ(request.graph, "web");
  EXPECT_EQ(request.solve.algorithm, "at-least");
  EXPECT_EQ(request.solve.motif, "triangle");
  EXPECT_EQ(request.solve.threads, 4u);
  EXPECT_DOUBLE_EQ(request.solve.time_budget_seconds, 2.5);
  EXPECT_EQ(request.solve.min_size, 20u);
  EXPECT_DOUBLE_EQ(request.solve.eps, 0.25);
  EXPECT_EQ(request.solve.seeds, (std::vector<VertexId>{3, 1, 7}));
  EXPECT_TRUE(request.want_members);
}

TEST(WireRequestTest, SolveDefaultsMatchSolveRequestDefaults) {
  StatusOr<WireRequest> parsed = ParseWireRequest("solve graph=g");
  ASSERT_TRUE(parsed.ok());
  const SolveRequest defaults;
  EXPECT_EQ(parsed.value().solve.algorithm, defaults.algorithm);
  EXPECT_EQ(parsed.value().solve.motif, defaults.motif);
  EXPECT_EQ(parsed.value().solve.threads, defaults.threads);
  EXPECT_FALSE(parsed.value().want_members);
  EXPECT_EQ(parsed.value().id, 0u);
}

TEST(WireRequestTest, ParsesLoadVariants) {
  StatusOr<WireRequest> preset =
      ParseWireRequest("load name=g preset=server-replay seed=9 id=1");
  ASSERT_TRUE(preset.ok());
  EXPECT_EQ(preset.value().verb, WireRequest::Verb::kLoad);
  EXPECT_EQ(preset.value().load_name, "g");
  EXPECT_EQ(preset.value().load_preset, "server-replay");
  EXPECT_TRUE(preset.value().has_load_seed);
  EXPECT_EQ(preset.value().load_seed, 9u);

  StatusOr<WireRequest> file =
      ParseWireRequest("load name=g file=/tmp/edges.txt");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value().load_file, "/tmp/edges.txt");
  EXPECT_FALSE(file.value().has_load_seed);
}

TEST(WireRequestTest, RejectsMalformedPayloads) {
  const char* bad[] = {
      "",                                  // empty
      "frobnicate id=1",                   // unknown verb
      "solve",                             // missing graph=
      "solve graph=g threads=abc",         // bad number
      "solve graph=g min_size=1 eps",      // not key=value
      "solve graph=g unknown_key=1",       // unknown key
      "ping graph=g",                      // key not valid for verb
      "load name=g",                       // neither preset nor file
      "load name=g preset=p file=f",       // both preset and file
      "load preset=p",                     // missing name
      "solve graph=g seeds=1,,2",          // malformed list
      "solve graph=g id=99999999999999999999",  // uint64 overflow
  };
  for (const char* payload : bad) {
    StatusOr<WireRequest> parsed = ParseWireRequest(payload);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << payload;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << payload;
  }
}

// ---------------------------------------------------------------------------
// Protocol: responses

TEST(WireResponseTest, SolveOkRoundTripsBitIdentical) {
  SolveResponse response;
  response.result.vertices = {2, 3, 5, 8, 13};
  response.result.instances = 77;
  // A density with no short decimal representation: %.17g must round-trip
  // the exact double through the wire format.
  response.result.density = 77.0 / 3.0;
  response.stats.threads = 4;
  response.stats.wall_seconds = 0.125;

  const std::string payload = FormatSolveOk(9, response, false);
  StatusOr<WireResponse> parsed = ParseWireResponse(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().ok);
  EXPECT_EQ(parsed.value().id, 9u);

  double density = 0.0;
  uint64_t instances = 0, vertices = 0, hash = 0;
  ASSERT_TRUE(parsed.value().GetDouble("density", &density));
  ASSERT_TRUE(parsed.value().GetUint("instances", &instances));
  ASSERT_TRUE(parsed.value().GetUint("vertices", &vertices));
  ASSERT_TRUE(parsed.value().GetUint("members_hash", &hash));
  EXPECT_EQ(density, response.result.density);  // exact, not approximate
  EXPECT_EQ(instances, 77u);
  EXPECT_EQ(vertices, 5u);
  EXPECT_EQ(hash, MembersHash(response.result.vertices));
}

TEST(WireResponseTest, MembersListIsOptedIn) {
  SolveResponse response;
  response.result.vertices = {4, 7};
  EXPECT_EQ(FormatSolveOk(1, response, false).find("members="),
            std::string::npos);
  const std::string with = FormatSolveOk(1, response, true);
  StatusOr<WireResponse> parsed = ParseWireResponse(with);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().fields.at("members"), "4,7");
}

TEST(WireResponseTest, ErrorCarriesCodeAndSpacedMessage) {
  const std::string payload = FormatError(
      7, Status::ResourceExhausted("queue full (64 waiting)"));
  StatusOr<WireResponse> parsed = ParseWireResponse(payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().id, 7u);
  EXPECT_EQ(parsed.value().code, "ResourceExhausted");
  EXPECT_EQ(parsed.value().msg, "queue full (64 waiting)");
}

TEST(WireResponseTest, MembersHashDistinguishesLists) {
  const std::vector<VertexId> a = {1, 2, 3};
  const std::vector<VertexId> b = {1, 2, 4};
  EXPECT_NE(MembersHash(a), MembersHash(b));
  EXPECT_EQ(MembersHash(a), MembersHash(std::vector<VertexId>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Protocol: framing

struct Pipe {
  int fds[2];
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    CloseRead();
    CloseWrite();
  }
  void CloseRead() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void CloseWrite() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(FramingTest, RoundTripsFramesAndReportsCleanEof) {
  Pipe pipe;
  ASSERT_TRUE(WriteFrame(pipe.fds[1], "ping id=1").ok());
  ASSERT_TRUE(WriteFrame(pipe.fds[1], "").ok());  // empty payload is legal
  ASSERT_TRUE(WriteFrame(pipe.fds[1], "solve graph=g").ok());
  pipe.CloseWrite();

  FrameReader reader(pipe.fds[0]);
  std::string payload, error;
  EXPECT_EQ(reader.Next(&payload, &error), 1);
  EXPECT_EQ(payload, "ping id=1");
  EXPECT_EQ(reader.Next(&payload, &error), 1);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(reader.Next(&payload, &error), 1);
  EXPECT_EQ(payload, "solve graph=g");
  EXPECT_EQ(reader.Next(&payload, &error), 0) << error;  // clean EOF
}

TEST(FramingTest, TruncatedFrameIsAnError) {
  Pipe pipe;
  const char truncated[] = "10\nonly4";
  ASSERT_EQ(::write(pipe.fds[1], truncated, sizeof(truncated) - 1),
            static_cast<ssize_t>(sizeof(truncated) - 1));
  pipe.CloseWrite();
  FrameReader reader(pipe.fds[0]);
  std::string payload, error;
  EXPECT_EQ(reader.Next(&payload, &error), -1);
  EXPECT_FALSE(error.empty());
}

TEST(FramingTest, AbsurdLengthPrefixIsRejectedWithoutAllocating) {
  Pipe pipe;
  const char bogus[] = "99999999999999\nx";
  ASSERT_EQ(::write(pipe.fds[1], bogus, sizeof(bogus) - 1),
            static_cast<ssize_t>(sizeof(bogus) - 1));
  pipe.CloseWrite();
  FrameReader reader(pipe.fds[0]);
  std::string payload, error;
  EXPECT_EQ(reader.Next(&payload, &error), -1);
  EXPECT_EQ(error, "bad length prefix");
}

// ---------------------------------------------------------------------------
// ServerExecutor

TEST(ServerExecutorTest, LoneJobGetsTheWholeBudgetAndOverlapSplitsIt) {
  ServerExecutor executor({.hardware_threads = 8, .workers = 2});
  ASSERT_EQ(executor.hardware_threads(), 8u);

  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  std::vector<unsigned> grants;

  // Two jobs that both hold their slot until the other has started: the
  // first to start sees running == 1 (grant 8), the second running == 2
  // (grant 4). Grants are appended after the executor's lock drops, so the
  // two appends may land in either order; only the multiset is defined.
  for (int j = 0; j < 2; ++j) {
    ASSERT_TRUE(executor
                    .Submit([&](unsigned budget) {
                      std::unique_lock<std::mutex> lock(mutex);
                      grants.push_back(budget);
                      ++started;
                      cv.notify_all();
                      cv.wait(lock,
                              [&]() { return started == 2 && release; });
                    })
                    .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&]() { return started == 2; });
    release = true;
    cv.notify_all();
  }
  executor.Drain();
  std::sort(grants.begin(), grants.end());
  // The overlapping job gets an even split, the lone job the whole machine.
  EXPECT_EQ(grants, (std::vector<unsigned>{4u, 8u}));

  // After the rush the next lone job re-expands to the full budget — but
  // this executor is drained; re-expansion is covered by the grant of 8
  // above (running was 0 before it).
}

TEST(ServerExecutorTest, BudgetNeverRoundsDownToZero) {
  ServerExecutor executor({.hardware_threads = 1, .workers = 3});
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  std::atomic<unsigned> min_grant{UINT32_MAX};
  for (int j = 0; j < 3; ++j) {
    ASSERT_TRUE(executor
                    .Submit([&](unsigned budget) {
                      unsigned seen = min_grant.load();
                      while (budget < seen &&
                             !min_grant.compare_exchange_weak(seen, budget)) {
                      }
                      std::unique_lock<std::mutex> lock(mutex);
                      ++started;
                      cv.notify_all();
                      cv.wait(lock,
                              [&]() { return started == 3 && release; });
                    })
                    .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&]() { return started == 3; });
    release = true;
    cv.notify_all();
  }
  executor.Drain();
  EXPECT_EQ(min_grant.load(), 1u);
}

TEST(ServerExecutorTest, FullQueueSheds) {
  ServerExecutor executor({.hardware_threads = 1, .workers = 1,
                           .max_queue = 1});
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  bool started = false;
  ASSERT_TRUE(executor
                  .Submit([&](unsigned) {
                    std::unique_lock<std::mutex> lock(mutex);
                    started = true;
                    cv.notify_all();
                    cv.wait(lock, [&]() { return release; });
                  })
                  .ok());
  {
    // Make sure the blocker occupies the worker, not the queue slot.
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&]() { return started; });
  }
  EXPECT_TRUE(executor.Submit([](unsigned) {}).ok());  // fills the queue
  const Status shed = executor.Submit([](unsigned) {});
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  }
  executor.Drain();
}

TEST(ServerExecutorTest, PredictedDeadlineMissShedsAtAdmission) {
  ServerExecutor executor({.hardware_threads = 1, .workers = 1});
  // (0 queued + 1) x 10s estimated > 1s budget: refuse without running.
  const Status shed = executor.Submit([](unsigned) { FAIL(); }, 10.0, 1.0);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  // Unknown cost (estimate 0) disables the check; so does no deadline.
  std::atomic<int> ran{0};
  EXPECT_TRUE(executor.Submit([&](unsigned) { ++ran; }, 0.0, 1.0).ok());
  EXPECT_TRUE(executor.Submit([&](unsigned) { ++ran; }, 10.0, 0.0).ok());
  executor.Drain();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ServerExecutorTest, DrainRefusesNewWorkButFinishesAdmitted) {
  ServerExecutor executor({.hardware_threads = 1, .workers = 1});
  std::atomic<int> ran{0};
  for (int j = 0; j < 4; ++j) {
    ASSERT_TRUE(executor.Submit([&](unsigned) { ++ran; }).ok());
  }
  executor.BeginDrain();
  const Status refused = executor.Submit([&](unsigned) { ++ran; });
  EXPECT_TRUE(refused.IsResourceExhausted());
  executor.Drain();
  EXPECT_EQ(ran.load(), 4);  // every admitted job ran, the refused one did not
}

// ---------------------------------------------------------------------------
// GraphRegistry

TEST(GraphRegistryTest, SharesOneOracleStackAcrossAliases) {
  GraphRegistry registry(1);
  ASSERT_TRUE(registry.Add("g", gen::PlantedClique(60, 0.05, 6, 5)).ok());
  std::shared_ptr<ResidentGraph> resident = registry.Find("g");
  ASSERT_NE(resident, nullptr);
  StatusOr<std::shared_ptr<const MotifOracle>> a =
      resident->OracleFor("triangle");
  StatusOr<std::shared_ptr<const MotifOracle>> b =
      resident->OracleFor("3-clique");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get())
      << "aliases must share one oracle";
  EXPECT_FALSE(resident->OracleFor("99-clique").ok());
}

TEST(GraphRegistryTest, RejectsDuplicateAndEmptyNames) {
  GraphRegistry registry(1);
  ASSERT_TRUE(registry.Add("g", gen::PlantedClique(30, 0.1, 4, 1)).ok());
  EXPECT_TRUE(registry.Add("g", gen::PlantedClique(30, 0.1, 4, 1))
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.Add("", gen::PlantedClique(30, 0.1, 4, 1))
                  .IsInvalidArgument());
  EXPECT_EQ(registry.Find("missing"), nullptr);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"g"});
}

// ---------------------------------------------------------------------------
// DsdServer core (transport-independent, via Handle)

/// Collects responses from Handle() and lets tests wait for them.
class ResponseSink {
 public:
  std::function<void(std::string)> Callback() {
    return [this](std::string payload) {
      std::lock_guard<std::mutex> lock(mutex_);
      responses_.push_back(std::move(payload));
      arrived_.notify_all();
    };
  }

  std::vector<std::string> Await(size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_.wait(lock, [&]() { return responses_.size() >= count; });
    return responses_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::vector<std::string> responses_;
};

ServerOptions SmallServerOptions() {
  ServerOptions options;
  options.hardware_threads = 2;
  options.workers = 2;
  options.max_queue = 64;
  return options;
}

TEST(DsdServerTest, ControlVerbsAnswerInline) {
  DsdServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddGraph("g", gen::PlantedClique(50, 0.1, 5, 2)).ok());
  ResponseSink sink;
  server.Handle("ping id=5", sink.Callback());
  server.Handle("list id=6", sink.Callback());
  server.Handle("stats id=7", sink.Callback());
  const std::vector<std::string> responses = sink.Await(3);
  EXPECT_EQ(responses[0], "ok id=5");
  StatusOr<WireResponse> list = ParseWireResponse(responses[1]);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().fields.at("graphs"), "g");
  StatusOr<WireResponse> stats = ParseWireResponse(responses[2]);
  ASSERT_TRUE(stats.ok());
  uint64_t received = 0;
  ASSERT_TRUE(stats.value().GetUint("received", &received));
  EXPECT_EQ(received, 3u);
}

TEST(DsdServerTest, ErrorsAreTypedNotGarbage) {
  DsdServer server(SmallServerOptions());
  ResponseSink sink;
  server.Handle("solve graph=missing id=1", sink.Callback());
  server.Handle("not a frame payload", sink.Callback());
  server.Handle("solve graph=missing algo=, id=3", sink.Callback());
  const std::vector<std::string> responses = sink.Await(3);
  std::map<uint64_t, std::string> codes;
  for (const std::string& payload : responses) {
    StatusOr<WireResponse> parsed = ParseWireResponse(payload);
    ASSERT_TRUE(parsed.ok()) << payload;
    EXPECT_FALSE(parsed.value().ok);
    codes[parsed.value().id] = parsed.value().code;
  }
  EXPECT_EQ(codes[1], "NotFound");
  EXPECT_EQ(codes[0], "InvalidArgument");  // unparseable payload, id unknown
}

TEST(DsdServerTest, LoadMakesAGraphResident) {
  DsdServer server(SmallServerOptions());
  ResponseSink sink;
  server.Handle("load name=p preset=planted-clique id=1", sink.Callback());
  server.Handle("load name=p preset=planted-clique id=2", sink.Callback());
  server.Handle("load name=q preset=nonesuch id=3", sink.Callback());
  const std::vector<std::string> responses = sink.Await(3);
  StatusOr<WireResponse> first = ParseWireResponse(responses[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().ok) << responses[0];
  uint64_t vertices = 0;
  ASSERT_TRUE(first.value().GetUint("vertices", &vertices));
  EXPECT_EQ(vertices, 400u);
  StatusOr<WireResponse> duplicate = ParseWireResponse(responses[1]);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate.value().code, "InvalidArgument");
  StatusOr<WireResponse> unknown = ParseWireResponse(responses[2]);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().code, "NotFound");
  ASSERT_NE(server.registry().Find("p"), nullptr);
}

TEST(DsdServerTest, LoadsDsdgContainersAndReportsResidentBytes) {
  const std::string path = testing::TempDir() + "/dsd_server_load.dsdg";
  const Graph graph = gen::PlantedClique(100, 0.05, 8, 3);
  ASSERT_TRUE(storage::WriteDsdgFile(graph, path).ok());

  DsdServer server(SmallServerOptions());
  ResponseSink sink;
  server.Handle("load name=g file=" + path + " id=1", sink.Callback());
  server.Handle("stats id=2", sink.Callback());
  const std::vector<std::string> responses = sink.Await(2);

  StatusOr<WireResponse> loaded = ParseWireResponse(responses[0]);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().ok) << responses[0];
  uint64_t vertices = 0;
  uint64_t bytes = 0;
  ASSERT_TRUE(loaded.value().GetUint("vertices", &vertices));
  ASSERT_TRUE(loaded.value().GetUint("bytes", &bytes));
  EXPECT_EQ(vertices, graph.NumVertices());
  EXPECT_EQ(bytes, graph.MemoryFootprintBytes());

  StatusOr<WireResponse> stats = ParseWireResponse(responses[1]);
  ASSERT_TRUE(stats.ok());
  uint64_t resident = 0;
  ASSERT_TRUE(stats.value().GetUint("resident_bytes", &resident));
  EXPECT_EQ(resident, graph.MemoryFootprintBytes());
}

TEST(DsdServerTest, MalformedEdgeListLoadReportsTheOffendingLine) {
  const std::string path = testing::TempDir() + "/dsd_server_bad_edges.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "0 1\nnot an edge\n";
  }
  DsdServer server(SmallServerOptions());
  ResponseSink sink;
  server.Handle("load name=bad file=" + path + " id=1", sink.Callback());
  const std::vector<std::string> responses = sink.Await(1);
  StatusOr<WireResponse> parsed = ParseWireResponse(responses[0]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().code, "InvalidArgument");
  EXPECT_NE(parsed.value().msg.find("line 2"), std::string::npos)
      << responses[0];
}

TEST(DsdServerTest, CorruptDsdgPayloadLoadIsInvalidArgument) {
  // A flipped neighbor id behind an intact header passes a plain open;
  // the server verifies the payload once at load, so the corruption is a
  // typed error instead of a graph every later solve would trust.
  const std::string path = testing::TempDir() + "/dsd_server_corrupt.dsdg";
  ASSERT_TRUE(
      storage::WriteDsdgFile(gen::PlantedClique(100, 0.05, 8, 3), path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(bytes.empty());
  bytes.back() ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_TRUE(storage::OpenDsdgFile(path).ok()) << "header must stay valid";

  DsdServer server(SmallServerOptions());
  ResponseSink sink;
  server.Handle("load name=g file=" + path + " id=1", sink.Callback());
  StatusOr<WireResponse> parsed = ParseWireResponse(sink.Await(1)[0]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().code, "InvalidArgument");
  EXPECT_EQ(server.registry().Find("g"), nullptr);
}

/// The parity fields of a solve response — everything except wall time,
/// which legitimately varies run to run.
struct ParityFields {
  std::string density;
  std::string instances;
  std::string vertices;
  std::string members_hash;

  bool operator==(const ParityFields&) const = default;
};

ParityFields ExtractParity(const std::string& payload) {
  StatusOr<WireResponse> parsed = ParseWireResponse(payload);
  EXPECT_TRUE(parsed.ok()) << payload;
  EXPECT_TRUE(parsed.value().ok) << payload;
  ParityFields fields;
  if (!parsed.ok() || !parsed.value().ok) return fields;
  fields.density = parsed.value().fields.at("density");
  fields.instances = parsed.value().fields.at("instances");
  fields.vertices = parsed.value().fields.at("vertices");
  fields.members_hash = parsed.value().fields.at("members_hash");
  return fields;
}

/// The mixed workload the concurrency tests replay: one entry per
/// (algorithm, motif) pair exercising distinct solver families.
std::vector<std::string> MixedWorkload() {
  return {
      "algo=peel motif=triangle",
      "algo=core-exact motif=edge",
      "algo=peel motif=2-star",
      "algo=at-least motif=edge min_size=8",
      "algo=query motif=edge seeds=1,2",
      "algo=core-app motif=triangle",
  };
}

TEST(DsdServerConcurrencyTest, ManyClientsMatchDirectSolveBitIdentical) {
  const Graph graph = gen::PlantedClique(150, 0.05, 9, 13);
  DsdServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddGraph("g", Graph(graph)).ok());

  // Ground truth: direct library calls, sequential, no server involved.
  std::vector<ParityFields> expected;
  for (const std::string& spec : MixedWorkload()) {
    StatusOr<WireRequest> request =
        ParseWireRequest("solve graph=g " + spec);
    ASSERT_TRUE(request.ok());
    StatusOr<SolveResponse> response = Solve(graph, request.value().solve);
    ASSERT_TRUE(response.ok()) << spec << ": "
                               << response.status().ToString();
    expected.push_back(
        ExtractParity(FormatSolveOk(0, response.value(), false)));
  }

  // 6 client threads, each firing the whole workload with its own ids;
  // responses may interleave arbitrarily, ids match them back.
  constexpr int kClients = 6;
  ResponseSink sink;
  const std::vector<std::string> workload = MixedWorkload();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (size_t w = 0; w < workload.size(); ++w) {
        const uint64_t id = static_cast<uint64_t>(c) * 100 + w;
        server.Handle("solve graph=g " + workload[w] +
                          " id=" + std::to_string(id),
                      sink.Callback());
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const std::vector<std::string> responses =
      sink.Await(kClients * workload.size());

  for (const std::string& payload : responses) {
    StatusOr<WireResponse> parsed = ParseWireResponse(payload);
    ASSERT_TRUE(parsed.ok()) << payload;
    ASSERT_TRUE(parsed.value().ok) << payload;
    const size_t w = parsed.value().id % 100;
    ASSERT_LT(w, expected.size());
    EXPECT_EQ(ExtractParity(payload), expected[w])
        << "request " << workload[w] << " diverged under concurrency";
  }
  EXPECT_EQ(server.stats().completed, kClients * workload.size());
}

/// Sends one request and waits for its response.
std::string Roundtrip(DsdServer& server, const std::string& payload) {
  ResponseSink sink;
  server.Handle(payload, sink.Callback());
  return sink.Await(1)[0];
}

uint64_t StatsField(DsdServer& server, const std::string& key) {
  StatusOr<WireResponse> stats =
      ParseWireResponse(Roundtrip(server, "stats id=0"));
  EXPECT_TRUE(stats.ok());
  uint64_t value = 0;
  EXPECT_TRUE(stats.ok() && stats.value().GetUint(key, &value)) << key;
  return value;
}

TEST(DecompositionIndexServerTest, StatsCountHitsMissesAndBytes) {
  // One decomposition per (graph, canonical motif): the first peel-family
  // solve of a motif misses and fills the entry, every later one — any
  // algorithm, any alias — hits. core-app and inc-app never consult it.
  const Graph graph = gen::PlantedClique(150, 0.05, 9, 13);
  DsdServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddGraph("g", Graph(graph)).ok());
  EXPECT_EQ(StatsField(server, "index_misses"), 0u);
  EXPECT_EQ(StatsField(server, "index_bytes"), 0u);

  const std::vector<std::string> specs = {
      "algo=peel motif=triangle",                // miss: fills "3-clique"
      "algo=at-least motif=triangle min_size=8",  // hit
      "algo=query motif=triangle seeds=1,2",     // hit
      "algo=core-exact motif=3-clique",          // hit through the alias
      "algo=peel motif=triangle",                // hit
      "algo=peel motif=edge",                    // miss: fills "2-clique"
      "algo=core-app motif=triangle",            // no lookup
      "algo=inc-app motif=triangle",             // no lookup: always peels
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    StatusOr<WireRequest> request = ParseWireRequest("solve graph=g " + spec);
    ASSERT_TRUE(request.ok());
    StatusOr<SolveResponse> direct = Solve(graph, request.value().solve);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(ExtractParity(Roundtrip(server, "solve graph=g " + spec)),
              ExtractParity(FormatSolveOk(0, direct.value(), false)));
  }

  EXPECT_EQ(StatsField(server, "index_hits"), 4u);
  EXPECT_EQ(StatsField(server, "index_misses"), 2u);
  // Two entries of ~36 bytes per vertex: core (8), whole-graph degree (8),
  // removal order (4), residual density (8) and residual instances (8).
  const uint64_t bytes = StatsField(server, "index_bytes");
  EXPECT_EQ(bytes, 2u * graph.NumVertices() *
                       (sizeof(uint64_t) + sizeof(uint64_t) + sizeof(VertexId) +
                        sizeof(double) + sizeof(uint64_t)));
  EXPECT_EQ(StatsField(server, "resident_bytes"),
            graph.MemoryFootprintBytes() + bytes);
  const DsdServer::Stats stats = server.stats();
  EXPECT_EQ(stats.index.hits, 4u);
  EXPECT_EQ(stats.index.misses, 2u);
}

TEST(DecompositionIndexServerTest, DeadlineTruncatedSolveLeavesIndexEmpty) {
  const Graph graph = gen::PlantedClique(150, 0.05, 9, 13);
  DsdServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddGraph("g", Graph(graph)).ok());
  StatusOr<WireResponse> blown = ParseWireResponse(Roundtrip(
      server, "solve graph=g algo=peel motif=triangle budget=1e-12 id=1"));
  ASSERT_TRUE(blown.ok());
  EXPECT_EQ(blown.value().code, "DeadlineExceeded");
  EXPECT_EQ(StatsField(server, "index_bytes"), 0u);

  // The next solve is a correct miss that fills the entry.
  SolveRequest request;
  request.algorithm = "peel";
  request.motif = "triangle";
  StatusOr<SolveResponse> direct = Solve(graph, request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(ExtractParity(Roundtrip(
                server, "solve graph=g algo=peel motif=triangle id=2")),
            ExtractParity(FormatSolveOk(0, direct.value(), false)));
  EXPECT_EQ(StatsField(server, "index_misses"), 2u);
  EXPECT_GT(StatsField(server, "index_bytes"), 0u);
}

/// Solver that parks its worker until the test releases it — the
/// deterministic way to keep a solve IN FLIGHT while requests pile into
/// the admission queue behind it.
class GateSolver : public Solver {
 public:
  static std::atomic<bool>& Entered() {
    static std::atomic<bool> entered{false};
    return entered;
  }
  static std::atomic<bool>& Released() {
    static std::atomic<bool> released{false};
    return released;
  }

  std::string Name() const override { return "test-gate"; }
  std::string Description() const override {
    return "parks until released (test fixture)";
  }
  DensestResult Run(const Graph&, const MotifOracle&, const SolveRequest&,
                    const ExecutionContext&) const override {
    Entered().store(true);
    while (!Released().load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return {};
  }
};

// Registers GateSolver once per process and closes the gate, so every test
// that parks the worker starts from the same state.
bool ResetGateSolver() {
  static const bool registered =
      SolverRegistry::Global().Register(std::make_unique<GateSolver>()).ok();
  GateSolver::Entered().store(false);
  GateSolver::Released().store(false);
  return registered;
}

TEST(DsdServerConcurrencyTest, OverloadShedsTypedStatusesNotGarbage) {
  ASSERT_TRUE(ResetGateSolver());
  ServerOptions options;
  options.hardware_threads = 1;
  options.workers = 1;
  options.max_queue = 2;  // tiny: most of the burst must shed
  DsdServer server(options);
  ASSERT_TRUE(server.AddGraph("g", gen::PlantedClique(150, 0.05, 9, 13)).ok());

  // Park the only worker first: a peel on this graph finishes in about a
  // millisecond, so without the gate the worker could drain the queue as
  // fast as the burst fills it and nothing would shed.
  ResponseSink sink;
  server.Handle("solve graph=g algo=test-gate motif=edge id=999",
                sink.Callback());
  while (!GateSolver::Entered().load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  constexpr int kBurst = 24;
  for (int j = 0; j < kBurst; ++j) {
    // Distinct eps per request defeats batch-admission coalescing (eps is
    // part of the coalescing key), so the burst genuinely fills the queue.
    server.Handle("solve graph=g algo=peel motif=triangle eps=0." +
                      std::to_string(100 + j) + " id=" + std::to_string(j),
                  sink.Callback());
  }
  GateSolver::Released().store(true);
  const std::vector<std::string> responses = sink.Await(kBurst + 1);

  int completed = 0, shed = 0;
  for (const std::string& payload : responses) {
    StatusOr<WireResponse> parsed = ParseWireResponse(payload);
    ASSERT_TRUE(parsed.ok()) << payload;
    if (parsed.value().id == 999) continue;  // the gate solve's own response
    if (parsed.value().ok) {
      ++completed;
    } else {
      // Every refusal is the admission-control status — never a crash,
      // never DeadlineExceeded (nothing ran), never a garbage answer.
      EXPECT_EQ(parsed.value().code, "ResourceExhausted") << payload;
      ++shed;
    }
  }
  EXPECT_EQ(completed + shed, kBurst);
  // The parked worker leaves exactly max_queue slots for the burst.
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(shed, kBurst - 2) << "a 24-deep burst into a queue of 2 must shed";
  const DsdServer::Stats stats = server.stats();
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(shed));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(completed + 1));
}

TEST(DsdServerConcurrencyTest, BlownDeadlineInsideARunIsDeadlineExceeded) {
  DsdServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddGraph("g", gen::PlantedClique(150, 0.05, 9, 13)).ok());
  ResponseSink sink;
  server.Handle("solve graph=g algo=core-exact motif=triangle budget=1e-12 "
                "id=1",
                sink.Callback());
  StatusOr<WireResponse> parsed = ParseWireResponse(sink.Await(1)[0]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ok);
  // First request of its kind: no cost estimate yet, so admission lets it
  // in and the run itself loses the race — the OTHER code of the pair.
  EXPECT_EQ(parsed.value().code, "DeadlineExceeded");
}

TEST(DsdServerConcurrencyTest, ShutdownDrainsAdmittedSolves) {
  DsdServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddGraph("g", gen::PlantedClique(150, 0.05, 9, 13)).ok());
  ResponseSink sink;
  constexpr int kAdmitted = 4;
  for (int j = 0; j < kAdmitted; ++j) {
    server.Handle("solve graph=g algo=peel motif=triangle id=" +
                      std::to_string(j),
                  sink.Callback());
  }
  server.Handle("shutdown id=99", sink.Callback());
  server.Handle("solve graph=g algo=peel motif=triangle id=100",
                sink.Callback());
  server.Drain();

  const std::vector<std::string> responses = sink.Await(kAdmitted + 2);
  int ok = 0, shed_after_shutdown = 0;
  for (const std::string& payload : responses) {
    StatusOr<WireResponse> parsed = ParseWireResponse(payload);
    ASSERT_TRUE(parsed.ok());
    if (parsed.value().id == 100) {
      EXPECT_EQ(parsed.value().code, "ResourceExhausted") << payload;
      ++shed_after_shutdown;
    } else if (parsed.value().ok) {
      ++ok;
    }
  }
  // Every solve admitted before the shutdown verb completed (the drain
  // guarantee); the one after it was refused.
  EXPECT_EQ(ok, kAdmitted + 1);  // +1: the shutdown ack itself is "ok"
  EXPECT_EQ(shed_after_shutdown, 1);
  EXPECT_TRUE(server.ShuttingDown());
}

TEST(DsdServerConcurrencyTest, QueuedIdenticalSolvesCoalesceToOneExecution) {
  ASSERT_TRUE(ResetGateSolver());

  ServerOptions options;
  options.hardware_threads = 1;
  options.workers = 1;  // single worker: the gate solve stalls the queue
  options.max_queue = 64;
  DsdServer server(options);
  ASSERT_TRUE(server.AddGraph("g", gen::PlantedClique(150, 0.05, 9, 13)).ok());

  ResponseSink sink;
  server.Handle("solve graph=g algo=test-gate motif=edge id=99",
                sink.Callback());
  while (!GateSolver::Entered().load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Six identical solves arrive while the worker is parked: the first one
  // queues, the other five attach to it as waiters instead of occupying
  // queue slots. Nothing can execute until the gate opens, so the
  // coalescing outcome is deterministic.
  constexpr int kClients = 6;
  for (int j = 0; j < kClients; ++j) {
    server.Handle("solve graph=g algo=peel motif=triangle members=1 id=" +
                      std::to_string(j),
                  sink.Callback());
  }
  GateSolver::Released().store(true);
  const std::vector<std::string> responses = sink.Await(kClients + 1);

  // Every waiter got its own response under its own id, bit-identical to
  // the others in everything but the id (and wall time).
  std::map<uint64_t, std::string> members_by_id;
  ParityFields first;
  bool have_first = false;
  for (const std::string& payload : responses) {
    StatusOr<WireResponse> parsed = ParseWireResponse(payload);
    ASSERT_TRUE(parsed.ok()) << payload;
    ASSERT_TRUE(parsed.value().ok) << payload;
    if (parsed.value().id == 99) continue;  // the gate solve's own response
    const ParityFields parity = ExtractParity(payload);
    if (!have_first) {
      first = parity;
      have_first = true;
    } else {
      EXPECT_EQ(parity, first) << payload;
    }
    members_by_id[parsed.value().id] = parsed.value().fields.at("members");
  }
  ASSERT_EQ(members_by_id.size(), static_cast<size_t>(kClients));
  for (int j = 1; j < kClients; ++j) {
    EXPECT_EQ(members_by_id.at(j), members_by_id.at(0));
  }

  ResponseSink stats_sink;
  server.Handle("stats id=7", stats_sink.Callback());
  StatusOr<WireResponse> stats = ParseWireResponse(stats_sink.Await(1)[0]);
  ASSERT_TRUE(stats.ok());
  uint64_t coalesced = 0;
  uint64_t completed = 0;
  ASSERT_TRUE(stats.value().GetUint("coalesced", &coalesced));
  ASSERT_TRUE(stats.value().GetUint("completed", &completed));
  // One execution answered all six; each waiter still counts as a
  // completed solve, and the five riders as coalesced.
  EXPECT_EQ(coalesced, static_cast<uint64_t>(kClients - 1));
  EXPECT_EQ(completed, static_cast<uint64_t>(kClients + 1));
}

// ---------------------------------------------------------------------------
// Transports

TEST(ServePipeTest, ServesFramesOverPipesAndDrainsOnEof) {
  Pipe in, out;
  DsdServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddGraph("g", gen::PlantedClique(80, 0.05, 6, 3)).ok());

  ASSERT_TRUE(WriteFrame(in.fds[1], "ping id=1").ok());
  ASSERT_TRUE(
      WriteFrame(in.fds[1], "solve graph=g algo=peel motif=triangle id=2")
          .ok());
  in.CloseWrite();

  ASSERT_TRUE(server.ServePipe(in.fds[0], out.fds[1]).ok());
  out.CloseWrite();

  FrameReader reader(out.fds[0]);
  std::string payload, error;
  std::map<uint64_t, bool> seen;
  while (reader.Next(&payload, &error) == 1) {
    StatusOr<WireResponse> parsed = ParseWireResponse(payload);
    ASSERT_TRUE(parsed.ok()) << payload;
    EXPECT_TRUE(parsed.value().ok) << payload;
    seen[parsed.value().id] = true;
  }
  EXPECT_TRUE(seen[1]);
  EXPECT_TRUE(seen[2]);
}

TEST(ServePipeTest, FramingErrorSurfacesAsIoError) {
  Pipe in, out;
  const char bogus[] = "notanumber\n";
  ASSERT_EQ(::write(in.fds[1], bogus, sizeof(bogus) - 1),
            static_cast<ssize_t>(sizeof(bogus) - 1));
  in.CloseWrite();
  DsdServer server(SmallServerOptions());
  EXPECT_TRUE(server.ServePipe(in.fds[0], out.fds[1]).IsIoError());
}

namespace tcp {

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  return fd;
}

}  // namespace tcp

TEST(ServeTcpTest, ConcurrentConnectionsThenShutdownVerb) {
  DsdServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddGraph("g", gen::PlantedClique(80, 0.05, 6, 3)).ok());
  StatusOr<uint16_t> port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  std::thread serving([&]() { server.ServeTcp(); });

  // Ground truth over connection A.
  constexpr const char* kSolve = "solve graph=g algo=peel motif=triangle";
  std::string expected_payload;
  {
    const int fd = tcp::Connect(port.value());
    ASSERT_TRUE(WriteFrame(fd, std::string(kSolve) + " id=1").ok());
    FrameReader reader(fd);
    std::string error;
    ASSERT_EQ(reader.Next(&expected_payload, &error), 1) << error;
    ::close(fd);
  }
  const ParityFields expected = ExtractParity(expected_payload);

  // Three concurrent connections each replay the same solve (pipelined
  // ping + solve per connection); answers must match connection A's.
  constexpr int kConnections = 3;
  std::vector<std::thread> clients;
  std::mutex results_mutex;
  std::vector<ParityFields> results;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c]() {
      const int fd = tcp::Connect(port.value());
      ASSERT_TRUE(WriteFrame(fd, "ping id=7").ok());
      ASSERT_TRUE(
          WriteFrame(fd, std::string(kSolve) + " id=" + std::to_string(c))
              .ok());
      FrameReader reader(fd);
      std::string payload, error;
      for (int frames = 0; frames < 2; ++frames) {
        ASSERT_EQ(reader.Next(&payload, &error), 1) << error;
        StatusOr<WireResponse> parsed = ParseWireResponse(payload);
        ASSERT_TRUE(parsed.ok());
        if (parsed.value().id == 7) continue;  // the ping ack
        std::lock_guard<std::mutex> lock(results_mutex);
        results.push_back(ExtractParity(payload));
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  ASSERT_EQ(results.size(), static_cast<size_t>(kConnections));
  for (const ParityFields& fields : results) EXPECT_EQ(fields, expected);

  // The shutdown verb ends ServeTcp after the drain; its ack arrives.
  {
    const int fd = tcp::Connect(port.value());
    ASSERT_TRUE(WriteFrame(fd, "shutdown id=50").ok());
    FrameReader reader(fd);
    std::string payload, error;
    ASSERT_EQ(reader.Next(&payload, &error), 1) << error;
    EXPECT_EQ(payload, "ok id=50");
    ::close(fd);
  }
  serving.join();
  EXPECT_TRUE(server.ShuttingDown());
}

TEST(ServeTcpTest, StopTcpUnblocksServeLoop) {
  DsdServer server(SmallServerOptions());
  StatusOr<uint16_t> port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok());
  std::thread serving([&]() { server.ServeTcp(); });
  // What a SIGTERM handler does: just StopTcp, from another thread.
  server.StopTcp();
  serving.join();
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Presets

TEST(PresetTest, KnownPresetsBuildAndUnknownIsNotFound) {
  StatusOr<Graph> planted = BuildPresetGraph("planted-clique", 0, false);
  ASSERT_TRUE(planted.ok());
  EXPECT_EQ(planted.value().NumVertices(), 400u);
  StatusOr<Graph> ba = BuildPresetGraph("ba-small", 123, true);
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(ba.value().NumVertices(), 2000u);
  EXPECT_TRUE(BuildPresetGraph("nonesuch", 0, false).status().IsNotFound());
}

TEST(PresetTest, ServerReplayPresetSeedIsReproducible) {
  // Identity, not statistics: the replay bench depends on every host
  // building the identical graph from the default seed.
  StatusOr<Graph> a = BuildPresetGraph("server-replay", 0, false);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().NumVertices(), gen::kServerReplayVertices);
  EXPECT_GT(a.value().NumEdges(), 0u);
}

}  // namespace
}  // namespace dsd::server
