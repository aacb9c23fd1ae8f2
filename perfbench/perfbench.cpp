// perfbench — the repo benchmark's measuring binary (run through run.py).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --server PATH/dsd_server --workdir DIR
//
// Generates every input from --seed (graphs as edge-list text, request
// traces, fresh query seeds), drives the system only through its public
// entry points — the library (storage::LoadGraphFile, MakeOracle,
// MotifOracle::Degrees, MotifCoreDecompose, dsd::Solve) and the dsd_server
// binary over loopback TCP — verifies every answer outside the timed
// window, and prints one JSON result line last on stdout. The line before
// it is a JSON record with the failure accounting, sample counts and
// percentiles used; run.py files both with the host-noise record.
//
// Workloads:
//   batch-peel      closed loop, 1 client, in-process Solve, 4 threads:
//                   clique-motif peels (count-stage bound, few huge
//                   brackets) and pattern-motif peels (thousands of
//                   brackets, per-bracket overhead bound).
//   serve-steady    open loop, Poisson arrivals, dsd_server --threads 4,
//                   the repo's server replay mix: 71% fixed-key (reusable)
//                   and 29% fresh requests.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, from a run that measures the workload
// untraced and then traced (their difference is trace.overhead_pct) and
// then probes each layer on a fresh, uncached oracle stack. Spans go to
// DIR/trace-<workload>-<seed>.json when the run ends.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsd/motif_core.h"
#include "dsd/oracle_factory.h"
#include "dsd/solver.h"
#include "server/protocol.h"
#include "storage/graph_store.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dsd::VertexId;

/// Thread budget of every batch solve and of the server (`--threads`).
constexpr unsigned kThreads = 4;
/// serve-steady's offered rate, requests/s: 40% of the 40 req/s the
/// server sustains on its graph and mix at 4 threads (README.md).
constexpr double kServeRate = 16.0;
/// Quiet serve set-ups per run; setup_s is their median.
constexpr int kServeSetups = 5;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The running dsd_server, killed by Die so no exit path leaves it behind.
std::atomic<pid_t> g_server_pid{-1};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  const pid_t pid = g_server_pid.exchange(-1);
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  std::exit(1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// The highest percentile, at most p90, that leaves at least ten samples
/// beyond it (the median when there are too few samples for that).
double TailQuantile(size_t samples) {
  if (samples <= 20) return 0.5;
  return std::min(0.9, 1.0 - 10.0 / static_cast<double>(samples));
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// VmHWM of a process, in MiB (-1 when unreadable).
double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// Steal and total jiffies of all CPUs, from /proc/stat.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double value = 0, total = 0, steal = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

/// Steal share above which a sample counts as taken while the shared host
/// was busy. Idle and lightly loaded runs read well under 1%.
constexpr double kQuietSteal = 0.02;

/// Samples /proc/stat every 100 ms on a background thread, so the steal
/// share of any interval of the run can be looked up afterwards.
class StealSampler {
 public:
  StealSampler() : thread_([this] { Loop(); }) {}
  ~StealSampler() {
    stop_ = true;
    thread_.join();
  }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Steal share over [from, to], widened to the enclosing samples.
  double Share(Clock::time_point from, Clock::time_point to) {
    Sample();
    std::lock_guard<std::mutex> lock(mutex_);
    auto first = std::upper_bound(
        samples_.begin(), samples_.end(), from,
        [](Clock::time_point t, const Tick& tick) { return t < tick.at; });
    if (first != samples_.begin()) --first;
    auto last = std::lower_bound(
        samples_.begin(), samples_.end(), to,
        [](const Tick& tick, Clock::time_point t) { return tick.at < t; });
    if (last == samples_.end()) --last;
    const double total = last->total - first->total;
    return total > 0 ? (last->steal - first->steal) / total : 0.0;
  }

 private:
  struct Tick {
    Clock::time_point at;
    double steal, total;
  };

  /// Reads the counters and the clock under the lock, so samples from the
  /// background thread and from Share() stay ordered in both.
  void Sample() {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [steal, total] = CpuTicks();
    samples_.push_back({Clock::now(), steal, total});
  }

  void Loop() {
    while (!stop_) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  std::mutex mutex_;
  std::vector<Tick> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Resets this process's VmHWM so the peak covers only what follows.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// (steal share, seconds) of one timed run.
using TimedRun = std::pair<double, double>;

/// The times of the quiet runs, topped up with the least-steal others to
/// at least `wanted`.
std::vector<double> KeepQuiet(std::vector<TimedRun> runs, size_t wanted) {
  std::sort(runs.begin(), runs.end());
  std::vector<double> kept;
  for (const auto& [share, seconds] : runs) {
    if (share <= kQuietSteal || kept.size() < wanted) kept.push_back(seconds);
  }
  return kept;
}

/// Repeats `run` (which returns its own wall time) until `wanted` runs
/// were quiet, or 3 x wanted ran, and keeps the quiet ones.
std::vector<double> QuietRepeats(int wanted, StealSampler& steal,
                                 const std::function<double()>& run) {
  std::vector<TimedRun> runs;
  int quiet = 0;
  while (quiet < wanted && static_cast<int>(runs.size()) < 3 * wanted) {
    const auto start = Clock::now();
    const double seconds = run();
    runs.push_back({steal.Share(start, Clock::now()), seconds});
    if (runs.back().first <= kQuietSteal) ++quiet;
  }
  return KeepQuiet(std::move(runs), static_cast<size_t>(wanted));
}

// ---------------------------------------------------------------------------
// Inputs.

/// A Barabasi-Albert backbone with planted near-clique communities: the
/// shape of the repo's pl-* registry presets, generated here so the inputs
/// do not change when the library's own generators do.
struct GraphSpec {
  std::string name;
  uint32_t n = 0;
  uint32_t edges_per_vertex = 0;
  uint32_t communities = 0;
  uint32_t community_size = 0;
  double intra_p = 0.0;
};

/// Writes the graph as "u v" lines; returns the file size in bytes.
size_t WriteGraph(const GraphSpec& spec, uint64_t seed,
                  const std::string& path) {
  std::mt19937_64 rng(seed);
  auto bounded = [&rng](uint64_t bound) { return rng() % bound; };
  std::string text;
  text.reserve(static_cast<size_t>(spec.n) * spec.edges_per_vertex * 14);
  auto edge = [&text](uint32_t u, uint32_t v) {
    text += std::to_string(u);
    text += ' ';
    text += std::to_string(v);
    text += '\n';
  };
  const uint32_t m0 = spec.edges_per_vertex + 1;
  std::vector<uint32_t> pool;  // each vertex once per incident edge
  for (uint32_t i = 0; i < m0; ++i) {
    for (uint32_t j = i + 1; j < m0; ++j) {
      edge(i, j);
      pool.push_back(i);
      pool.push_back(j);
    }
  }
  std::vector<uint32_t> targets;
  for (uint32_t v = m0; v < spec.n; ++v) {
    targets.clear();
    for (uint32_t attempt = 0; targets.size() < spec.edges_per_vertex &&
                               attempt < 32 * spec.edges_per_vertex;
         ++attempt) {
      const uint32_t t = pool[bounded(pool.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (uint32_t t : targets) {
      edge(v, t);
      pool.push_back(v);
      pool.push_back(t);
    }
  }
  // Community edges may repeat backbone edges; ingest collapses them.
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<uint32_t> members;
  for (uint32_t c = 0; c < spec.communities; ++c) {
    members.clear();
    while (members.size() < spec.community_size) {
      const uint32_t v = static_cast<uint32_t>(bounded(spec.n));
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        members.push_back(v);
      }
    }
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (coin(rng) < spec.intra_p) edge(members[i], members[j]);
      }
    }
  }
  // Synced, so no write-back of the fresh file competes with the timed
  // loads that follow.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) Die("cannot write " + path);
  for (size_t done = 0; done < text.size();) {
    const ssize_t wrote = ::write(fd, text.data() + done, text.size() - done);
    if (wrote <= 0) Die("cannot write " + path);
    done += static_cast<size_t>(wrote);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) Die("cannot sync " + path);
  return text.size();
}

// ---------------------------------------------------------------------------
// Workloads.

/// One request template. Fresh templates draw new query seeds per request,
/// so nothing about one can be reused for another.
struct OpSpec {
  std::string graph;
  std::string algo;
  std::string motif;
  uint32_t min_size = 0;
  bool fresh = false;
  /// Serve: the template's count in one cycle of the request mix.
  unsigned weight = 1;
};

struct Workload {
  std::string name;
  bool serve = false;
  std::vector<GraphSpec> graphs;
  std::vector<OpSpec> ops;
  /// Batch: wall time of one pass on a 4-CPU host. A run makes
  /// round(seconds / nominal) passes (at least 3), so the number of
  /// operations — the base of failed_share — is the same on every run.
  double nominal_pass_s = 0.0;
  /// Serve: offered rate, requests/s.
  double rate = 0.0;
  /// Latency limit for goodput_rps.
  double limit_s = 0.0;
};

bool IsCliqueMotif(const std::string& motif) {
  return motif == "edge" || motif == "triangle" ||
         motif.find("-clique") != std::string::npos;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "batch-peel";
    w.graphs = {{"peel-l", 100000, 3, 32, 16, 0.9},
                {"peel-s", 30000, 3, 16, 16, 0.9}};
    w.ops = {{"peel-l", "peel", "triangle"},
             {"peel-l", "at-least", "triangle", 16},
             {"peel-l", "peel", "4-clique"},
             {"peel-s", "peel", "3-star"},
             {"peel-s", "peel", "2-star"},
             {"peel-s", "peel", "basket"}};
    w.nominal_pass_s = 2.7;
    w.limit_s = 30.0;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "serve-steady";
    w.serve = true;
    w.graphs = {{"serve", 50000, 2, 48, 24, 0.85}};
    // The repo's server replay trace (bench/bench_server.cpp: 42 requests
    // drawn with seed 0xBEEFCAFE) as weights: its templates with the counts
    // it draws of each. Its five fixed keys (30 of 42) can be reused by a
    // cache or an index; its two query templates (12 of 42) get fresh
    // seeds per request here.
    w.ops = {{"serve", "peel", "edge", 0, false, 4},
             {"serve", "peel", "triangle", 0, false, 11},
             {"serve", "peel", "2-star", 0, false, 6},
             {"serve", "at-least", "edge", 32, false, 3},
             {"serve", "at-least", "triangle", 16, false, 6},
             {"serve", "query", "edge", 0, true, 4},
             {"serve", "query", "triangle", 0, true, 8}};
    w.rate = kServeRate;
    w.limit_s = 2.0;
    all.push_back(w);
  }
  return all;
}

/// The motifs every traced run probes, so each per-motif metric exists on
/// every workload. A motif the workload does not use is probed on the
/// workload's first graph.
const std::vector<std::string>& ProbeMotifs() {
  static const std::vector<std::string> motifs = {
      "edge", "triangle", "4-clique", "2-star", "3-star", "diamond", "basket"};
  return motifs;
}

// ---------------------------------------------------------------------------
// Operations and their outcomes.

enum class Outcome { kOk, kShed, kDeadline, kError, kWrong };

/// The fields that must be bit-identical to a sequential dsd::Solve.
struct Answer {
  std::string density;  // %.17g
  uint64_t instances = 0;
  uint64_t vertices = 0;
  uint64_t members_hash = 0;

  bool operator==(const Answer&) const = default;
};

Answer AnswerOf(const dsd::SolveResponse& response) {
  char density[64];
  std::snprintf(density, sizeof(density), "%.17g",
                response.result.density);
  return {density, response.result.instances,
          response.result.vertices.size(),
          dsd::server::MembersHash(response.result.vertices)};
}

struct Op {
  size_t spec = 0;
  std::vector<VertexId> seeds;  // fresh templates only
  uint64_t id = 0;
  bool first_use = false;  // the key was not answered earlier in the run
  double due_s = 0.0;      // serve: scheduled send offset
  // Filled in when the answer arrives.
  Outcome outcome = Outcome::kError;
  double latency_s = 0.0;
  double lag_s = 0.0;    // serve: send lateness; batch: gap since last op
  double wall_s = 0.0;   // solve wall time (SolveStats / `wall=`)
  unsigned threads = 0;  // effective threads (SolveStats / `threads=`)
  /// Taken while the host was quiet (see kQuietSteal); only quiet ops
  /// enter the latency and solve-time metrics.
  bool quiet = true;
  Answer answer;
};

std::string KeyOf(const Workload& w, const Op& op) {
  const OpSpec& spec = w.ops[op.spec];
  std::string key = spec.graph + "/" + spec.algo + "/" + spec.motif;
  if (spec.min_size > 0) key += "/min_size=" + std::to_string(spec.min_size);
  for (VertexId s : op.seeds) key += "/" + std::to_string(s);
  return key;
}

dsd::SolveRequest RequestOf(const Workload& w, const Op& op,
                            unsigned threads) {
  const OpSpec& spec = w.ops[op.spec];
  dsd::SolveRequest request;
  request.algorithm = spec.algo;
  request.motif = spec.motif;
  request.min_size = spec.min_size;
  request.seeds = op.seeds;
  request.threads = threads;
  return request;
}

std::string WireSolve(const Workload& w, const Op& op) {
  const OpSpec& spec = w.ops[op.spec];
  std::string payload = "solve graph=g algo=" + spec.algo +
                        " motif=" + spec.motif;
  if (spec.min_size > 0) {
    payload += " min_size=" + std::to_string(spec.min_size);
  }
  if (!op.seeds.empty()) {
    payload += " seeds=";
    for (size_t i = 0; i < op.seeds.size(); ++i) {
      if (i > 0) payload += ',';
      payload += std::to_string(op.seeds[i]);
    }
  }
  return payload + " id=" + std::to_string(op.id);
}

std::vector<VertexId> FreshSeeds(std::mt19937_64& rng, uint32_t n) {
  std::vector<VertexId> seeds;
  while (seeds.size() < 3) {
    const VertexId v = static_cast<VertexId>(rng() % n);
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
      seeds.push_back(v);
    }
  }
  std::sort(seeds.begin(), seeds.end());
  return seeds;
}

// ---------------------------------------------------------------------------
// Answer verification, outside every timed window.

/// Sequential (threads = 1) dsd::Solve per distinct key, on four worker
/// threads; then marks every op whose answer differs as kWrong.
void Verify(const Workload& w, const std::map<std::string, dsd::Graph>& graphs,
            std::vector<Op*> ops) {
  std::map<std::string, const Op*> distinct;
  for (const Op* op : ops) distinct.emplace(KeyOf(w, *op), op);
  std::vector<std::pair<std::string, const Op*>> work(distinct.begin(),
                                                      distinct.end());
  std::vector<std::optional<Answer>> reference(work.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&]() {
      for (size_t i = next++; i < work.size(); i = next++) {
        const Op& op = *work[i].second;
        const dsd::Graph& graph = graphs.at(w.ops[op.spec].graph);
        dsd::StatusOr<dsd::SolveResponse> response =
            dsd::Solve(graph, RequestOf(w, op, 1));
        if (response.ok()) reference[i] = AnswerOf(response.value());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < work.size(); ++i) slot[work[i].first] = i;
  for (Op* op : ops) {
    if (op->outcome != Outcome::kOk) continue;
    const std::optional<Answer>& want = reference[slot.at(KeyOf(w, *op))];
    if (!want || !(*want == op->answer)) {
      std::fprintf(stderr, "perfbench: WRONG ANSWER for %s\n",
                   KeyOf(w, *op).c_str());
      op->outcome = Outcome::kWrong;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch workloads: closed loop, one client, in-process dsd::Solve.

struct BatchState {
  std::map<std::string, dsd::Graph> graphs;
};

/// One set-up: LoadGraphFile on every seeded edge list plus MakeOracle for
/// each motif the workload uses. Returns its wall time in seconds.
double BatchSetup(const Workload& w, const std::string& dir, Tracer& tracer,
                  BatchState* state) {
  const auto start = Clock::now();
  ScopedSpan setup(tracer, "setup");
  state->graphs.clear();
  for (const GraphSpec& spec : w.graphs) {
    ScopedSpan span(tracer, "storage.load", setup.id());
    dsd::StatusOr<dsd::Graph> graph =
        dsd::storage::LoadGraphFile(dir + "/" + spec.name + ".txt");
    if (!graph.ok()) Die("load " + spec.name + ": " + graph.status().ToString());
    state->graphs.emplace(spec.name, std::move(graph).value());
  }
  std::set<std::string> motifs;
  for (const OpSpec& op : w.ops) motifs.insert(op.motif);
  dsd::OracleOptions options;
  options.threads = kThreads;
  options.cache = true;
  for (const std::string& motif : motifs) {
    ScopedSpan span(tracer, "oracle.make", setup.id());
    if (!dsd::MakeOracle(motif, options).ok()) Die("MakeOracle " + motif);
  }
  return SecondsBetween(start, Clock::now());
}

int BatchPasses(const Workload& w, double seconds) {
  return std::max(3, static_cast<int>(std::lround(seconds / w.nominal_pass_s)));
}

/// Runs closed-loop passes over the workload's ops: the `planned` ones, then
/// more while fewer than `planned` ran with the host quiet, up to 3 x
/// planned passes or `max_seconds`. If too few were quiet, the `planned`
/// passes with the least steal count as quiet. Calls `reload` before every
/// even pass, outside its timing: even passes solve each key for the first
/// time on freshly loaded graphs, and odd passes repeat them. Sets *peak_mb
/// to the highest VmHWM of a pass.
std::vector<Op> RunBatch(const Workload& w, const BatchState& state,
                         int planned, double max_seconds, StealSampler& steal,
                         Tracer& tracer, const std::function<void()>& reload,
                         double* peak_mb) {
  std::vector<Op> ops;
  std::vector<std::pair<double, int>> pass_steal;  // (steal share, pass)
  int quiet = 0;
  *peak_mb = 0.0;
  const auto start = Clock::now();
  auto last_end = start;
  uint64_t id = 0;
  for (int pass = 0;
       pass < planned ||
       (quiet < planned && pass < 3 * planned &&
        SecondsBetween(start, Clock::now()) < max_seconds);
       ++pass) {
    const bool fresh = pass % 2 == 0;
    if (fresh) {
      reload();
      last_end = Clock::now();
    }
    ResetPeakRss();
    ScopedSpan pass_span(tracer, "pass");
    const auto pass_start = Clock::now();
    for (size_t i = 0; i < w.ops.size(); ++i) {
      Op op;
      op.spec = i;
      op.id = id++;
      op.first_use = fresh;
      const dsd::Graph& graph = state.graphs.at(w.ops[i].graph);
      const dsd::SolveRequest request = RequestOf(w, op, kThreads);
      const auto start = Clock::now();
      dsd::StatusOr<dsd::SolveResponse> response = [&] {
        ScopedSpan span(tracer, "solve", pass_span.id(), op.id);
        return dsd::Solve(graph, request);
      }();
      const auto end = Clock::now();
      op.latency_s = SecondsBetween(start, end);
      op.lag_s = SecondsBetween(last_end, start);
      last_end = end;
      if (response.ok()) {
        op.outcome = Outcome::kOk;
        op.wall_s = response.value().stats.wall_seconds;
        op.threads = response.value().stats.threads;
        op.answer = AnswerOf(response.value());
      } else {
        std::fprintf(stderr, "perfbench: solve failed: %s\n",
                     response.status().ToString().c_str());
        op.outcome = Outcome::kError;
      }
      ops.push_back(std::move(op));
    }
    *peak_mb = std::max(*peak_mb, PeakRssMb("self"));
    const double share = steal.Share(pass_start, Clock::now());
    pass_steal.push_back({share, pass});
    if (share <= kQuietSteal) ++quiet;
  }
  std::sort(pass_steal.begin(), pass_steal.end());
  std::vector<char> keep(pass_steal.size(), 0);
  for (size_t i = 0; i < pass_steal.size(); ++i) {
    keep[static_cast<size_t>(pass_steal[i].second)] =
        pass_steal[i].first <= kQuietSteal || i < static_cast<size_t>(planned);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].quiet = keep[i / w.ops.size()] != 0;
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Serve workloads: dsd_server over loopback TCP.

/// A spawned dsd_server; killed and reaped on every exit path.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& graph_file) {
    int out[2];
    if (::pipe(out) != 0) Die("pipe");
    std::vector<std::string> args = {binary, "--port", "0", "--threads",
                                     std::to_string(kThreads), "--preload",
                                     "g=@" + graph_file};
    pid_ = ::fork();
    if (pid_ < 0) Die("fork");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);
    }
    g_server_pid = pid_;
    ::close(out[1]);
    // "LISTENING <port>" once the preload finished and the socket is bound.
    std::string line;
    char c = 0;
    while (::read(out[0], &c, 1) == 1 && c != '\n') line += c;
    ::close(out[0]);
    if (line.rfind("LISTENING ", 0) != 0) {
      Die("dsd_server did not start (got '" + line + "')");
    }
    port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + 10, nullptr, 10));
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      g_server_pid = -1;
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  double PeakRss() const { return PeakRssMb(std::to_string(pid_)); }

  /// SIGTERM drains in-flight solves; then reap.
  void Stop() {
    if (pid_ <= 0) return;
    g_server_pid = -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Die("connect");
  }
  return fd;
}

/// Up to kThreads pipelined connections. The caller's thread writes; one
/// reader thread per connection matches responses to ops by id.
class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, size_t connections) {
    for (size_t i = 0; i < connections; ++i) fds_.push_back(Connect(port));
  }
  ~LoadGenerator() {
    for (int fd : fds_) ::close(fd);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sends ops[i] at start + ops[i].due_s on connection i % connections
  /// and waits for every answer. Latency runs from the scheduled send
  /// time. Returns the seconds from the schedule's start to the last answer.
  double Run(const Workload& w, std::vector<Op>& ops, StealSampler& steal,
             Tracer& tracer, int64_t parent) {
    const size_t lanes = fds_.size();
    std::vector<std::vector<size_t>> by_lane(lanes);
    std::map<uint64_t, size_t> index;
    for (size_t i = 0; i < ops.size(); ++i) {
      by_lane[i % lanes].push_back(i);
      index[ops[i].id] = i;
    }
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    auto due = [&](const Op& op) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(op.due_s));
    };
    std::vector<std::thread> readers;
    for (size_t lane = 0; lane < lanes; ++lane) {
      readers.emplace_back([&, lane]() {
        dsd::server::FrameReader reader(fds_[lane]);
        for (size_t got = 0; got < by_lane[lane].size(); ++got) {
          std::string payload, error;
          if (reader.Next(&payload, &error) != 1) Die("read: " + error);
          const auto now = Clock::now();
          dsd::StatusOr<dsd::server::WireResponse> parsed =
              dsd::server::ParseWireResponse(payload);
          if (!parsed.ok() || index.count(parsed.value().id) == 0) {
            Die("bad response: " + payload);
          }
          Op& op = ops[index.at(parsed.value().id)];
          op.latency_s = SecondsBetween(due(op), now);
          tracer.Record({"wire.request",
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             due(op).time_since_epoch())
                             .count(),
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             now.time_since_epoch())
                             .count(),
                         parent, op.id});
          Classify(parsed.value(), &op);
        }
      });
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      std::this_thread::sleep_until(due(ops[i]));
      ops[i].lag_s = SecondsBetween(due(ops[i]), Clock::now());
      if (!dsd::server::WriteFrame(fds_[i % lanes], WireSolve(w, ops[i])).ok()) {
        Die("write");
      }
    }
    for (std::thread& reader : readers) reader.join();
    const double span_s = SecondsBetween(start, Clock::now());
    // Quiet: requests in flight while the host was quiet, or the half of
    // all requests with the least steal if fewer were.
    std::vector<std::pair<double, size_t>> by_steal;
    for (size_t i = 0; i < ops.size(); ++i) {
      const auto begin = due(ops[i]);
      const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(ops[i].latency_s));
      by_steal.push_back({steal.Share(begin, end), i});
    }
    std::sort(by_steal.begin(), by_steal.end());
    for (size_t rank = 0; rank < by_steal.size(); ++rank) {
      ops[by_steal[rank].second].quiet =
          by_steal[rank].first <= kQuietSteal || 2 * rank < by_steal.size();
    }
    return span_s;
  }

  /// Sends each op alone on the first connection and waits for its answer
  /// before the next, so every solve gets the server's whole thread grant.
  void RunInTurn(const Workload& w, std::vector<Op>& ops) {
    for (Op& op : ops) {
      const auto start = Clock::now();
      const dsd::server::WireResponse response = RoundTrip(WireSolve(w, op));
      op.latency_s = SecondsBetween(start, Clock::now());
      Classify(response, &op);
    }
  }

  /// One `stats` round trip (no load in flight).
  std::map<std::string, std::string> Stats() {
    return RoundTrip("stats id=0").fields;
  }

 private:
  /// One request on the first connection, with nothing else in flight.
  dsd::server::WireResponse RoundTrip(const std::string& request) {
    if (!dsd::server::WriteFrame(fds_[0], request).ok()) Die("write");
    dsd::server::FrameReader reader(fds_[0]);
    std::string payload, error;
    if (reader.Next(&payload, &error) != 1) Die("read: " + error);
    dsd::StatusOr<dsd::server::WireResponse> parsed =
        dsd::server::ParseWireResponse(payload);
    if (!parsed.ok()) Die("bad response: " + payload);
    return parsed.value();
  }

  static void Classify(const dsd::server::WireResponse& r, Op* op) {
    if (!r.ok) {
      op->outcome = r.code == "ResourceExhausted"  ? Outcome::kShed
                    : r.code == "DeadlineExceeded" ? Outcome::kDeadline
                                                   : Outcome::kError;
      return;
    }
    double density = 0.0;
    uint64_t wall_threads = 0;
    if (!r.GetDouble("wall", &op->wall_s) ||
        !r.GetUint("threads", &wall_threads) ||
        !r.GetDouble("density", &density) ||
        !r.GetUint("instances", &op->answer.instances) ||
        !r.GetUint("vertices", &op->answer.vertices)) {
      op->outcome = Outcome::kError;
      return;
    }
    op->threads = static_cast<unsigned>(wall_threads);
    // The hash is printed in hex; the density verbatim at %.17g.
    op->answer.members_hash =
        std::strtoull(r.fields.at("members_hash").c_str(), nullptr, 16);
    op->answer.density = r.fields.at("density");
    op->outcome = Outcome::kOk;
  }

  std::vector<int> fds_;
};

double StatsField(const std::map<std::string, std::string>& stats,
                  const std::string& key) {
  auto it = stats.find(key);
  return it == stats.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// Warm-up pass: each distinct fixed-key request once plus one fresh
/// request per motif.
std::vector<Op> WarmupOps(const Workload& w, const std::vector<VertexId>& seeds0,
                          const std::vector<VertexId>& seeds1) {
  std::vector<Op> ops;
  std::set<std::string> fresh_motifs;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (w.ops[i].fresh && !fresh_motifs.insert(w.ops[i].motif).second) continue;
    Op op;
    op.spec = i;
    op.id = 1000000 + i;
    op.first_use = true;
    if (w.ops[i].fresh) op.seeds = fresh_motifs.size() == 1 ? seeds0 : seeds1;
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The open-loop trace: N = rate x seconds requests, the templates in the
/// proportion of their weights (cycled, then shuffled), at arrival times of
/// a Poisson process conditioned on N arrivals in the window.
std::vector<Op> ServeTrace(const Workload& w, double seconds, uint32_t n,
                           std::mt19937_64& rng) {
  const size_t total = static_cast<size_t>(std::lround(w.rate * seconds));
  std::vector<size_t> cycle;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    cycle.insert(cycle.end(), w.ops[i].weight, i);
  }
  std::vector<size_t> specs;
  for (size_t i = 0; i < total; ++i) specs.push_back(cycle[i % cycle.size()]);
  std::shuffle(specs.begin(), specs.end(), rng);
  std::uniform_real_distribution<double> arrival(0.0, seconds);
  std::vector<double> due(total);
  for (double& t : due) t = arrival(rng);
  std::sort(due.begin(), due.end());
  std::vector<Op> ops(total);
  for (size_t i = 0; i < total; ++i) {
    ops[i].spec = specs[i];
    ops[i].id = i;
    ops[i].due_s = due[i];
    ops[i].first_use = w.ops[specs[i]].fresh;
    if (ops[i].first_use) ops[i].seeds = FreshSeeds(rng, n);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Counts {
  size_t attempted = 0, ok = 0, shed = 0, deadline = 0, error = 0, wrong = 0;
  size_t failed() const { return attempted - ok; }
};

Counts CountOutcomes(const std::vector<Op>& ops) {
  Counts c;
  for (const Op& op : ops) {
    ++c.attempted;
    switch (op.outcome) {
      case Outcome::kOk: ++c.ok; break;
      case Outcome::kShed: ++c.shed; break;
      case Outcome::kDeadline: ++c.deadline; break;
      case Outcome::kError: ++c.error; break;
      case Outcome::kWrong: ++c.wrong; break;
    }
  }
  return c;
}

/// Solve time of one pass over the ops whose template passes `pick`.
/// Batch: the median over passes of the summed client latencies. Serve:
/// the sum over templates of the mean `wall=` the server reported — the
/// expected cost of a pass. A template's wall time depends on the thread
/// grant its request drew, and a median would jump between the grants'
/// clusters from run to run; the mean moves only with their mix.
double PassSeconds(const Workload& w, const std::vector<Op>& ops,
                   const std::function<bool(const OpSpec&)>& pick) {
  if (!w.serve) {
    std::vector<double> passes;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (i % w.ops.size() == 0 && ops[i].quiet) passes.push_back(0.0);
      if (ops[i].quiet && pick(w.ops[ops[i].spec])) {
        passes.back() += ops[i].latency_s;
      }
    }
    return Median(passes);
  }
  double total = 0.0;
  for (size_t s = 0; s < w.ops.size(); ++s) {
    if (!pick(w.ops[s])) continue;
    double sum = 0.0;
    size_t count = 0;
    for (const Op& op : ops) {
      if (op.spec == s && op.outcome == Outcome::kOk && op.quiet) {
        sum += op.wall_s;
        ++count;
      }
    }
    if (count > 0) total += sum / static_cast<double>(count);
  }
  return total;
}

/// One measured phase of a workload.
struct Measured {
  std::vector<Op> ops;
  double offered_s = 0.0;
  double steal_share = 0.0;  // CPU time the hypervisor gave elsewhere
  double peak_mb = 0.0;
  std::map<std::string, std::string> stats_before, stats_after;  // serve
};

struct EndToEnd {
  std::vector<Metric> metrics;
  std::string detail;  // sample counts and the percentile used, as JSON
};

EndToEnd EndToEndMetrics(const Workload& w, const Measured& m,
                         double setup_s) {
  const std::vector<Op>& ops = m.ops;
  // Latencies of ok ops taken while the host was quiet; a class with no
  // quiet sample (batch: a busy first pass) falls back to all its ops.
  auto latencies_ms = [&ops](const std::function<bool(const Op&)>& in_class) {
    std::vector<double> quiet, every;
    for (const Op& op : ops) {
      if (op.outcome != Outcome::kOk || !in_class(op)) continue;
      every.push_back(op.latency_s * 1e3);
      if (op.quiet) quiet.push_back(op.latency_s * 1e3);
    }
    return quiet.empty() ? every : quiet;
  };
  const std::vector<double> all = latencies_ms([](const Op&) { return true; });
  const std::vector<double> repeat =
      latencies_ms([](const Op& op) { return !op.first_use; });
  const std::vector<double> fresh =
      latencies_ms([](const Op& op) { return op.first_use; });
  // Goodput. Serve: every request over the load's span — a busy host only
  // costs goodput when it pushes a request past the limit. Batch: quiet
  // ops over the time they took (closed loop, so this is throughput).
  size_t good = 0, quiet_ops = 0;
  double busy_s = 0.0;
  for (const Op& op : ops) {
    if (op.quiet) ++quiet_ops;
    if (!w.serve && !op.quiet) continue;
    busy_s += op.latency_s + op.lag_s;
    if (op.outcome == Outcome::kOk && op.latency_s <= w.limit_s) ++good;
  }
  const double goodput =
      static_cast<double>(good) / (w.serve ? m.offered_s : busy_s);
  // The planned operation count: a batch run adds passes while the host is
  // busy but keeps exactly the planned number as quiet.
  const size_t planned = w.serve ? ops.size() : quiet_ops;
  const Counts counts = CountOutcomes(ops);
  const double tail = TailQuantile(all.size());
  EndToEnd out;
  out.metrics = {
      {"setup_s", setup_s, "s"},
      {"clique_solve_s",
       PassSeconds(w, ops, [](const OpSpec& s) { return IsCliqueMotif(s.motif); }),
       "s"},
      {"pattern_solve_s",
       PassSeconds(w, ops, [](const OpSpec& s) { return !IsCliqueMotif(s.motif); }),
       "s"},
      {"solve_s", PassSeconds(w, ops, [](const OpSpec&) { return true; }), "s"},
      {"latency_p50_ms", Percentile(all, 0.5), "ms"},
      {"latency_p90_ms", Percentile(all, tail), "ms"},
      {"repeat_p50_ms", Percentile(repeat, 0.5), "ms"},
      {"fresh_p50_ms", Percentile(fresh, 0.5), "ms"},
      {"goodput_rps", goodput, "1/s"},
      // Add-one (rule of succession) estimate of the failure share over the
      // planned operations: reads 1/(planned+1) when nothing failed instead
      // of a 0 that no relative spread or bound can be taken of. The exact
      // counts are in the record line and the result's attempted/failed.
      {"failed_share",
       static_cast<double>(counts.failed() + 1) /
           static_cast<double>(planned + 1),
       "1"},
      {"peak_rss_mb", m.peak_mb, "MB"},
  };
  char detail[512];
  std::snprintf(detail, sizeof(detail),
                "{\"attempted\": %zu, \"ok\": %zu, \"shed\": %zu, "
                "\"deadline_exceeded\": %zu, \"error\": %zu, "
                "\"wrong_answer\": %zu, \"latency_samples\": %zu, "
                "\"repeat_samples\": %zu, \"fresh_samples\": %zu, "
                "\"latency_p90_is_percentile\": %.1f, "
                "\"offered_seconds\": %.3f, \"limit_s\": %.1f, "
                "\"steal_share\": %.4f, \"quiet_ops\": %zu}",
                counts.attempted, counts.ok, counts.shed, counts.deadline,
                counts.error, counts.wrong, all.size(), repeat.size(),
                fresh.size(), tail * 100.0, m.offered_s, w.limit_s,
                m.steal_share, quiet_ops);
  out.detail = detail;
  if (!w.serve) {
    // Per-pass op times, to tell noise within a run from noise between
    // runs; negated in passes set aside as busy.
    std::ostringstream passes;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (i % w.ops.size() == 0) passes << (i ? "], [" : "");
      passes << (i % w.ops.size() ? ", " : "")
             << (ops[i].quiet ? ops[i].latency_s : -ops[i].latency_s);
    }
    out.detail.pop_back();
    out.detail += ", \"op_seconds_by_pass\": [[" + passes.str() + "]]}";
  } else {
    // Per request: template, latency, server wall, granted threads.
    std::ostringstream list;
    for (size_t i = 0; i < ops.size(); ++i) {
      list << (i ? ", " : "") << "[" << ops[i].spec << ", "
           << ops[i].latency_s << ", " << ops[i].wall_s << ", "
           << ops[i].threads << "]";
    }
    out.detail.pop_back();
    out.detail += ", \"requests\": [" + list.str() + "]}";
  }
  return out;
}

double MetricValue(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string server;
  std::string workdir;
};

void PrintResult(bool correct, const Counts& counts,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", counts.attempted, counts.failed());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only).

std::string ProbeGraph(const Workload& w, const std::string& motif) {
  for (const OpSpec& op : w.ops) {
    if (op.motif == motif) return op.graph;
  }
  return w.graphs.front().name;
}

/// Count kernels, oracle construction and the peel engine, per motif, on a
/// fresh uncached oracle stack each time.
void ProbeMotifs(const Workload& w,
                 const std::map<std::string, dsd::Graph>& graphs,
                 Tracer& tracer, std::vector<Metric>* out) {
  const dsd::ExecutionContext ctx1;
  const dsd::ExecutionContext ctx4 = ctx1.WithThreads(kThreads);
  for (const std::string& motif : ProbeMotifs()) {
    const dsd::Graph& graph = graphs.at(ProbeGraph(w, motif));
    const std::vector<char> alive(graph.NumVertices(), 1);
    ScopedSpan probe(tracer, "probe." + motif);

    std::vector<double> make_ms;
    dsd::OracleOptions cached;
    cached.threads = kThreads;
    cached.cache = true;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span(tracer, "oracle.make", probe.id());
      const auto start = Clock::now();
      if (!dsd::MakeOracle(motif, cached).ok()) Die("MakeOracle " + motif);
      make_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
    }
    out->push_back({"oracle.make_ms." + motif, Median(make_ms), "ms"});

    double degrees_ms[2] = {0.0, 0.0};
    uint64_t degree_sum = 0;
    int size = 1;
    for (int i = 0; i < 2; ++i) {
      dsd::OracleOptions bare;
      bare.threads = i == 0 ? 1 : kThreads;
      auto oracle = dsd::MakeOracle(motif, bare);
      if (!oracle.ok()) Die("MakeOracle " + motif);
      size = oracle.value()->MotifSize();
      ScopedSpan span(tracer, "count.degrees", probe.id());
      const auto start = Clock::now();
      const std::vector<uint64_t> degrees =
          oracle.value()->Degrees(graph, alive, i == 0 ? ctx1 : ctx4);
      degrees_ms[i] = SecondsBetween(start, Clock::now()) * 1e3;
      degree_sum = 0;
      for (uint64_t d : degrees) degree_sum += d;
    }
    out->push_back({"count.degrees_ms." + motif + ".t1", degrees_ms[0], "ms"});
    out->push_back({"count.degrees_ms." + motif + ".t4", degrees_ms[1], "ms"});
    out->push_back({"count.scaling." + motif, degrees_ms[0] / degrees_ms[1], "x"});
    out->push_back({"count.instances." + motif,
                    static_cast<double>(degree_sum / static_cast<uint64_t>(size)),
                    "count"});

    dsd::OracleOptions bare;
    bare.threads = kThreads;
    auto oracle = dsd::MakeOracle(motif, bare);
    if (!oracle.ok()) Die("MakeOracle " + motif);
    const auto start = Clock::now();
    dsd::MotifCoreDecomposition decomposition = [&] {
      ScopedSpan span(tracer, "peel.decompose", probe.id());
      return dsd::MotifCoreDecompose(graph, *oracle.value(), ctx4);
    }();
    const double decompose_ms = SecondsBetween(start, Clock::now()) * 1e3;
    const dsd::PeelEngineStats& peel = decomposition.peel_stats;
    const double count_ms = static_cast<double>(peel.refill_ns) / 1e6;
    out->push_back({"peel.decompose_ms." + motif, decompose_ms, "ms"});
    out->push_back({"peel.brackets." + motif,
                    static_cast<double>(peel.brackets), "count"});
    out->push_back({"peel.count_ms." + motif, count_ms, "ms"});
    out->push_back({"peel.apply_ms." + motif, decompose_ms - count_ms, "ms"});
    out->push_back({"peel.stall_ms." + motif,
                    static_cast<double>(peel.apply_stall_ns) / 1e6, "ms"});
    out->push_back({"peel.spec_hit_rate." + motif,
                    peel.brackets > 0
                        ? static_cast<double>(peel.speculation_hits) /
                              static_cast<double>(peel.brackets)
                        : 0.0,
                    "1"});
  }
}

/// Core location and flow search: neither workload runs a flow solve, so
/// a core-exact edge Solve at 4 threads on the workload's first graph
/// reads these layers' cost.
void ProbeSolves(const Workload& w,
                 const std::map<std::string, dsd::Graph>& graphs,
                 Tracer& tracer, std::vector<Metric>* out) {
  dsd::SolveRequest request;
  request.algorithm = "core-exact";
  request.motif = "edge";
  request.threads = kThreads;
  auto response = [&] {
    ScopedSpan span(tracer, "solve");
    return dsd::Solve(graphs.at(w.graphs.front().name), request);
  }();
  if (!response.ok()) Die("core-exact probe failed");
  const dsd::AlgoStats& s = response.value().result.stats;
  out->push_back({"locate.decompose_s", s.decomposition_seconds, "s"});
  out->push_back({"locate.vertices", static_cast<double>(s.located_vertices),
                  "count"});
  out->push_back({"locate.kmax", static_cast<double>(s.kmax), "count"});

  const double calls = static_cast<double>(s.flow_max_flow_calls);
  double nodes = 0;
  for (uint64_t size : s.flow_network_sizes) {
    nodes = std::max(nodes, static_cast<double>(size));
  }
  out->push_back({"flow.search_ms",
                  (response.value().stats.wall_seconds - s.decomposition_seconds) *
                      1e3,
                  "ms"});
  out->push_back({"flow.max_flow_calls", calls, "count"});
  out->push_back({"flow.warm_share",
                  calls > 0 ? static_cast<double>(s.flow_warm_starts) / calls
                            : 0.0,
                  "1"});
  out->push_back({"flow.discharges", static_cast<double>(s.flow_discharges),
                  "count"});
  out->push_back({"flow.pushes", static_cast<double>(s.flow_pushes), "count"});
  out->push_back({"flow.relabels", static_cast<double>(s.flow_relabels),
                  "count"});
  out->push_back({"flow.global_relabels",
                  static_cast<double>(s.flow_global_relabels), "count"});
  out->push_back({"flow.iterations",
                  static_cast<double>(s.binary_search_iterations), "count"});
  out->push_back({"flow.network_nodes_max", nodes, "count"});
}

/// Server-layer metrics from the traced phase (wire `wall=` / `threads=`
/// and `stats` deltas; for batch, the in-process SolveStats equivalents).
void ServerMetrics(const Measured& m, std::vector<Metric>* out) {
  std::vector<double> solve_ms, overhead_ms, lag_ms;
  double threads = 0;
  size_t ok = 0;
  for (const Op& op : m.ops) {
    lag_ms.push_back(op.lag_s * 1e3);
    if (op.outcome != Outcome::kOk) continue;
    ++ok;
    solve_ms.push_back(op.wall_s * 1e3);
    overhead_ms.push_back((op.latency_s - op.wall_s) * 1e3);
    threads += op.threads;
  }
  const double tail = TailQuantile(solve_ms.size());
  out->push_back({"server.solve_ms.p50", Percentile(solve_ms, 0.5), "ms"});
  out->push_back({"server.solve_ms.p90", Percentile(solve_ms, tail), "ms"});
  out->push_back({"server.overhead_ms.p50", Percentile(overhead_ms, 0.5), "ms"});
  out->push_back({"server.overhead_ms.p90", Percentile(overhead_ms, tail), "ms"});
  out->push_back({"server.grant_threads",
                  ok > 0 ? threads / static_cast<double>(ok) : 0.0, "threads"});
  const Counts counts = CountOutcomes(m.ops);
  double shed = static_cast<double>(counts.shed);
  double deadline = static_cast<double>(counts.deadline);
  double coalesced = 0, useful = static_cast<double>(counts.ok) /
                                  static_cast<double>(counts.attempted);
  double hit_rate = 0, lookups = 0;
  if (!m.stats_after.empty()) {
    auto delta = [&](const std::string& key) {
      return StatsField(m.stats_after, key) - StatsField(m.stats_before, key);
    };
    shed = delta("shed");
    coalesced = delta("coalesced") / std::max(1.0, delta("received"));
    const double completed = delta("completed"), failed = delta("failed");
    useful = completed / std::max(1.0, completed + failed);
    const double hits = delta("degree_hits") + delta("count_hits");
    lookups = hits + delta("degree_misses") + delta("count_misses");
    hit_rate = lookups > 0 ? hits / lookups : 0.0;
  }
  out->push_back({"server.shed", shed, "count"});
  out->push_back({"server.deadline", deadline, "count"});
  out->push_back({"server.coalesced_share", coalesced, "1"});
  out->push_back({"server.useful_share", useful, "1"});
  out->push_back({"oracle.cache_hit_rate", hit_rate, "1"});
  out->push_back({"oracle.cache_lookups", lookups, "count"});
  out->push_back({"loadgen.lag_p90_ms", Percentile(lag_ms, 0.9), "ms"});
}

// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds ||
      args.seconds <= 0 || args.workdir.empty()) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--server PATH --workdir DIR");
  }
  return args;
}

struct Inputs {
  std::map<std::string, size_t> text_bytes;
  std::mt19937_64 rng;
};

Inputs MakeInputs(const Workload& w, const Args& args) {
  Inputs in{{}, std::mt19937_64(SplitMix(args.seed ^ 0x7472616365ULL))};
  for (size_t i = 0; i < w.graphs.size(); ++i) {
    const GraphSpec& spec = w.graphs[i];
    in.text_bytes[spec.name] = WriteGraph(
        spec, SplitMix(args.seed * 31 + i),
        args.workdir + "/" + spec.name + ".txt");
  }
  return in;
}

/// Storage metrics: one LoadGraphFile per graph, timed (serve: the bench's
/// own load of the served file; batch: from the set-up spans).
void StorageMetrics(const std::map<std::string, dsd::Graph>& graphs,
                    const std::map<std::string, size_t>& text_bytes,
                    double ingest_ms, std::vector<Metric>* out) {
  double bytes = 0, graph_bytes = 0;
  for (const auto& [name, size] : text_bytes) bytes += static_cast<double>(size);
  for (const auto& [name, graph] : graphs) {
    graph_bytes += static_cast<double>(graph.MemoryFootprintBytes());
  }
  out->push_back({"storage.ingest_ms", ingest_ms, "ms"});
  out->push_back({"storage.ingest_mb_per_s", bytes / 1e6 / (ingest_ms / 1e3),
                  "MB/s"});
  out->push_back({"storage.graph_mb", graph_bytes / 1e6, "MB"});
}

double SpanMs(const Tracer& tracer, const std::string& name) {
  double total = 0;
  for (const Span& s : tracer.Snapshot()) {
    if (s.name == name) total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return total;
}

int Main(int argc, char** argv) {
  // A server that dies mid-run must surface as a failed write, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  const Args args = ParseArgs(argc, argv);
  const std::vector<Workload> all = Workloads();
  auto found = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (found == all.end()) Die("unknown workload " + args.workload);
  const Workload& w = *found;

  Inputs inputs = MakeInputs(w, args);
  StealSampler steal;
  Tracer off(false);
  Tracer tracer(args.trace);
  std::vector<Metric> layer;
  Measured untraced, traced;
  std::vector<double> setups;
  std::map<std::string, dsd::Graph> graphs;

  if (!w.serve) {
    BatchState state;
    // Two timed set-ups before every even pass, the second one's graphs
    // kept, so setup_s samples the host over the whole run, as the pass
    // times do. Only the first is traced, so the spans hold one load per
    // graph.
    std::vector<TimedRun> setup_runs;
    auto reload = [&] {
      for (int i = 0; i < 2; ++i) {
        const auto start = Clock::now();
        const double seconds = BatchSetup(
            w, args.workdir, setup_runs.empty() ? tracer : off, &state);
        setup_runs.push_back({steal.Share(start, Clock::now()), seconds});
      }
    };
    const int passes = BatchPasses(w, args.seconds);
    auto measure = [&](Tracer& t) {
      Measured m;
      const auto start = Clock::now();
      // A traced run measures twice and probes, so it adds no passes.
      m.ops = RunBatch(w, state, passes, (args.trace ? 1 : 2) * args.seconds,
                       steal, t, reload, &m.peak_mb);
      m.offered_s = SecondsBetween(start, Clock::now());
      m.steal_share = steal.Share(start, Clock::now());
      return m;
    };
    untraced = measure(off);
    if (args.trace) traced = measure(tracer);
    setups = KeepQuiet(setup_runs, (setup_runs.size() + 1) / 2);
    graphs = std::move(state.graphs);
  } else {
    const std::string file = args.workdir + "/" + w.graphs.front().name + ".txt";
    const uint32_t n = w.graphs.front().n;
    const std::vector<VertexId> warm0 = FreshSeeds(inputs.rng, n);
    const std::vector<VertexId> warm1 = FreshSeeds(inputs.rng, n);
    std::vector<Op> warm_ops;
    std::unique_ptr<ServerProcess> server;
    std::unique_ptr<LoadGenerator> load;
    setups = QuietRepeats(kServeSetups, steal, [&] {
      if (server) {
        load.reset();
        server->Stop();
      }
      const auto start = Clock::now();
      server = std::make_unique<ServerProcess>(args.server, file);
      load = std::make_unique<LoadGenerator>(server->port(), kThreads);
      std::vector<Op> warm = WarmupOps(w, warm0, warm1);
      load->RunInTurn(w, warm);
      const double seconds = SecondsBetween(start, Clock::now());
      for (Op& op : warm) warm_ops.push_back(std::move(op));
      return seconds;
    });
    auto measure = [&](Tracer& t) {
      Measured m;
      m.ops = ServeTrace(w, args.seconds, n, inputs.rng);
      m.stats_before = load->Stats();
      const auto start = Clock::now();
      {
        ScopedSpan phase(t, "load");
        m.offered_s = load->Run(w, m.ops, steal, t, phase.id());
      }
      m.steal_share = steal.Share(start, Clock::now());
      m.stats_after = load->Stats();
      m.peak_mb = server->PeakRss();
      return m;
    };
    untraced = measure(off);
    if (args.trace) traced = measure(tracer);
    load.reset();
    server->Stop();
    server.reset();

    // Served answers are checked against direct solves on the same file.
    auto graph = [&] {
      ScopedSpan span(tracer, "storage.load");
      return dsd::storage::LoadGraphFile(file);
    }();
    if (!graph.ok()) Die("load: " + graph.status().ToString());
    graphs.emplace(w.graphs.front().name, std::move(graph).value());
    std::vector<Op*> check;
    for (Op& op : warm_ops) check.push_back(&op);
    for (Op& op : untraced.ops) check.push_back(&op);
    for (Op& op : traced.ops) check.push_back(&op);
    Verify(w, graphs, check);
    for (Op& op : warm_ops) {
      if (op.outcome != Outcome::kOk) {
        std::fprintf(stderr, "perfbench: warm-up request failed\n");
        untraced.ops.push_back(op);  // counted as a failed operation
      }
    }
  }
  if (!w.serve) {
    std::vector<Op*> check;
    for (Op& op : untraced.ops) check.push_back(&op);
    for (Op& op : traced.ops) check.push_back(&op);
    Verify(w, graphs, check);
  }

  const double setup_s = Median(setups);
  const EndToEnd e2e =
      EndToEndMetrics(w, untraced, setup_s);
  std::vector<Op> every_op = untraced.ops;
  every_op.insert(every_op.end(), traced.ops.begin(), traced.ops.end());
  const Counts counts = CountOutcomes(every_op);
  std::vector<Metric> metrics = e2e.metrics;
  std::string traced_detail = "null";
  if (args.trace) {
    const EndToEnd e2e_traced =
        EndToEndMetrics(w, traced, setup_s);
    std::ostringstream beside;
    beside << "{";
    for (size_t i = 0; i < e2e.metrics.size(); ++i) {
      beside << (i ? ", " : "") << "\"" << e2e.metrics[i].name
             << "\": {\"untraced\": " << e2e.metrics[i].value
             << ", \"traced\": " << e2e_traced.metrics[i].value << "}";
    }
    beside << "}";
    traced_detail = beside.str();

    // The headline time of each transport: pass time for batch, p50 for
    // serve.
    const std::string headline = w.serve ? "latency_p50_ms" : "solve_s";
    const double before = MetricValue(e2e.metrics, headline);
    const double after = MetricValue(e2e_traced.metrics, headline);

    StorageMetrics(graphs, inputs.text_bytes, SpanMs(tracer, "storage.load"),
                   &layer);
    ServerMetrics(traced, &layer);
    ProbeSolves(w, graphs, tracer, &layer);
    ProbeMotifs(w, graphs, tracer, &layer);
    layer.push_back({"trace.overhead_pct", 100.0 * (after - before) / before, "%"});
    const std::string path = args.workdir + "/trace-" + w.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.WriteJson(path)) Die("cannot write " + path);
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
    metrics = layer;
  }

  const bool correct = counts.wrong == 0 && counts.error == 0;
  std::ostringstream record;
  record << "{\"record\": {\"workload\": \"" << w.name
         << "\", \"seed\": " << args.seed << ", \"trace\": " << args.trace
         << ", \"setup_runs_s\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    record << (i ? ", " : "") << setups[i];
  }
  record << "], \"end_to_end\": {";
  for (size_t i = 0; i < e2e.metrics.size(); ++i) {
    record << (i ? ", " : "") << "\"" << e2e.metrics[i].name
           << "\": " << e2e.metrics[i].value;
  }
  // Traced runs: each layer's self time (span minus its children).
  record << "}, \"layer_self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : tracer.SelfMsByName()) {
    record << (first ? "" : ", ") << "\"" << name << "\": " << ms;
    first = false;
  }
  record << "}, \"counts\": " << e2e.detail
         << ", \"traced_beside_untraced\": " << traced_detail << "}}\n";
  std::fputs(record.str().c_str(), stdout);
  // A wrong answer fails the run through `correct`, not the exit code.
  PrintResult(correct, counts, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
