// dsd_server — the densest-subgraph daemon.
//
// Usage:
//   dsd_server --port N [--threads N] [--workers N] [--max-queue N]
//              [--preload name=preset[:seed]]... [--preload name=@file]...
//   dsd_server --stdin [--threads N] [--workers N] [--max-queue N]
//              [--preload ...]
//
// TCP mode binds 127.0.0.1:<port> (0 = ephemeral; the bound port is
// printed as "LISTENING <port>" on stdout so wrappers can scrape it) and
// serves concurrent connections until SIGTERM/SIGINT or a `shutdown`
// frame, then drains: in-flight solves finish and their responses are
// written before exit. --stdin serves the same protocol synchronously
// over stdin/stdout — the mode tests and CI pipe frames through.
//
// The wire protocol, admission-control, and budget-partitioning
// semantics live in src/server/ (see protocol.h and executor.h); this
// file is only flag parsing, preloading, and signal wiring.
//
// Exit codes: 0 clean shutdown, 1 environment failure (bind/IO), 2 bad
// usage or preload failure.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "graph/io.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/graph_store.h"

namespace {

using dsd::server::DsdServer;

// The SIGTERM/SIGINT target. StopTcp is async-signal-safe by contract
// (one shutdown(2) call); everything else waits for ServeTcp to notice.
DsdServer* g_server = nullptr;

void HandleSignal(int /*signal*/) {
  if (g_server != nullptr) g_server->StopTcp();
}

[[noreturn]] void Usage(const char* error) {
  std::FILE* out = error != nullptr ? stderr : stdout;
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      out,
      "usage: dsd_server (--port N | --stdin) [--threads N] [--workers N]\n"
      "                  [--max-queue N] [--preload NAME=PRESET[:SEED]]...\n"
      "                  [--preload NAME=@FILE]...\n"
      "  --port N       serve TCP on 127.0.0.1:N (0 = ephemeral, bound\n"
      "                 port printed as 'LISTENING <port>')\n"
      "  --stdin        serve the frame protocol over stdin/stdout\n"
      "  --threads N    hardware budget partitioned across in-flight\n"
      "                 solves (default: hardware concurrency)\n"
      "  --workers N    executor lanes (default: min(threads, 4))\n"
      "  --max-queue N  admission queue bound (default 64)\n"
      "  --preload      make a graph resident at startup; PRESET is one\n"
      "                 of ba-small, planted-clique, server-replay, or\n"
      "                 @FILE loads an edge list or .dsdg container\n"
      "                 (sniffed by magic)\n");
  std::exit(error == nullptr ? 0 : 2);
}

unsigned ParseUnsigned(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage((flag + " expects a non-negative integer, got '" + text + "'")
              .c_str());
  }
  const unsigned long value = std::strtoul(text.c_str(), nullptr, 10);
  if (value > 1u << 20) {
    Usage((flag + " value out of range: '" + text + "'").c_str());
  }
  return static_cast<unsigned>(value);
}

struct Preload {
  std::string name;
  std::string source;  // "preset", "preset:seed", or "@file"
};

Preload ParsePreload(const std::string& text) {
  const size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == text.size()) {
    Usage(("--preload expects NAME=PRESET[:SEED] or NAME=@FILE, got '" +
           text + "'")
              .c_str());
  }
  return {text.substr(0, eq), text.substr(eq + 1)};
}

int ApplyPreload(DsdServer& server, const Preload& preload) {
  dsd::StatusOr<dsd::Graph> graph = [&]() -> dsd::StatusOr<dsd::Graph> {
    if (!preload.source.empty() && preload.source[0] == '@') {
      // Sniffs .dsdg containers (mmap'ed zero-copy) vs edge-list text;
      // .dsdg payloads are verified once, as the `load` verb does.
      return dsd::storage::LoadGraphFile(preload.source.substr(1),
                                         {.verify = true});
    }
    const size_t colon = preload.source.find(':');
    if (colon == std::string::npos) {
      return dsd::server::BuildPresetGraph(preload.source, 0, false);
    }
    const std::string seed_text = preload.source.substr(colon + 1);
    const char* const last = seed_text.data() + seed_text.size();
    uint64_t seed = 0;
    // Rejects empty, non-digit and out-of-range (> UINT64_MAX) seeds.
    const auto [end, error] = std::from_chars(seed_text.data(), last, seed);
    if (error != std::errc() || end != last) {
      return dsd::Status::InvalidArgument("bad preset seed '" + seed_text +
                                          "'");
    }
    return dsd::server::BuildPresetGraph(preload.source.substr(0, colon),
                                         seed, true);
  }();
  if (!graph.ok()) {
    std::fprintf(stderr, "error: preload %s: %s\n", preload.name.c_str(),
                 graph.status().ToString().c_str());
    return 2;
  }
  const dsd::Status added =
      server.AddGraph(preload.name, std::move(graph).value());
  if (!added.ok()) {
    std::fprintf(stderr, "error: preload %s: %s\n", preload.name.c_str(),
                 added.ToString().c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool use_stdin = false;
  bool have_port = false;
  unsigned port = 0;
  dsd::server::ServerOptions options;
  std::vector<Preload> preloads;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        Usage((std::string(flag) + " expects a value").c_str());
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage(nullptr);
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--port") {
      port = ParseUnsigned(arg, next("--port"));
      if (port > 65535) Usage("--port must be <= 65535");
      have_port = true;
    } else if (arg == "--threads") {
      options.hardware_threads = ParseUnsigned(arg, next("--threads"));
    } else if (arg == "--workers") {
      options.workers = ParseUnsigned(arg, next("--workers"));
    } else if (arg == "--max-queue") {
      options.max_queue = ParseUnsigned(arg, next("--max-queue"));
    } else if (arg == "--preload") {
      preloads.push_back(ParsePreload(next("--preload")));
    } else {
      Usage(("unknown flag '" + arg + "'").c_str());
    }
  }
  if (use_stdin == have_port) {
    Usage("exactly one of --port or --stdin is required");
  }

  DsdServer server(options);
  for (const Preload& preload : preloads) {
    const int status = ApplyPreload(server, preload);
    if (status != 0) return status;
  }

  if (use_stdin) {
    const dsd::Status served = server.ServePipe(0, 1);
    server.Drain();
    if (!served.ok()) {
      std::fprintf(stderr, "error: %s\n", served.ToString().c_str());
      return 1;
    }
    return 0;
  }

  dsd::StatusOr<uint16_t> bound =
      server.ListenTcp(static_cast<uint16_t>(port));
  if (!bound.ok()) {
    std::fprintf(stderr, "error: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", static_cast<unsigned>(bound.value()));
  std::fflush(stdout);

  g_server = &server;
  struct sigaction action{};
  action.sa_handler = HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  server.ServeTcp();  // returns after the graceful drain
  g_server = nullptr;
  return 0;
}
