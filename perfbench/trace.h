// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each public call it
// makes into the library and around each wire request; nothing inside the
// library is instrumented. Each span carries a name (the layer), start and
// end on the steady clock, the span that caused it, and a request id. Spans
// stay in memory until the run ends, when WriteJson dumps them together
// with each layer's self time: a span's duration minus the part of it that
// its child spans cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index of the causing span, -1 for a root
  uint64_t request = 0;  ///< request id shared by one request's spans
};

/// Thread-safe span store. A disabled tracer records nothing and hands out
/// id -1, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int64_t Begin(std::string name, int64_t parent = -1, uint64_t request = 0) {
    if (!enabled_) return -1;
    Span span{std::move(name), NowNs(), 0, parent, request};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Records a span whose interval was measured elsewhere (a wire request
  /// timed by the load generator's reader threads).
  void Record(Span span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Self time per span, in the order of Snapshot(): duration minus the
  /// union of the child intervals, each clipped to the parent.
  static std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        children[static_cast<size_t>(span.parent)].push_back(
            {span.start_ns, span.end_ns});
      }
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0, cursor = spans[i].start_ns;
      for (auto [start, end] : kids) {
        start = std::max(start, cursor);
        end = std::min(end, spans[i].end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
      self[i] = spans[i].end_ns - spans[i].start_ns - covered;
    }
    return self;
  }

  /// Self milliseconds summed per span name.
  std::map<std::string, double> SelfMsByName() const {
    const std::vector<Span> spans = Snapshot();
    const std::vector<int64_t> self = SelfTimes(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
      out[spans[i].name] += static_cast<double>(self[i]) / 1e6;
    }
    return out;
  }

  /// Writes every span plus the per-name self-time summary as JSON.
  bool WriteJson(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::vector<Span> spans = Snapshot();
    const std::vector<int64_t> self = SelfTimes(spans);
    std::fprintf(out, "{\"spans\": [\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu, "
                   "\"self_ns\": %lld}%s\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(self[i]),
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(out, "],\n\"self_ms\": {");
    bool first = true;
    for (const auto& [name, ms] : SelfMsByName()) {
      std::fprintf(out, "%s\"%s\": %.6f", first ? "" : ", ", name.c_str(), ms);
      first = false;
    }
    std::fprintf(out, "}}\n");
    return std::fclose(out) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int64_t parent = -1,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
