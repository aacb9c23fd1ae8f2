// OracleFactory / MakeOracle: the one place that turns a motif name and an
// execution policy into a ready-to-run MotifOracle.
//
// Mirrors the SolverRegistry design on the oracle side: a process-wide
// registry maps motif names to builders, pre-populated with the paper's
// vocabulary (h-cliques 2..9 with the edge/triangle aliases, and the named
// patterns), and embedders may register their own motifs under fresh names.
// The factory — not the caller — builds the oracle that serves a request
// (the built-in clique and pattern oracles run each query on its
// ctx.threads workers, so one class serves every thread budget). dsd::Solve
// routes every request through here, so execution policy set on a
// SolveRequest reaches the oracle without any call site knowing the
// concrete types.
#ifndef DSD_DSD_ORACLE_FACTORY_H_
#define DSD_DSD_ORACLE_FACTORY_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dsd/motif_oracle.h"
#include "util/status.h"

namespace dsd {

/// How the oracle for one run should execute.
struct OracleOptions {
  /// Resolved worker-thread budget. The built-in oracles ignore it: they
  /// read each query's ExecutionContext::threads instead. It is passed on
  /// to plugged-in builders, which may pick an implementation by it.
  unsigned threads = 1;

  /// Ignored: the memoizing decorator it once enabled is gone, because
  /// solves read instance counts and whole-graph degrees from the
  /// decomposition index. Kept only because the benchmark harness still
  /// sets it; it goes with the next benchmark change.
  bool cache = false;

  /// PatternOracle toggle: false forces the generic embedding engine even
  /// for stars and 4-cycles (the bench_ablation baseline).
  bool use_special_kernels = true;
};

/// Name -> oracle-builder registry. Global() comes pre-populated with the
/// paper's motif vocabulary; registration and lookup are mutex-guarded.
class OracleFactory {
 public:
  /// Builds the oracle for one registered name; builders pick the concrete
  /// implementation from the options.
  using Builder =
      std::function<std::unique_ptr<MotifOracle>(const OracleOptions&)>;

  /// The shared factory with the built-in motif vocabulary.
  static OracleFactory& Global();

  /// Registers `builder` under `name`; InvalidArgument if the name is
  /// empty or already taken.
  Status Register(std::string name, Builder builder);

  /// Builds the oracle for `name` with the registered builder. NotFound for
  /// unknown names; InvalidArgument for recognisable-but-malformed clique
  /// spellings ("03-clique", "12-clique") so diagnostics distinguish typos
  /// from unsupported sizes.
  StatusOr<std::unique_ptr<MotifOracle>> Make(
      const std::string& name, const OracleOptions& options = {}) const;

  /// All registered names, in registration (listing) order.
  std::vector<std::string> Names() const;

  OracleFactory() = default;
  OracleFactory(const OracleFactory&) = delete;
  OracleFactory& operator=(const OracleFactory&) = delete;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Builder>> builders_;
};

/// Convenience shell over OracleFactory::Global().Make(): the entry point
/// embedders and dsd::Solve use to obtain an oracle for a motif name.
StatusOr<std::unique_ptr<MotifOracle>> MakeOracle(
    const std::string& motif, const OracleOptions& options = {});

}  // namespace dsd

#endif  // DSD_DSD_ORACLE_FACTORY_H_
