// GraphRegistry: the resident data of a dsd_server process.
//
// The point of a long-lived service is paying graph load and oracle
// construction once: a ResidentGraph holds the immutable Graph plus one
// shared oracle per motif, built lazily on first use and handed (by
// shared_ptr) to every request that names the motif. Sharing is safe
// because oracles are const-thread-safe. The per-request ExecutionContext
// decides how many workers any one oracle call spends (that is how the
// executor's budget partitioning reaches the hot loops).
// Each resident graph also owns a DecompositionIndex: the first solve that
// completes a whole-graph (k, Psi)-core decomposition of a motif stores it,
// and every later peel / at-least / query / core-exact solve of that motif
// on the graph starts from the stored entry instead of peeling again. Peel
// and at-least answers, and query's whole-graph degrees, are read from the
// entry with no motif count; Graph::Generation() keys the index to the
// graph's content.
#ifndef DSD_SERVER_GRAPH_REGISTRY_H_
#define DSD_SERVER_GRAPH_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsd/motif_core.h"
#include "dsd/motif_oracle.h"
#include "graph/graph.h"
#include "util/status.h"

namespace dsd::server {

/// One graph held resident by the server, with its shared oracles.
class ResidentGraph {
 public:
  ResidentGraph(std::string name, Graph graph, unsigned hardware_threads);

  const std::string& name() const { return name_; }
  const Graph& graph() const { return graph_; }

  /// The shared oracle for `motif` (a MakeOracle name), built on first use
  /// with the resident hardware budget. Aliases share one oracle, keyed by
  /// its canonical Name(), so "triangle" and "3-clique" get the same one.
  /// NotFound/InvalidArgument for names the factory rejects.
  StatusOr<std::shared_ptr<const MotifOracle>> OracleFor(
      const std::string& motif);

  /// The graph's decomposition index, passed to every solve on it.
  DecompositionIndex& decompositions() { return decompositions_; }

 private:
  const std::string name_;
  const Graph graph_;
  const unsigned hardware_threads_;
  DecompositionIndex decompositions_;

  mutable std::mutex mutex_;
  // Keyed by canonical oracle name; `aliases_` maps every requested
  // spelling to that key so repeat lookups skip the factory.
  std::map<std::string, std::shared_ptr<const MotifOracle>> oracles_;
  std::map<std::string, std::string> aliases_;
};

/// Name -> resident graph map. Insertion and lookup are mutex-guarded;
/// Find hands back shared_ptrs, so a resident graph (and any solve running
/// on it) outlives even a concurrent registry mutation — today graphs are
/// only ever added, but the lifetime story should not depend on that.
class GraphRegistry {
 public:
  /// `hardware_threads` is the budget ResidentGraph builds oracles with
  /// (0 = hardware concurrency).
  explicit GraphRegistry(unsigned hardware_threads = 0);

  /// Takes ownership of `graph` under `name`. InvalidArgument for an empty
  /// or already-taken name.
  Status Add(std::string name, Graph graph);

  /// nullptr when unknown.
  std::shared_ptr<ResidentGraph> Find(const std::string& name) const;

  /// All resident names, sorted.
  std::vector<std::string> Names() const;

 private:
  const unsigned hardware_threads_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<ResidentGraph>> graphs_;
};

}  // namespace dsd::server

#endif  // DSD_SERVER_GRAPH_REGISTRY_H_
