// Parallel h-clique counting (Section 6.3's parallelizability claim).
//
// The kClist DAG partitions clique instances by their degeneracy-minimal
// root vertex, so per-root enumeration parallelises embarrassingly; each
// worker accumulates into a private degree array, reduced at the end.
#ifndef DSD_PARALLEL_PARALLEL_CLIQUE_H_
#define DSD_PARALLEL_PARALLEL_CLIQUE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace dsd {

/// Parallel mu(G, Psi) for Psi = h-clique. threads = 0 means "auto"
/// (hardware concurrency); the count is additionally clamped by the vertex
/// count so tiny graphs never wake idle workers. Bit-identical to
/// CliqueEnumerator::Count() for every thread count.
uint64_t ParallelCliqueCount(const Graph& graph, int h, unsigned threads = 0);

/// Parallel clique-degrees (Definition 3). Identical to
/// CliqueEnumerator::Degrees(), computed on `threads` workers (same 0 =
/// "auto" and vertex-count clamping as ParallelCliqueCount).
std::vector<uint64_t> ParallelCliqueDegrees(const Graph& graph, int h,
                                            unsigned threads = 0);

}  // namespace dsd

#endif  // DSD_PARALLEL_PARALLEL_CLIQUE_H_
