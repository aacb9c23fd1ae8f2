// Umbrella header: the library's public API in one include.
//
// The primary entry point is the unified request/response API of
// dsd/solver.h — describe the run declaratively, get back a response or a
// Status saying what was wrong (the library never exits or throws on a bad
// request):
//
//   #include "dsd/dsd.h"
//
//   dsd::Graph g = ...;                       // graph/ substrate
//   dsd::SolveRequest request;
//   request.algorithm = "core-exact";         // see SolverRegistry::Global()
//   request.motif = "triangle";               // see dsd::KnownMotifNames()
//   dsd::StatusOr<dsd::SolveResponse> r = dsd::Solve(g, request);
//   if (r.ok()) { /* r.value().result is the densest subgraph */ }
//
// Migration note: the per-algorithm free functions remain supported for
// callers that already hold a MotifOracle and want an algorithm's own
// options struct (CoreExactOptions ablation toggles, CoreAppOptions):
//
//   dsd::CliqueOracle triangle(3);            // CDS: h-clique density
//   auto exact  = dsd::CoreExact(g, triangle);
//   auto approx = dsd::CoreApp(g, triangle);
//   dsd::PatternOracle diamond(dsd::Pattern::Diamond());
//   auto pds    = dsd::CorePExact(g, diamond);  // PDS: pattern density
//
// New call sites should prefer dsd::Solve; an oracle-taking overload covers
// motifs the name vocabulary cannot express.
#ifndef DSD_DSD_DSD_H_
#define DSD_DSD_DSD_H_

#include "core/emcore.h"             // IWYU pragma: export
#include "core/kcore.h"              // IWYU pragma: export
#include "core/nucleus.h"            // IWYU pragma: export
#include "dsd/brute_force.h"         // IWYU pragma: export
#include "dsd/core_app.h"            // IWYU pragma: export
#include "dsd/core_exact.h"          // IWYU pragma: export
#include "dsd/exact.h"               // IWYU pragma: export
#include "dsd/execution_context.h"   // IWYU pragma: export
#include "dsd/extensions.h"          // IWYU pragma: export
#include "dsd/inc_app.h"             // IWYU pragma: export
#include "dsd/measure.h"             // IWYU pragma: export
#include "dsd/motif_core.h"          // IWYU pragma: export
#include "dsd/motif_oracle.h"        // IWYU pragma: export
#include "dsd/oracle_factory.h"      // IWYU pragma: export
#include "dsd/peel_app.h"            // IWYU pragma: export
#include "dsd/query_densest.h"       // IWYU pragma: export
#include "dsd/result.h"              // IWYU pragma: export
#include "dsd/solver.h"              // IWYU pragma: export
#include "graph/builder.h"           // IWYU pragma: export
#include "graph/connectivity.h"      // IWYU pragma: export
#include "graph/generators.h"        // IWYU pragma: export
#include "graph/graph.h"             // IWYU pragma: export
#include "graph/io.h"                // IWYU pragma: export
#include "graph/stats.h"             // IWYU pragma: export
#include "graph/subgraph.h"          // IWYU pragma: export
#include "pattern/pattern.h"         // IWYU pragma: export

#endif  // DSD_DSD_DSD_H_
