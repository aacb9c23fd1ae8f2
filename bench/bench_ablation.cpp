// Ablation benches for three of the library's design choices:
//  (a) min-cut engine: the production FlowNetwork vs the Dinic reference on
//      real DSD flow networks (exits 1 if their flow values disagree);
//  (b) appendix-D kernels: specialised star/4-cycle peeling vs the generic
//      embedding engine inside IncApp;
//  (c) construct+ grouping: grouped vs ungrouped pattern-network size and
//      solve time at a fixed alpha.
#include <cmath>
#include <cstdio>

#include "dsd/exact.h"
#include "dsd/flow_networks.h"
#include "dsd/inc_app.h"
#include "flow/flow_network.h"
#include "flow/max_flow.h"
#include "graph/generators.h"
#include "harness/datasets.h"
#include "harness/report.h"
#include "util/timer.h"

namespace dsd::bench {
namespace {

// (a) Solve the same EDS network with both max-flow engines. Returns false
// if any row's flow values disagree.
bool FlowBackendAblation() {
  Banner("Ablation (a): FlowNetwork vs Dinic on Goldberg EDS networks");
  Table table({"graph", "alpha", "Dinic", "FlowNetwork", "flows equal"});
  bool all_equal = true;
  for (const DatasetSpec& spec : SmallDatasets()) {
    Graph g = spec.make();
    const double m = static_cast<double>(g.NumEdges());
    const VertexId n = g.NumVertices();
    for (double alpha : {1.0, 4.0}) {
      MaxFlowNetwork dinic(n + 2);
      FlowNetwork engine(n + 2);
      for (VertexId v = 0; v < n; ++v) {
        double vt = m + 2 * alpha - static_cast<double>(g.Degree(v));
        dinic.AddArc(0, v + 1, m);
        dinic.AddArc(v + 1, n + 1, vt);
        engine.AddArc(0, v + 1, m);
        engine.AddArc(v + 1, n + 1, vt);
      }
      for (const Edge& e : g.Edges()) {
        dinic.AddArc(e.first + 1, e.second + 1, 1.0);
        dinic.AddArc(e.second + 1, e.first + 1, 1.0);
        engine.AddArc(e.first + 1, e.second + 1, 1.0);
        engine.AddArc(e.second + 1, e.first + 1, 1.0);
      }
      Timer dinic_timer;
      double dinic_flow = dinic.MaxFlow(0, n + 1);
      double dinic_seconds = dinic_timer.Seconds();
      Timer engine_timer;
      double engine_flow = engine.MaxFlow(0, n + 1);
      double engine_seconds = engine_timer.Seconds();
      const bool equal = std::abs(dinic_flow - engine_flow) < 1e-4;
      all_equal = all_equal && equal;
      table.AddRow({spec.name, FormatDouble(alpha, 1),
                    FormatSeconds(dinic_seconds),
                    FormatSeconds(engine_seconds), equal ? "yes" : "NO"});
    }
  }
  table.Print();
  return all_equal;
}

// (b) IncApp with and without the appendix-D peeling kernels.
void KernelAblation() {
  Banner("Ablation (b): appendix-D kernels vs generic engine (IncApp)");
  Graph g = gen::PowerLawWithCommunities(8000, 2, 10, 10, 0.85, 0xAB1);
  Table table({"pattern", "specialised", "generic", "speedup"});
  for (const Pattern& p :
       {Pattern::TwoStar(), Pattern::ThreeStar(), Pattern::Diamond()}) {
    PatternOracle fast(p, /*use_special_kernels=*/true);
    PatternOracle slow(p, /*use_special_kernels=*/false);
    DensestResult a = IncApp(g, fast);
    DensestResult b = IncApp(g, slow);
    table.AddRow({p.name(), FormatSeconds(a.stats.total_seconds),
                  FormatSeconds(b.stats.total_seconds),
                  FormatDouble(b.stats.total_seconds /
                                   std::max(a.stats.total_seconds, 1e-9),
                               1) +
                      "x"});
  }
  table.Print();
}

// (c) Grouped (construct+) vs ungrouped (PExact) network size/time.
void GroupingAblation() {
  Banner("Ablation (c): construct+ grouping vs per-instance nodes");
  Graph g = gen::ErdosRenyi(400, 0.05, 0xAB2);
  Table table({"pattern", "nodes grouped", "nodes ungrouped", "solve grouped",
               "solve ungrouped"});
  for (const Pattern& p : {Pattern::Diamond(), Pattern::TwoTriangle()}) {
    PatternOracle oracle(p);
    auto grouped = MakePatternFlowSolver(g, oracle, /*grouped=*/true);
    auto ungrouped = MakePatternFlowSolver(g, oracle, /*grouped=*/false);
    Timer grouped_timer;
    grouped->Solve(1.0);
    double grouped_seconds = grouped_timer.Seconds();
    Timer ungrouped_timer;
    ungrouped->Solve(1.0);
    double ungrouped_seconds = ungrouped_timer.Seconds();
    table.AddRow({p.name(), std::to_string(grouped->NumNodes()),
                  std::to_string(ungrouped->NumNodes()),
                  FormatSeconds(grouped_seconds),
                  FormatSeconds(ungrouped_seconds)});
  }
  table.Print();
}

}  // namespace
}  // namespace dsd::bench

int main() {
  std::printf(
      "Ablation benches: min-cut engine, appendix-D kernels, construct+ "
      "grouping\n");
  const bool flows_equal = dsd::bench::FlowBackendAblation();
  dsd::bench::KernelAblation();
  dsd::bench::GroupingAblation();
  if (!flows_equal) {
    std::fprintf(stderr, "FAIL: FlowNetwork and Dinic flow values differ\n");
    return 1;
  }
  return 0;
}
