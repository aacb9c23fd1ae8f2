// Figure 10: ablation of CoreExact's pruning criteria on As-733 and
// Ca-HepTh. Variants P1 and P2 enable exactly one pruning rule; "All"
// enables both (the shipping CoreExact).
//
// Paper's claim to reproduce: every rule contributes; most of the savings
// come from Pruning1, with P2 adding non-trivial gains on Ca-HepTh. The
// paper's Pruning3 tightened the bisection's stop gap; CoreExact searches
// by Dinkelbach's iteration, which has no gap, so that column is gone.
#include <cstdio>

#include "dsd/core_exact.h"
#include "harness/datasets.h"
#include "harness/report.h"

namespace dsd::bench {
namespace {

CoreExactOptions OnlyPruning(int which) {
  CoreExactOptions options;
  options.pruning1 = which == 1;
  options.pruning2 = which == 2;
  return options;
}

void Run() {
  for (const DatasetSpec& spec : SmallDatasets()) {
    if (spec.name != "As-733" && spec.name != "Ca-HepTh") continue;
    Graph g = spec.make();
    Banner("Figure 10: pruning ablation, " + spec.name);
    Table table({"h-clique", "P1 only", "P2 only", "All"});
    for (int h = 2; h <= 6; ++h) {
      CliqueOracle oracle(h);
      std::vector<std::string> row = {oracle.Name()};
      double density_check = -1.0;
      for (int which : {1, 2}) {
        DensestResult r = CoreExact(g, oracle, OnlyPruning(which));
        row.push_back(FormatSeconds(r.stats.total_seconds));
        if (density_check < 0) density_check = r.density;
      }
      DensestResult all = CoreExact(g, oracle);
      row.push_back(FormatSeconds(all.stats.total_seconds));
      table.AddRow(std::move(row));
    }
    table.Print();
  }
}

}  // namespace
}  // namespace dsd::bench

int main() {
  std::printf("Figure 10: effect of pruning criteria in CoreExact\n");
  dsd::bench::Run();
  return 0;
}
