// Table 1: capability matrix of the compared approaches (allocation
// static/dynamic x query-aware), plus a measured one-line summary of each
// approach on a short dynamic trace to ground the table in behaviour.
#include "bench_common.hpp"

using namespace diffserve;

int main() {
  bench::banner("Table 1", "approach capability matrix");
  std::printf("%-20s %-12s %-12s\n", "Approach", "Allocation", "Query-aware");
  std::printf("%-20s %-12s %-12s\n", "Clipper-Light", "Static", "No");
  std::printf("%-20s %-12s %-12s\n", "Clipper-Heavy", "Static", "No");
  std::printf("%-20s %-12s %-12s\n", "Proteus", "Dynamic", "No");
  std::printf("%-20s %-12s %-12s\n", "DiffServe-Static", "Static", "Yes");
  std::printf("%-20s %-12s %-12s\n", "DiffServe", "Dynamic", "Yes");

  const auto env = bench::make_env(2000);
  const auto tr = trace::RateTrace::azure_like(4.0, 20.0, 150.0, 3);

  std::printf("\nmeasured on a 4->20 QPS trace (Cascade 1, 16 workers):\n");
  bench::ReportTable table("tab01_summary", bench::summary_columns());
  for (const auto approach : core::comparison_approaches()) {
    core::RunConfig rc;
    rc.approach = approach;
    rc.total_workers = 16;
    rc.trace = tr;
    const auto r = run_experiment(env, rc);
    table.row(bench::summary_cells(approach, r));
  }
  return 0;
}
