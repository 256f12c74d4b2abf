// Figure 4: FID vs. SLO-violation-ratio trade-off on static (constant
// rate) traces at low / medium / high load, Cascade 1 on 16 workers.
// Dynamic approaches (Proteus, DiffServe) are swept over the
// over-provisioning factor to trace their curves; Clipper-Light/Heavy are
// single points. Expected shape: DiffServe's curve sits lower-left
// (Pareto-optimal) at every load.
#include "bench_common.hpp"

using namespace diffserve;

int main() {
  const auto env = bench::make_env(3000);

  const double loads[] = {8.0, 16.0, 24.0};  // low / medium / high QPS
  const char* load_names[] = {"low", "medium", "high"};
  const double over_provision_sweep[] = {0.85, 0.95, 1.05, 1.2, 1.4};

  bench::ReportTable table(
      "fig04_static",
      {"load", "approach", "over_provision", "violation_ratio", "fid"},
      {8, 20, 16, 16, 8});

  for (int li = 0; li < 3; ++li) {
    bench::banner("Figure 4",
                  (std::string(load_names[li]) + " load, " +
                   std::to_string(loads[li]) + " QPS")
                      .c_str());
    core::RunConfig rc;
    rc.total_workers = 16;
    rc.trace = trace::RateTrace::constant(loads[li], 180.0);

    for (const auto approach :
         {core::Approach::kClipperLight, core::Approach::kClipperHeavy}) {
      rc.approach = approach;
      const auto r = run_experiment(env, rc);
      table.row(std::vector<std::string>{
          load_names[li], core::to_string(approach), "-",
          bench::ReportTable::fmt(r.violation_ratio),
          bench::ReportTable::fmt(r.overall_fid)});
    }
    for (const auto approach :
         {core::Approach::kProteus, core::Approach::kDiffServe}) {
      for (const double lambda : over_provision_sweep) {
        rc.approach = approach;
        rc.controller.over_provision = lambda;
        const auto r = run_experiment(env, rc);
        table.row(std::vector<std::string>{
            load_names[li], core::to_string(approach),
            bench::ReportTable::fmt(lambda),
            bench::ReportTable::fmt(r.violation_ratio),
            bench::ReportTable::fmt(r.overall_fid)});
      }
      rc.controller.over_provision = 1.05;
    }
  }
  return 0;
}
