// Figure 10: the FID / SLO-violation frontier across cascade depth.
//
// Sweeps chain depth 1-3 over the same demand levels on 16 workers:
//   depth 1 — solo SDv1.5 (no cascading; every query pays the heavy cost),
//   depth 2 — Cascade 1 (SD-Turbo -> SDv1.5, the paper's system),
//   depth 3 — chain3 (SDXS -> SD-Turbo -> SDv1.5, per-boundary
//              discriminators).
// Expected shape: at low demand the depths converge (everything can defer
// deep); as demand rises the deeper chains hold the violation ratio down
// by absorbing easy queries at the cheap stages, while the solo deployment
// falls off a cliff once SDv1.5 saturates.
#include "bench_common.hpp"

using namespace diffserve;

int main() {
  struct Depth {
    int depth;
    const char* cascade;
  };
  const Depth depths[] = {
      {1, models::catalog::kSoloHeavy},
      {2, models::catalog::kCascade1},
      {3, models::catalog::kChain3},
  };
  const double demands[] = {4.0, 8.0, 16.0, 24.0};

  bench::banner("Figure 10", "cascade depth sweep, 16 GPUs, SLO 5 s");
  bench::ReportTable table(
      "fig10_cascade_depth",
      {"depth", "demand_qps", "fid", "violation_ratio", "stage0_pct",
       "stage1_pct", "stage2_pct", "mean_solve_ms"},
      {6, 12, 8, 16, 12, 12, 12, 14});

  for (const auto& d : depths) {
    const auto env = bench::make_env(3000, d.cascade);
    for (const double qps : demands) {
      core::RunConfig rc;
      rc.approach = core::Approach::kDiffServe;
      rc.total_workers = 16;
      rc.slo_seconds = 5.0;
      rc.trace = trace::RateTrace::constant(qps, 120.0);
      const auto r = run_experiment(env, rc);
      std::vector<std::string> cells = {
          std::to_string(d.depth), bench::ReportTable::fmt(qps),
          bench::ReportTable::fmt(r.overall_fid),
          bench::ReportTable::fmt(r.violation_ratio)};
      for (std::size_t s = 0; s < 3; ++s)
        cells.push_back(
            s < r.stage_served_fraction.size()
                ? bench::ReportTable::fmt(100.0 * r.stage_served_fraction[s])
                : "-");
      cells.push_back(bench::ReportTable::fmt(r.mean_solve_ms()));
      table.row(cells);
    }
  }
  return 0;
}
