// Figure 5: timeline comparison on the real-world (Azure-Functions-like)
// trace, Cascade 1, 16 workers, SLO 5 s: demand, FID-over-time, and
// SLO-violation-ratio-over-time for all five approaches. Expected shape:
// DiffServe holds the best quality off-peak and low violations at peak;
// Clipper-Heavy violates massively at peak; DiffServe-Static violates at
// peak because its fixed threshold cannot back off.
#include "bench_common.hpp"

using namespace diffserve;

int main() {
  const auto env = bench::make_env(5000);

  // The artifact's trace_4to32qps family for 16 workers.
  const auto tr = trace::RateTrace::azure_like(4.0, 32.0, 360.0, 3);
  tr.save(bench::results_dir() + "/trace_4to32qps.txt");

  util::CsvWriter timeline_csv(bench::csv_path("fig05_timeline"),
                               {"approach", "time", "demand_qps", "fid",
                                "violation_ratio", "threshold"});

  bench::banner("Figure 5", "Azure-like trace 4->32 QPS, Cascade 1, 16 GPUs");
  bench::ReportTable table("fig05_summary", bench::summary_columns());
  for (const auto approach : core::comparison_approaches()) {
    core::RunConfig rc;
    rc.approach = approach;
    rc.total_workers = 16;
    rc.trace = tr;
    const auto r = run_experiment(env, rc);
    table.row(bench::summary_cells(approach, r));
    bench::add_timeline_rows(timeline_csv, approach, r, tr);
  }
  std::printf("[csv] %s\n", bench::csv_path("fig05_timeline").c_str());
  return 0;
}
