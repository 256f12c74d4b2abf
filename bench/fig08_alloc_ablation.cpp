// Figure 8: ablation of the resource allocation algorithm on the dynamic
// trace — DiffServe vs. fixed ("static") threshold, AIMD batching, and the
// no-queuing-model heuristic. Expected shape: the static threshold loses
// quality off-peak, AIMD suffers markedly higher violations, and dropping
// the queuing model under-estimates delays.
#include "bench_common.hpp"

using namespace diffserve;

int main() {
  const auto env = bench::make_env(4000);
  const auto tr = trace::RateTrace::azure_like(4.0, 32.0, 360.0, 3);

  util::CsvWriter timeline_csv(bench::csv_path("fig08_ablation"),
                               {"approach", "time", "demand_qps", "fid",
                                "violation_ratio", "threshold"});

  bench::banner("Figure 8", "resource allocation ablation, Cascade 1");
  bench::ReportTable table("fig08_summary", bench::summary_columns());
  for (const auto approach :
       {core::Approach::kDiffServe, core::Approach::kAblationStaticThreshold,
        core::Approach::kAblationNoQueueModel,
        core::Approach::kAblationAimdBatching}) {
    core::RunConfig rc;
    rc.approach = approach;
    rc.total_workers = 16;
    rc.trace = tr;
    const auto r = run_experiment(env, rc);
    table.row(bench::summary_cells(approach, r));
    bench::add_timeline_rows(timeline_csv, approach, r, tr);
  }
  std::printf("[csv] %s\n", bench::csv_path("fig08_ablation").c_str());
  return 0;
}
