// Figure 6: average FID and SLO-violation ratio for Cascades 2 and 3
// across all five approaches, plus the §4.3 simulator-vs-testbed fidelity
// comparison. The five-approach comparison runs in the DES (like the
// paper's main numbers); DiffServe additionally runs through the threaded
// testbed runtime and the two results are diffed — reproducing the paper's
// "simulator closely matches the testbed" claim (0.56% FID, 1.1% SLO).
#include <cmath>

#include "bench_common.hpp"
#include "control/exhaustive_allocator.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "runtime/threaded_runtime.hpp"

using namespace diffserve;

namespace {

void run_cascade(const std::string& cascade, double min_qps, double max_qps,
                 util::CsvWriter& csv) {
  core::EnvironmentConfig ec;
  ec.cascade = cascade;
  ec.workload_queries = 3000;
  core::CascadeEnvironment env(ec);
  const auto tr = trace::RateTrace::azure_like(min_qps, max_qps, 240.0, 3);

  bench::banner("Figure 6", cascade.c_str());
  std::printf("%-18s %-10s %-14s\n", "approach", "avg_FID",
              "avg_violations");
  double diffserve_fid = 0.0, diffserve_viol = 0.0;
  for (const auto approach : core::comparison_approaches()) {
    core::RunConfig rc;
    rc.approach = approach;
    rc.total_workers = 16;
    rc.trace = tr;
    const auto r = run_experiment(env, rc);
    std::printf("%-18s %-10.2f %-14.3f\n", core::to_string(approach),
                r.overall_fid, r.violation_ratio);
    csv.add_row(std::vector<std::string>{
        cascade, core::to_string(approach), "simulator",
        util::CsvWriter::format(r.overall_fid),
        util::CsvWriter::format(r.violation_ratio)});
    if (approach == core::Approach::kDiffServe) {
      diffserve_fid = r.overall_fid;
      diffserve_viol = r.violation_ratio;
    }
  }

  // Testbed (threaded) replay of DiffServe with the same trace.
  control::ExhaustiveAllocator alloc;
  runtime::RuntimeConfig rt;
  rt.total_workers = 16;
  rt.time_scale = 40.0;
  const auto t = runtime::run_threaded(env, alloc, tr, rt);
  csv.add_row(std::vector<std::string>{
      cascade, "DiffServe", "testbed", util::CsvWriter::format(t.overall_fid),
      util::CsvWriter::format(t.violation_ratio)});
  std::printf("%-18s %-10.2f %-14.3f  (threaded testbed)\n", "DiffServe",
              t.overall_fid, t.violation_ratio);
  std::printf(
      "simulator-vs-testbed fidelity: FID diff %.2f%%, SLO-violation diff "
      "%.2f pp\n",
      100.0 * std::fabs(diffserve_fid - t.overall_fid) /
          std::max(diffserve_fid, 1e-9),
      100.0 * std::fabs(diffserve_viol - t.violation_ratio));
}

}  // namespace

int main() {
  util::CsvWriter csv(bench::csv_path("fig06_testbed"),
                      {"cascade", "approach", "platform", "avg_fid",
                       "avg_violation_ratio"});
  // Cascade 2 uses the 4->32 QPS trace; Cascade 3 (heavier, SLO 15 s) the
  // 1->8 QPS trace, exactly as the artifact prescribes for 16 workers.
  run_cascade(models::catalog::kCascade2, 4.0, 32.0, csv);
  run_cascade(models::catalog::kCascade3, 1.0, 8.0, csv);
  std::printf("[csv] %s\n", bench::csv_path("fig06_testbed").c_str());
  return 0;
}
