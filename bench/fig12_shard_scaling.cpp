// Figure 12: sharded serving at equal total capacity — shard count x
// wire hop latency, DES topology (src/cluster over loopback links).
//
// Every configuration serves the same constant-rate trace with the same
// total worker count; only the partitioning changes. The bare engine row
// is the reference (the 1-shard cluster is decision-identical to it —
// tests/cluster_test.cpp holds that exactly), so any goodput gap is the
// cost of sharding itself: worker-apportionment rounding when the global
// §3.3 decision splits across shard budgets, consistent-hash load spread,
// and the modeled frame hop latency eating into each query's SLO budget.
//
// Expected shape: at zero hop latency sharding is close to free (the
// controller still solves one global allocation; only integer rounding
// of per-shard worker counts costs anything); goodput degrades gracefully
// as hop latency grows since every query pays two hops (submit +
// terminal) plus the control plane's stats/plan round trips.
//
//   --smoke   2- and 4-shard cells at zero hop vs the bare engine, with
//             the CI gate: sharded goodput >= 0.9x the bare engine's at
//             equal total workers.
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster_run.hpp"
#include "control/exhaustive_allocator.hpp"

using namespace diffserve;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const std::size_t workload = smoke ? 600 : 1200;
  const double duration = smoke ? 40.0 : 120.0;
  const double qps = 12.0;
  const int total_workers = 12;
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{2, 4} : std::vector<int>{1, 2, 4};
  const std::vector<double> hops =
      smoke ? std::vector<double>{0.0}
            : std::vector<double>{0.0, 0.005, 0.02};

  const auto env = bench::make_env(workload);
  const auto tr = trace::RateTrace::constant(qps, duration);

  bench::banner("Figure 12",
                "shard scaling: shards x hop latency, equal total workers");
  bench::ReportTable table(
      "fig12_shard_scaling",
      {"config", "shards", "hop_ms", "fid", "violation_ratio",
       "mean_latency", "goodput_qps", "plans_pushed"},
      {14, 8, 8, 8, 16, 14, 13, 14});

  // The reference: one engine holding all workers, no wire anywhere.
  core::RunConfig rc;
  rc.approach = core::Approach::kDiffServeExhaustive;
  rc.total_workers = total_workers;
  rc.trace = tr;
  rc.controller.initial_demand_guess = tr.qps_at(0.0);
  const auto bare = run_experiment(env, rc);
  const double bare_goodput = bare.goodput_qps;
  table.row(std::vector<std::string>{
      "bare_engine", "1", "0", bench::ReportTable::fmt(bare.overall_fid),
      bench::ReportTable::fmt(bare.violation_ratio),
      bench::ReportTable::fmt(bare.mean_latency),
      bench::ReportTable::fmt(bare_goodput),
      std::to_string(bare.plans_pushed())});

  control::ExhaustiveAllocator alloc;
  double worst_hop0_ratio = 1.0;
  for (const int shards : shard_counts) {
    for (const double hop : hops) {
      cluster::ClusterRunConfig cc;
      cc.shards = shards;
      cc.workers_per_shard = total_workers / shards;
      cc.hop_latency_seconds = hop;
      const auto r = run_cluster_des(env, alloc, tr, cc);

      char label[24];
      std::snprintf(label, sizeof(label), "s%d_hop%.0fms", shards,
                    1e3 * hop);
      table.row(std::vector<std::string>{
          label, std::to_string(shards), bench::ReportTable::fmt(1e3 * hop),
          bench::ReportTable::fmt(r.overall_fid),
          bench::ReportTable::fmt(r.violation_ratio),
          bench::ReportTable::fmt(r.mean_latency),
          bench::ReportTable::fmt(r.goodput_qps),
          std::to_string(r.plans_pushed())});
      if (hop == 0.0 && bare_goodput > 0.0)
        worst_hop0_ratio =
            std::min(worst_hop0_ratio, r.goodput_qps / bare_goodput);
    }
  }
  table.metric("scaling.bare_goodput_qps", bare_goodput);
  table.metric("scaling.worst_hop0_goodput_ratio", worst_hop0_ratio);

  std::printf("worst hop-0 sharded/bare goodput ratio: %.3f\n",
              worst_hop0_ratio);
  if (smoke && worst_hop0_ratio < 0.9) {
    std::fprintf(stderr,
                 "FAIL: sharded goodput %.3fx bare engine < 0.9x at equal "
                 "total workers, hop 0\n",
                 worst_hop0_ratio);
    return 1;
  }
  return 0;
}
