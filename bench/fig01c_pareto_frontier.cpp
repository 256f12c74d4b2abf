// Figure 1c: FID vs. serving throughput over the full configuration space
// (confidence threshold x batch sizes x worker placement on 10 GPUs) for
// the SD-Turbo + SDv1.5 cascade, with the Pareto frontier highlighted.
// ~9K configurations, matching the paper's sweep.
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "core/environment.hpp"
#include "core/offline_eval.hpp"
#include "discriminator/deferral_profile.hpp"

using namespace diffserve;

int main() {
  core::EnvironmentConfig ec;
  ec.workload_queries = 3000;
  core::CascadeEnvironment env(ec);
  const auto& repo = env.repository();
  const auto& cascade = env.cascade();
  const auto& light = repo.model(cascade.chain.front()).latency;
  const auto& heavy = repo.model(cascade.chain.back()).latency;
  const auto& disc = repo.model(cascade.boundary_discriminator(0)).latency;
  constexpr int kWorkers = 10;

  // FID depends only on the threshold (which queries are deferred);
  // precompute it per grid point from the discriminator sweep.
  const auto grid = env.offline_profile().grid(26);
  core::SweepOptions so;
  so.points = 26;
  so.eval_queries = 3000;
  const auto sweep =
      core::sweep_cascade(env, core::RoutingSignal::kDiscriminator, so);
  auto fid_for_fraction = [&](double f) {
    double best_fid = sweep.back().fid;
    double best_gap = 1e9;
    for (const auto& p : sweep) {
      const double gap = std::fabs(p.actual_deferral - f);
      if (gap < best_gap) {
        best_gap = gap;
        best_fid = p.fid;
      }
    }
    return best_fid;
  };

  util::CsvWriter csv(
      bench::csv_path("fig01c_pareto"),
      {"threshold", "fraction", "b1", "b2", "x1", "x2", "qps", "fid",
       "pareto"});

  struct Point {
    double qps, fid;
    double threshold;
    int b1, b2, x1;
  };
  std::vector<Point> points;
  for (const auto& g : grid) {
    const double fid = fid_for_fraction(g.fraction);
    for (const int b1 : light.batch_sizes()) {
      const double e1 = light.execution_latency(b1) +
                        disc.execution_latency(b1);
      const double t1 = b1 / e1;
      for (const int b2 : heavy.batch_sizes()) {
        const double t2 = heavy.throughput(b2);
        for (int x1 = 1; x1 < kWorkers; ++x1) {
          const int x2 = kWorkers - x1;
          // System throughput: light pool bounds total; heavy pool bounds
          // deferred fraction.
          double qps = x1 * t1;
          if (g.fraction > 1e-9)
            qps = std::min(qps, x2 * t2 / g.fraction);
          points.push_back({qps, fid, g.threshold, b1, b2, x1});
        }
      }
    }
  }

  // Pareto frontier: maximize qps, minimize fid -> minimize (-qps, fid).
  std::vector<std::pair<double, double>> for_front;
  for_front.reserve(points.size());
  for (const auto& p : points) for_front.push_back({-p.qps, p.fid});
  const auto front = core::pareto_front_min_min(for_front);
  std::vector<bool> is_front(points.size(), false);
  for (const auto idx : front) is_front[idx] = true;

  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    csv.add_row(std::vector<double>{p.threshold,
                                    0.0,  // fraction folded into fid lookup
                                    static_cast<double>(p.b1),
                                    static_cast<double>(p.b2),
                                    static_cast<double>(p.x1),
                                    static_cast<double>(kWorkers - p.x1),
                                    p.qps, p.fid,
                                    is_front[i] ? 1.0 : 0.0});
  }

  bench::banner("Figure 1c", "FID vs serving throughput, 10 GPUs, ~9K configs");
  std::printf("configurations evaluated: %zu\n", points.size());
  std::printf("Pareto frontier (throughput QPS -> FID):\n");
  std::printf("%-10s %-8s %-10s %-4s %-4s %-4s\n", "qps", "fid",
              "threshold", "b1", "b2", "x1");
  for (const auto idx : front) {
    const auto& p = points[idx];
    std::printf("%-10.2f %-8.2f %-10.3f %-4d %-4d %-4d\n", p.qps, p.fid,
                p.threshold, p.b1, p.b2, p.x1);
  }
  std::printf("[csv] %s\n", bench::csv_path("fig01c_pareto").c_str());
  return 0;
}
