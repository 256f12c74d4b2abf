// Figure 1b: CDFs of the per-query quality difference between the
// lightweight and heavyweight model — PickScore difference (top panels)
// and discriminator confidence difference (bottom panels) for the
// SD-Turbo/SDv1.5 and SDXS/SDv1.5 pairs. Expected shape: 20-40% of the
// mass lies at or below zero ("easy" queries where light >= heavy).
#include <algorithm>

#include "bench_common.hpp"
#include "core/environment.hpp"

using namespace diffserve;

namespace {

void run_pair(const char* label, const std::string& cascade,
              const std::string& csv_name) {
  core::EnvironmentConfig ec;
  ec.cascade = cascade;
  ec.workload_queries = 5000;
  core::CascadeEnvironment env(ec);
  const auto& w = env.workload();

  std::vector<double> pick_diff, conf_diff;
  const int light = env.stage_tier(0);
  const int heavy = env.stage_tier(env.stage_count() - 1);
  std::size_t easy = 0;
  for (quality::QueryId q = 0; q < w.size(); ++q) {
    // Negative = light better (paper's x-axis convention is
    // heavy-minus-light for PickScore; we report light-minus-heavy and
    // count the "light at least as good" mass explicitly).
    pick_diff.push_back(w.pickscore(q, heavy) - w.pickscore(q, light));
    conf_diff.push_back(
        env.disc(0).confidence(w.generated_feature(q, heavy)) -
        env.disc(0).confidence(w.generated_feature(q, light)));
    if (w.true_error(q, light) <= w.true_error(q, heavy)) ++easy;
  }
  std::sort(pick_diff.begin(), pick_diff.end());
  std::sort(conf_diff.begin(), conf_diff.end());

  bench::banner("Figure 1b", label);
  std::printf("true easy-query fraction (light >= heavy): %.3f\n",
              static_cast<double>(easy) / static_cast<double>(w.size()));
  auto mass_below_zero = [](const std::vector<double>& v) {
    const auto it = std::upper_bound(v.begin(), v.end(), 0.0);
    return static_cast<double>(it - v.begin()) /
           static_cast<double>(v.size());
  };
  std::printf("P(pickscore diff <= 0)  = %.3f\n", mass_below_zero(pick_diff));
  std::printf("P(confidence diff <= 0) = %.3f\n", mass_below_zero(conf_diff));

  util::CsvWriter csv(bench::csv_path(csv_name),
                      {"cdf", "pickscore_diff", "confidence_diff"});
  std::printf("%-6s %-16s %-16s\n", "cdf", "pick_diff", "conf_diff");
  for (int pct = 0; pct <= 100; pct += 5) {
    const auto idx = std::min<std::size_t>(
        pick_diff.size() - 1, pick_diff.size() * static_cast<std::size_t>(pct) / 100);
    csv.add_row(std::vector<double>{pct / 100.0, pick_diff[idx],
                                    conf_diff[idx]});
    if (pct % 20 == 0)
      std::printf("%-6.2f %-16.3f %-16.3f\n", pct / 100.0, pick_diff[idx],
                  conf_diff[idx]);
  }
  std::printf("[csv] %s\n", bench::csv_path(csv_name).c_str());
}

}  // namespace

int main() {
  run_pair("H: SDv1.5, L: SD-Turbo", models::catalog::kCascade1,
           "fig01b_sdturbo");
  run_pair("H: SDv1.5, L: SDXS", models::catalog::kCascade2, "fig01b_sdxs");
  return 0;
}
