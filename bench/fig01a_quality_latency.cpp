// Figure 1a: FID vs. average inference latency for independent model
// variants and for cascades routed by Random / PickScore / ClipScore /
// Discriminator, on the paper's two motivating pairs:
//   top:    H = SDv1.5, L = SD-Turbo   (Cascade 1)
//   bottom: H = SDv1.5, L = SDXS       (Cascade 2)
// Expected shape: Discriminator dominates Random; PickScore/ClipScore do
// no better (often worse) than Random; FID worsens again at the
// high-latency end (mixtures beat pure-heavy).
#include "bench_common.hpp"
#include "core/environment.hpp"
#include "core/offline_eval.hpp"

using namespace diffserve;

namespace {

void run_pair(const char* label, const std::string& cascade,
              const std::string& csv_name) {
  core::EnvironmentConfig ec;
  ec.cascade = cascade;
  ec.workload_queries = 5000;
  core::CascadeEnvironment env(ec);

  bench::banner("Figure 1a", label);

  // Independent model variant points (the orange scatter).
  const auto singles = core::single_model_points(
      env, {env.cascade().chain.front(), env.cascade().chain.back()});
  std::printf("%-14s %-10s %-10s %-8s\n", "series", "latency_s", "FID",
              "deferral");
  for (const auto& s : singles)
    std::printf("%-14s %-10.3f %-10.2f %-8s\n", s.model.c_str(),
                s.avg_latency_s, s.fid, "-");

  util::CsvWriter csv(bench::csv_path(csv_name),
                      {"series", "target_deferral", "actual_deferral",
                       "latency_s", "fid", "fid_std"});
  core::SweepOptions opts;
  opts.points = 21;
  opts.random_repeats = 20;  // paper repeats Random 20x
  for (const auto signal :
       {core::RoutingSignal::kRandom, core::RoutingSignal::kDiscriminator,
        core::RoutingSignal::kPickScore, core::RoutingSignal::kClipScore}) {
    const auto pts = core::sweep_cascade(env, signal, opts);
    for (const auto& p : pts) {
      csv.add_row(std::vector<std::string>{
          core::to_string(signal), util::CsvWriter::format(p.target_deferral),
          util::CsvWriter::format(p.actual_deferral),
          util::CsvWriter::format(p.avg_latency_s),
          util::CsvWriter::format(p.fid),
          util::CsvWriter::format(p.fid_std)});
    }
    // Print the curve at a coarse stride.
    for (std::size_t i = 0; i < pts.size(); i += 4)
      std::printf("%-14s %-10.3f %-10.2f %-8.2f%s\n",
                  core::to_string(signal), pts[i].avg_latency_s, pts[i].fid,
                  pts[i].actual_deferral,
                  signal == core::RoutingSignal::kRandom
                      ? (" (std " + std::to_string(pts[i].fid_std) + ")")
                            .c_str()
                      : "");
  }
  std::printf("[csv] %s\n", bench::csv_path(csv_name).c_str());
}

}  // namespace

int main() {
  run_pair("H: SDv1.5, L: SD-Turbo", models::catalog::kCascade1,
           "fig01a_sdturbo");
  run_pair("H: SDv1.5, L: SDXS", models::catalog::kCascade2,
           "fig01a_sdxs");
  return 0;
}
