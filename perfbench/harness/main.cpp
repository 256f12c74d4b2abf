// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --selftest
//
// Builds the shared cascade environment (set-up time is its own metric,
// sampled by a rebuild before every realization), runs one workload for
// S seconds of wall time, checks the outputs, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 they are the per-layer
// ledger, and the recorded spans are written to DIR. Workloads, metrics,
// and the layer each one should move are described in perfbench/NOTES.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/environment.hpp"
#include "discriminator/deferral_profile.hpp"
#include "ledger.hpp"
#include "util/log.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
bool run_selftests(bool verbose);
}

namespace {

using namespace perfbench;

/// Traced runs time the set-up stages this many times each.
constexpr int kStageRepeats = 5;

const char* const kWorkloads[] = {"paper_azure_milp", "des_steady",
                                  "cluster_tcp_zipf"};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_fingerprint(const Options& opt) {
  std::printf(
      "fingerprint: {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %.17g, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0);
}

/// Times the three stages of an environment build separately, through
/// their public entry points (traced runs).
void time_setup_stages(Setup& setup) {
  const core::CascadeEnvironment& env = setup.env();
  const auto& cfg = env.config();
  std::vector<double> workload_ms, train_ms, profile_ms;
  for (int i = 0; i < kStageRepeats; ++i) {
    const double t0 = wall_seconds();
    quality::Workload workload(cfg.workload_queries, cfg.quality);
    quality::FidScorer scorer(workload);
    const double t1 = wall_seconds();
    const auto disc = discriminator::train_discriminator(
        workload, env.stage_tier(0), env.stage_tier(1), cfg.discriminator);
    const double t2 = wall_seconds();
    const auto profile = discriminator::DeferralProfile::profile(
        workload, disc, env.stage_tier(0), cfg.profile_queries);
    const double t3 = wall_seconds();
    workload_ms.push_back((t1 - t0) * 1e3);
    train_ms.push_back((t2 - t1) * 1e3);
    profile_ms.push_back((t3 - t2) * 1e3);
    keep(profile.fraction_deferred(0.5));
  }
  setup.layers["setup.workload_ms"] = median(workload_ms);
  setup.layers["setup.disc_train_ms"] = median(train_ms);
  setup.layers["setup.profile_ms"] = median(profile_ms);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (selftest) return run_selftests(true) ? 0 : 1;
  if (!run_selftests(false)) {
    std::fprintf(stderr, "perfbench: statistics self-test failed\n");
    return 3;
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known || !(opt.seconds > 0.0)) return usage();

  util::set_log_level(util::LogLevel::kWarn);
  print_fingerprint(opt);
  std::printf("per-query records: on in every workload (MetricsSink fast "
              "mode cannot report FID)\n");

  // The first build; the workloads rebuild before every realization.
  Setup setup;
  setup.rebuild();
  if (opt.trace) time_setup_stages(setup);
  Report report = opt.workload == "cluster_tcp_zipf"
                      ? run_cluster_workload(opt, setup)
                      : run_des_workload(opt, setup);

  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".tsv";
    auto& rec = Recorder::instance();
    if (rec.write(path, {"workload " + opt.workload,
                         "seed " + std::to_string(opt.seed),
                         "last traced iteration; query = seq or -1"}))
      std::printf("spans: %zu kept, %zu over the per-thread cap, written to "
                  "%s\n",
                  rec.spans_kept(), rec.spans_dropped(), path.c_str());
    else
      std::printf("spans: could not write %s\n", path.c_str());
  }

  const auto& defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json;
  for (const auto& def : defs) {
    double v = 0.0;
    const auto it = report.metrics.find(def.name);
    if (it == report.metrics.end())
      report.fail(std::string("metric not measured: ") + def.name);
    else
      v = it->second;
    if (!std::isfinite(v)) {
      report.fail(std::string("non-finite metric: ") + def.name);
      v = 0.0;
    }
    std::printf("metric %-32s %.17g %s\n", def.name, v, def.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": "
                  "\"%s\"}",
                  json.empty() ? "" : ", ", def.name, v, def.unit);
    json += buf;
  }
  for (const auto& e : report.errors) std::printf("FAILED CHECK: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  return report.correct ? 0 : 1;
}
