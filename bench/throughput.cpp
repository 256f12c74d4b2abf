// Sustained serving throughput on both execution backends — the serving
// hot path itself, with the control plane held fixed (a static plan) so
// admission, routing, batching, deferral, and completion dominate.
//
// Part 1 (DES): N queries through a static-plan cascade1 engine on the
//   discrete-event simulator; reports wall-clock queries/sec and raw
//   simulator events/sec (the limit on how big a fleet the DES can
//   evaluate).
// Part 2 (threaded): the same plan over the threaded wall-clock backend at
//   a high time compression, flooded with N queries so the dispatch
//   machinery (timer delivery, executor wakeups, the engine guard), not
//   the modelled GPU latency, is the limiter; reports sustained
//   queries/sec.
//
// Part 3 (DES with records): the Part 1 trace again with per-query
//   records on, followed by the quality reports a run ends with
//   (overall_fid() and timeline(10.0), as core::run_experiment calls
//   them); reports des.record_qps and des.record_over_fast, its ratio to
//   the record-free (fast-mode) qps of the same trace in this process.
//
// Flags: --queries N (default 1e5), --smoke (enforce the CI floors and a
// reduced N), --record (keep per-query terminal records in Part 1 and 2,
// the invariant-suite mode; default off here — the engine equivalence
// suites keep it on).
//
// The --smoke floors default to values sized for the reference dev box but
// are overridable per machine, CLI taking precedence over environment:
//   --floor-des-qps X        / DIFFSERVE_THROUGHPUT_FLOOR_DES_QPS
//   --floor-des-events X     / DIFFSERVE_THROUGHPUT_FLOOR_DES_EVENTS
//   --floor-threaded-qps X   / DIFFSERVE_THROUGHPUT_FLOOR_THREADED_QPS
// (slow CI runners lower them; perf-tracking rigs raise them). The
// records-on ratio gate is an in-run ratio, so it needs no override.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "runtime/threaded_runtime.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"
#include "util/trace_clock.hpp"

namespace {

using namespace diffserve;

struct WallTimer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
};

// Light-heavy split sized so the light pool runs ~80% loaded at the DES
// trace rate; heavy batches of 1 keep the downstream reserve inside the
// SLO, and the threshold pins deferral near the heavy pool's capacity.
engine::AllocationPlan static_plan(const core::CascadeEnvironment& env) {
  auto p = engine::AllocationPlan::for_stages(2);
  p.workers = {12, 4};
  p.batches = {8, 1};
  p.thresholds = {env.offline_profile().threshold_for_fraction(0.02)};
  return p;
}

struct DesStats {
  double qps = 0.0;
  double events_per_sec = 0.0;
  std::size_t completed = 0;
  std::size_t dropped = 0;
  double fid = -1.0;  ///< overall FID when the quality reports ran
  std::size_t timeline_windows = 0;
};

/// One DES pass. With `quality_reports` (which needs `record`) the timed
/// span also covers the sink's end-of-run overall_fid() and timeline(10.0).
DesStats run_des(const core::CascadeEnvironment& env, std::size_t queries,
                 bool record, bool quality_reports = false) {
  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 16;
  cfg.slo_seconds = 5.0;
  cfg.record_terminal_events = record;
  serving::ServingSystem system(sim, env.workload(), env.repository(),
                                env.cascade(), env.discs(), env.scorer(), cfg);
  system.apply(static_plan(env));

  const double rate = 100.0;
  const double duration = static_cast<double>(queries) / rate;
  const auto tr = trace::RateTrace::constant(rate, duration);
  util::Rng rng(7);
  auto arrivals = trace::generate_arrivals(tr, rng);
  if (arrivals.size() > queries) arrivals.resize(queries);
  system.inject_arrivals(arrivals);

  WallTimer t;
  sim.run_until(duration + cfg.slo_seconds + 20.0);
  sim.run_all();
  DesStats s;
  if (quality_reports) {
    s.fid = system.sink().overall_fid();
    s.timeline_windows = system.sink().timeline(10.0).size();
  }
  const double wall = t.seconds();

  s.qps = static_cast<double>(arrivals.size()) / wall;
  s.events_per_sec = static_cast<double>(sim.executed()) / wall;
  s.completed = system.sink().completed();
  s.dropped = system.sink().dropped();
  return s;
}

struct ThreadedStats {
  double qps = 0.0;
  std::size_t completed = 0;
  std::size_t dropped = 0;
};

ThreadedStats run_threaded_flood(const core::CascadeEnvironment& env,
                                 std::size_t queries, double time_scale,
                                 bool record) {
  util::TraceClock clock(time_scale);
  runtime::ThreadedBackend backend(clock, 16, /*pin_executors=*/true);
  engine::EngineConfig ecfg;
  ecfg.total_workers = 16;
  // Flood mode measures dispatch throughput, not deadline behaviour: a
  // far-away SLO keeps batch formation from shedding the backlog.
  ecfg.slo_seconds = 1e9;
  ecfg.record_terminal_events = record;
  engine::CascadeEngine eng(backend, env.workload(), env.repository(),
                            env.cascade(), env.discs(), env.scorer(), ecfg);
  backend.start();
  eng.apply(static_plan(env));

  WallTimer t;
  for (std::size_t i = 0; i < queries; ++i) eng.submit_next();
  for (;;) {
    {
      auto g = backend.guard();
      if (eng.sink().total() >= queries) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double wall = t.seconds();
  backend.stop();

  ThreadedStats s;
  s.qps = static_cast<double>(queries) / wall;
  s.completed = eng.sink().completed();
  s.dropped = eng.sink().dropped();
  return s;
}

/// Smoke-floor resolution: CLI flag > environment variable > default.
double resolve_floor(double cli_value, const char* env_var,
                     double fallback) {
  if (cli_value > 0.0) return cli_value;
  if (const char* s = std::getenv(env_var)) {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end != s && v > 0.0) return v;
    std::fprintf(stderr, "warning: ignoring unparseable %s='%s'\n", env_var,
                 s);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool record = false;
  std::size_t queries = 100'000;
  double floor_des_qps_cli = 0.0;
  double floor_des_events_cli = 0.0;
  double floor_threaded_qps_cli = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--record") == 0) record = true;
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc)
      queries = static_cast<std::size_t>(std::atoll(argv[++i]));
    if (std::strcmp(argv[i], "--floor-des-qps") == 0 && i + 1 < argc)
      floor_des_qps_cli = std::atof(argv[++i]);
    if (std::strcmp(argv[i], "--floor-des-events") == 0 && i + 1 < argc)
      floor_des_events_cli = std::atof(argv[++i]);
    if (std::strcmp(argv[i], "--floor-threaded-qps") == 0 && i + 1 < argc)
      floor_threaded_qps_cli = std::atof(argv[++i]);
  }
  if (smoke) queries = std::min<std::size_t>(queries, 50'000);
  const double floor_des_qps = resolve_floor(
      floor_des_qps_cli, "DIFFSERVE_THROUGHPUT_FLOOR_DES_QPS", 300'000.0);
  const double floor_des_events =
      resolve_floor(floor_des_events_cli,
                    "DIFFSERVE_THROUGHPUT_FLOOR_DES_EVENTS", 400'000.0);
  const double floor_threaded_qps =
      resolve_floor(floor_threaded_qps_cli,
                    "DIFFSERVE_THROUGHPUT_FLOOR_THREADED_QPS", 100'000.0);

  bench::banner("throughput", "sustained serving throughput, both backends");
  auto env = bench::make_env(1000);

  bench::ReportTable table("throughput",
                           {"backend", "qps", "events_per_sec", "completed",
                            "dropped"});

  const auto des = run_des(env, queries, record);
  table.row(std::vector<std::string>{
      "des", bench::ReportTable::fmt(des.qps),
      bench::ReportTable::fmt(des.events_per_sec),
      std::to_string(des.completed), std::to_string(des.dropped)});

  const auto thr = run_threaded_flood(env, queries, 10'000.0, record);
  table.row(std::vector<std::string>{
      "threaded", bench::ReportTable::fmt(thr.qps), "-",
      std::to_string(thr.completed), std::to_string(thr.dropped)});

  table.metric("des.queries", static_cast<double>(queries));

  // Records on, plus the end-of-run quality reports, over the fast-mode
  // qps of the same trace measured in this process.
  const auto fast = record ? run_des(env, queries, false) : des;
  const auto rec = run_des(env, queries, true, /*quality_reports=*/true);
  const double record_over_fast = rec.qps / fast.qps;
  std::printf("des with records + fid/timeline: %.0f qps (fid %.4f over "
              "%zu timeline windows), %.3f of fast mode (%.0f qps)\n",
              rec.qps, rec.fid, rec.timeline_windows, record_over_fast,
              fast.qps);
  table.metric("des.record_qps", rec.qps);
  table.metric("des.record_over_fast", record_over_fast);

  if (smoke) {
    // Default floors sit ~7x under the measured dev-box rates (DES ~2.2e6
    // qps / ~3.2e6 events/s, threaded ~5.8e5 qps) but well above the
    // pre-ring baseline (~1.7e5 / ~2.3e5 / ~1.0e5): a regression that
    // undoes the hot-path work trips them even on a slow CI runner. See
    // the header comment for the per-machine overrides.
    bool ok = true;
    if (des.qps < floor_des_qps) {
      std::printf("[smoke] FAIL des qps %.0f < %.0f\n", des.qps,
                  floor_des_qps);
      ok = false;
    }
    if (des.events_per_sec < floor_des_events) {
      std::printf("[smoke] FAIL des events/sec %.0f < %.0f\n",
                  des.events_per_sec, floor_des_events);
      ok = false;
    }
    if (thr.qps < floor_threaded_qps) {
      std::printf("[smoke] FAIL threaded qps %.0f < %.0f\n", thr.qps,
                  floor_threaded_qps);
      ok = false;
    }
    // Half the ratio measured when the quality reports became single
    // folds (0.27-0.34 over three smoke runs on a 4-core Xeon VM, gcc 12
    // Release; 0.15-0.25 before): the records-on path, reports included,
    // may not fall to half its speed relative to fast mode.
    constexpr double kMinRecordOverFast = 0.15;
    if (record_over_fast < kMinRecordOverFast) {
      std::printf("[smoke] FAIL des records-on / fast qps %.3f < %.3f\n",
                  record_over_fast, kMinRecordOverFast);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("[smoke] throughput floors hold\n");
  }
  return 0;
}
