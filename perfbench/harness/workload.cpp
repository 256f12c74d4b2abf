#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <queue>
#include <unordered_map>

#include "ledger.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"wall_qps", "1/s"},
      {"cpu_ms_per_query", "ms"},
      {"goodput_qps", "1/s"},
      {"latency_mean_s", "s"},
      {"latency_tail_mean_s", "s"},
      {"fid", "fid"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup.workload_ms", "ms"},
      {"setup.disc_train_ms", "ms"},
      {"setup.profile_ms", "ms"},
      {"control.solves", "count"},
      {"control.solve_us_p50", "us"},
      {"control.solve_us_p99", "us"},
      {"control.reconfigurations", "count"},
      {"sim.events", "count"},
      {"sim.self_ns_per_event", "ns"},
      {"engine.submit_ns", "ns"},
      {"engine.callback_ns", "ns"},
      {"engine.apply_us", "us"},
      {"engine.mean_batch_size", "queries"},
      {"engine.deferral_ratio", "ratio"},
      {"engine.drop_ratio", "ratio"},
      {"engine.violation_ratio", "ratio"},
      {"sink.fid_ms", "ms"},
      {"sink.timeline_ms", "ms"},
      {"sink.percentile_ms", "ms"},
      {"disc.confidence_calls", "count"},
      {"disc.confidence_ns", "ns"},
      {"cache.lookups", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.exact_hit_ratio", "ratio"},
      {"cache.insertions", "count"},
      {"cache.evictions", "count"},
      {"cache.probed_cells_per_lookup", "cells"},
      {"cache.lookup_ns", "ns"},
      {"cache.insert_ns", "ns"},
      {"net.frames_per_query", "frames"},
      {"net.bytes_per_query", "bytes"},
      {"net.send_us_p50", "us"},
      {"net.send_us_p99", "us"},
      {"net.hop_us_p50", "us"},
      {"net.hop_us_p99", "us"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"net.decode_errors", "count"},
      {"cluster.route_ns", "ns"},
      {"cluster.hash_owner_ratio", "ratio"},
      {"cluster.shard_imbalance", "ratio"},
      {"cluster.latency_samples", "count"},
      {"cluster.latency_p50_s", "s"},
      {"cluster.latency_p99_s", "s"},
      {"runtime.guard_wait_us_p99", "us"},
      {"runtime.timer_late_us_p99", "us"},
      {"runtime.exec_late_us_p99", "us"},
      {"gen.late_us_p99", "us"},
      {"failed_ratio", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

Calibration calibrate(int rounds) {
  const double w0 = wall_seconds();
  const double c0 = cpu_seconds();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, popped = 0;
  double acc = 0.0;
  std::priority_queue<std::pair<double, std::uint32_t>> heap;
  std::unordered_map<std::uint32_t, double> counts;
  for (int round = 0; round < rounds; ++round) {
    for (std::uint32_t i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.emplace(static_cast<double>(x >> 11), i);
      counts[static_cast<std::uint32_t>(x) & 4095u] += 1.0;
    }
    while (!heap.empty()) {
      popped += heap.top().second;
      heap.pop();
    }
    for (const auto& kv : counts) acc += kv.second * 1.0000001;
  }
  keep(acc + static_cast<double>(popped));
  const double scale = static_cast<double>(kCalibrationRounds) / rounds;
  return {(wall_seconds() - w0) * scale, (cpu_seconds() - c0) * scale};
}

void Setup::rebuild() {
  const Calibration before = calibrate();
  env_.reset();
  const double t0 = wall_seconds();
  env_ = std::make_unique<core::CascadeEnvironment>();
  build_seconds.push_back(wall_seconds() - t0);
  const Calibration after = calibrate();
  // The host can change speed within a build; bracket it.
  calibrations.push_back({(before.wall + after.wall) / 2.0,
                          (before.cpu + after.cpu) / 2.0});
}

double Setup::calibrated_seconds() const {
  std::vector<double> scaled;
  for (std::size_t i = 0; i < build_seconds.size(); ++i)
    scaled.push_back(build_seconds[i] * kReferenceCalibrationSeconds /
                     calibrations[i].wall);
  return median(scaled);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void reset_peak_rss() {
  // Writing 5 to clear_refs resets the VmHWM high-water mark (Linux 4.0+).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_terminals(Iteration& it, TerminalLedger::Summary summary) {
  const auto& lat = summary.latencies;
  it.latency.samples = lat.size();
  it.latency.mean = tail_mean(lat, 0.0);
  it.latency.tail_mean = tail_mean(lat, kTailShare);
  it.latency.p50 = percentile(lat, 50.0);
  it.latency.p99 = percentile(lat, 99.0);
  summary.latencies = {};
  it.terminals = std::move(summary);
}

void check_iteration(const Iteration& it, Report& report,
                     const std::string& label) {
  const auto& t = it.terminals;
  report.attempted += t.sent;
  report.failed += t.failed();
  std::printf("%s: wall=%.4fs cpu=%.4fs sent=%llu completed=%llu "
              "dropped=%llu failed=%llu (lost=%llu duplicated=%llu "
              "unknown=%llu decode_errors=%llu)\n",
              label.c_str(), it.wall_seconds, it.cpu_seconds,
              static_cast<unsigned long long>(t.sent),
              static_cast<unsigned long long>(t.completed),
              static_cast<unsigned long long>(t.dropped),
              static_cast<unsigned long long>(t.failed()),
              static_cast<unsigned long long>(t.lost),
              static_cast<unsigned long long>(t.duplicated),
              static_cast<unsigned long long>(t.unknown),
              static_cast<unsigned long long>(t.decode_errors));
  const LatencyStats& lat = it.latency;
  std::printf("%s: latency n=%zu mean=%.6g tail%.0f%%_mean=%.6g p50=%.6g "
              "p99=%.6g s\n",
              label.c_str(), lat.samples, lat.mean, kTailShare * 100.0,
              lat.tail_mean, lat.p50, lat.p99);
  if (t.failed() > 0)
    report.fail(label + ": queries without exactly one terminal outcome");
  if (t.completed != it.sink_completed || t.dropped != it.sink_dropped)
    report.fail(label + ": terminal ledger disagrees with the metrics sink");
  if (!percentile_supported(lat.samples, 99.0))
    report.fail(label + ": too few completions to support a p99");
  if (!(it.fid > 0.0)) report.fail(label + ": no FID");
}

std::vector<std::uint64_t> realization_seeds(std::uint64_t seed,
                                             std::size_t count) {
  std::vector<std::uint64_t> out;
  for (std::size_t k = 0; k < count; ++k)
    out.push_back(seed * 1000003ULL + k);
  return out;
}

std::size_t realization_count(double seconds,
                              double seconds_per_realization) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::lround(seconds / seconds_per_realization)));
}

MetricMap end_to_end(const std::vector<Iteration>& its, const Setup& setup,
                     bool pooled_rates, bool scale_wall, bool scale_cpu) {
  std::vector<double> goodput, lat_mean, lat_tail, fid, rss;
  std::vector<double> cal_wall, cal_cpu, p50, p99, samples;
  for (const auto& it : its) {
    goodput.push_back(static_cast<double>(it.terminals.on_time) /
                      it.trace_seconds);
    lat_mean.push_back(it.latency.mean);
    lat_tail.push_back(it.latency.tail_mean);
    fid.push_back(it.fid);
    rss.push_back(it.peak_rss_mb);
    cal_wall.push_back(it.calibration.wall);
    cal_cpu.push_back(it.calibration.cpu);
    p50.push_back(it.latency.p50);
    p99.push_back(it.latency.p99);
    samples.push_back(static_cast<double>(it.latency.samples));
  }
  // wall_qps and cpu_ms_per_query from the realizations' seconds, as
  // measured or scaled to the reference host speed.
  struct Rates {
    double qps = 0.0, cpu_ms = 0.0;
    std::vector<double> qps_each, cpu_ms_each;
  };
  const auto rates = [&its, pooled_rates](bool wall_scaled,
                                          bool cpu_scaled) {
    Rates r;
    double sent = 0.0, wall = 0.0, cpu = 0.0;
    for (const auto& it : its) {
      const auto n = static_cast<double>(it.terminals.sent);
      const double w = wall_scaled ? it.wall_seconds *
                                         kReferenceCalibrationSeconds /
                                         it.calibration.wall
                                   : it.wall_seconds;
      const double c = cpu_scaled ? it.cpu_seconds *
                                        kReferenceCalibrationSeconds /
                                        it.calibration.cpu
                                  : it.cpu_seconds;
      sent += n;
      wall += w;
      cpu += c;
      r.qps_each.push_back(n / w);
      r.cpu_ms_each.push_back(c * 1e3 / n);
    }
    r.qps = pooled_rates ? sent / wall : median(r.qps_each);
    r.cpu_ms = pooled_rates ? cpu * 1e3 / sent : median(r.cpu_ms_each);
    return r;
  };
  const Rates raw = rates(false, false);
  const Rates reported = rates(scale_wall, scale_cpu);

  // Within-run noise, in the terms the run-to-run spread is judged by.
  const auto spread = [](const std::vector<double>& v) {
    const Quartiles q = quartiles(v);
    return q.q2 != 0.0 ? (q.q3 - q.q1) / q.q2 : 0.0;
  };
  std::printf("spread over %zu realizations (IQR/median): wall_qps %.4f "
              "cpu_ms_per_query %.4f goodput_qps %.4f latency_mean_s %.4f "
              "latency_tail_mean_s %.4f fid %.4f peak_rss_mb %.4f\n",
              its.size(), spread(reported.qps_each),
              spread(reported.cpu_ms_each), spread(goodput), spread(lat_mean),
              spread(lat_tail), spread(fid), spread(rss));
  std::printf("latency percentiles (median over realizations): p50 %.17g s "
              "p99 %.17g s, n=%.0f completions per realization\n",
              median(p50), median(p99), median(samples));
  std::printf("setup: %zu builds, raw median %.17g s\n",
              setup.build_seconds.size(), median(setup.build_seconds));
  if (scale_wall || scale_cpu)
    std::printf("host speed: calibration median %.6f s wall, %.6f s CPU "
                "(reference %.3f s); raw wall_qps %.17g, raw "
                "cpu_ms_per_query %.17g\n",
                median(cal_wall), median(cal_cpu),
                kReferenceCalibrationSeconds, raw.qps, raw.cpu_ms);
  MetricMap m;
  m["setup_s"] = setup.calibrated_seconds();
  m["wall_qps"] = reported.qps;
  m["cpu_ms_per_query"] = reported.cpu_ms;
  m["goodput_qps"] = median(goodput);
  m["latency_mean_s"] = median(lat_mean);
  m["latency_tail_mean_s"] = median(lat_tail);
  m["fid"] = median(fid);
  m["peak_rss_mb"] = median(rss);
  return m;
}

MetricMap per_layer(const std::vector<Iteration>& traced,
                    const std::vector<Iteration>& untraced,
                    const Setup& setup, bool cpu_cost) {
  MetricMap m;
  for (const auto& def : per_layer_metrics()) {
    std::vector<double> v;
    for (const auto& it : traced) {
      const auto f = it.layers.find(def.name);
      if (f != it.layers.end()) v.push_back(f->second);
    }
    m[def.name] = median(v);
  }
  for (const auto& [k, v] : setup.layers) m[k] = v;
  double sent = 0.0, failed = 0.0;
  for (const auto& it : traced) {
    sent += static_cast<double>(it.terminals.sent);
    failed += static_cast<double>(it.terminals.failed());
  }
  m["failed_ratio"] = sent > 0.0 ? failed / sent : 0.0;
  const auto cost_per_query = [cpu_cost](const Iteration* first,
                                        std::size_t n) {
    double cost = 0.0, queries = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cost += cpu_cost ? first[i].cpu_seconds : first[i].wall_seconds;
      queries += static_cast<double>(first[i].terminals.sent);
    }
    return cost / queries;
  };
  const double on = cost_per_query(traced.data(), untraced.size());
  const double off = cost_per_query(untraced.data(), untraced.size());
  m["trace.overhead_pct"] = (on / off - 1.0) * 100.0;
  return m;
}

namespace {

double mean_ns(SpanKind k, bool self) {
  const KindTotals t = Recorder::instance().totals(k);
  if (t.count == 0) return 0.0;
  return static_cast<double>(self ? t.self_ns : t.total_ns) /
         static_cast<double>(t.count);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void add_percentile(MetricMap& m, const std::string& name,
                    const std::vector<double>& v, double p) {
  const Percentile pc = supported_percentile(v, p);
  m[name] = pc.value;
  if (pc.clamped && !v.empty())
    std::printf("note: %s reports p%.1f (n=%zu cannot support p%.0f)\n",
                name.c_str(), pc.percentile, pc.samples, p);
}

}  // namespace

void add_span_layers(MetricMap& m) {
  auto& rec = Recorder::instance();
  m["engine.submit_ns"] = mean_ns(SpanKind::kEngineSubmit, true);
  m["engine.callback_ns"] = mean_ns(SpanKind::kEngineCallback, true);
  m["engine.apply_us"] = mean(rec.samples(SampleKind::kApplyUs));
  const auto solves = rec.samples(SampleKind::kSolveUs);
  m["control.solves"] = static_cast<double>(solves.size());
  add_percentile(m, "control.solve_us_p50", solves, 50.0);
  add_percentile(m, "control.solve_us_p99", solves, 99.0);
  m["sink.fid_ms"] = mean_ns(SpanKind::kSinkFid, false) / 1e6;
  m["sink.timeline_ms"] = mean_ns(SpanKind::kSinkTimeline, false) / 1e6;
  m["sink.percentile_ms"] =
      static_cast<double>(rec.totals(SpanKind::kSinkPercentile).total_ns) /
      1e6;
  const auto sends = rec.samples(SampleKind::kSendUs);
  add_percentile(m, "net.send_us_p50", sends, 50.0);
  add_percentile(m, "net.send_us_p99", sends, 99.0);
  add_percentile(m, "runtime.guard_wait_us_p99",
                 rec.samples(SampleKind::kGuardWaitUs), 99.0);
  add_percentile(m, "runtime.timer_late_us_p99",
                 rec.samples(SampleKind::kTimerLateUs), 99.0);
  add_percentile(m, "runtime.exec_late_us_p99",
                 rec.samples(SampleKind::kExecLateUs), 99.0);
}

void add_engine_layers(MetricMap& m,
                       const std::vector<const engine::CascadeEngine*>& engines,
                       const engine::MetricsSink& sink) {
  std::uint64_t batches = 0, processed = 0;
  std::size_t reconfigurations = 0;
  for (const auto* eng : engines) {
    reconfigurations += eng->reconfigurations();
    for (std::size_t i = 0; i < eng->worker_count(); ++i) {
      const auto info = eng->worker_info(i);
      batches += info.batches;
      processed += info.processed;
    }
  }
  std::size_t deferred = 0;
  for (const auto& r : sink.records())
    if (r.deferrals > 0) ++deferred;
  const auto total = static_cast<double>(sink.total());
  m["control.reconfigurations"] = static_cast<double>(reconfigurations);
  m["engine.mean_batch_size"] =
      batches > 0 ? static_cast<double>(processed) /
                        static_cast<double>(batches)
                  : 0.0;
  m["engine.deferral_ratio"] =
      total > 0.0 ? static_cast<double>(deferred) / total : 0.0;
  m["engine.drop_ratio"] =
      total > 0.0 ? static_cast<double>(sink.dropped()) / total : 0.0;
  m["engine.violation_ratio"] = sink.violation_ratio();
}

double replay_confidence_ns(const core::CascadeEnvironment& env,
                            const engine::MetricsSink& sink) {
  // The sink's records hold every served image's feature vector.
  std::vector<const std::vector<double>*> features;
  for (const auto& r : sink.records()) {
    if (features.size() >= 2048) break;
    if (!r.feature.empty()) features.push_back(&r.feature);
  }
  if (features.empty()) return 0.0;
  const auto& disc = env.disc();
  double sum = 0.0;
  constexpr int kPasses = 5;
  const std::int64_t t0 = now_ns();
  for (int pass = 0; pass < kPasses; ++pass)
    for (const auto* f : features) sum += disc.confidence(*f);
  const std::int64_t t1 = now_ns();
  keep(sum);
  return static_cast<double>(t1 - t0) /
         static_cast<double>(features.size() * kPasses);
}

double derived_confidence_calls(const engine::MetricsSink& sink) {
  std::size_t calls = 0;
  for (const auto& r : sink.records())
    if (r.deferrals > 0 ||
        (!r.dropped && r.stage == 0 && r.hit_level != cache::HitLevel::kExact))
      ++calls;
  return static_cast<double>(calls);
}

}  // namespace perfbench
