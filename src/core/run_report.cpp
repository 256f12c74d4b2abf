#include "core/run_report.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "engine/engine.hpp"
#include "util/check.hpp"

namespace diffserve::core {

namespace {

auto fields(const ClassReport& c) {
  return std::tie(c.completed, c.dropped, c.violation_ratio, c.mean_latency);
}

auto fields(const engine::MetricsSink::TimelinePoint& p) {
  return std::tie(p.time, p.fid, p.violation_ratio, p.throughput, p.samples);
}

auto fields(const cache::CacheStats& s) {
  return std::tie(s.lookups, s.exact_hits, s.near_hits, s.far_hits,
                  s.insertions, s.latent_insertions, s.evictions,
                  s.step_fraction_sum, s.near_step_fraction_sum,
                  s.far_step_fraction_sum, s.lsh_probed_cells,
                  s.lsh_probe_candidates, s.heap_compactions,
                  s.heap_stale_pops);
}

/// Leaves out solve_time_ms, the wall-clock field (see operator==).
auto fields(const control::Controller::Snapshot& s) {
  const auto& d = s.decision;
  return std::tie(s.time, s.demand_estimate, s.observed_demand,
                  s.recent_violation_ratio, s.cache_exact_hit_ratio,
                  s.cache_near_hit_ratio, s.cache_far_hit_ratio,
                  s.cache_service_discount, s.class_demand,
                  s.effective_slo_seconds, d.feasible, d.workers, d.batches,
                  d.thresholds, d.deferral_fractions, d.direct_mode,
                  d.p_heavy);
}

template <typename Range>
bool same_elements(const Range& a, const Range& b) {
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const auto& x, const auto& y) { return fields(x) == fields(y); });
}

}  // namespace

double RunReport::mean_solve_ms() const {
  if (control_history.empty()) return 0.0;
  double total_ms = 0.0;
  for (const auto& h : control_history) total_ms += h.decision.solve_time_ms;
  return total_ms / static_cast<double>(control_history.size());
}

bool operator==(const RunReport& a, const RunReport& b) {
  const auto scalars = [](const RunReport& r) {
    return std::tie(r.overall_fid, r.violation_ratio, r.mean_latency,
                    r.p99_latency, r.light_served_fraction,
                    r.stage_served_fraction, r.submitted, r.completed,
                    r.dropped, r.goodput_qps, r.reconfigurations);
  };
  return scalars(a) == scalars(b) && fields(a.cache) == fields(b.cache) &&
         same_elements(a.classes, b.classes) &&
         same_elements(a.timeline, b.timeline) &&
         same_elements(a.control_history, b.control_history);
}

RunReport make_run_report(
    const engine::MetricsSink& sink, std::size_t submitted,
    const std::vector<const engine::CascadeEngine*>& engines,
    double trace_seconds,
    std::vector<control::Controller::Snapshot> control_history,
    double timeline_window) {
  DS_REQUIRE(!engines.empty(), "a run report needs the run's engines");
  RunReport r;
  r.violation_ratio = sink.violation_ratio();
  r.mean_latency = sink.mean_latency();
  r.p99_latency = sink.completed() ? sink.latency_percentile(99.0) : 0.0;
  r.light_served_fraction = sink.light_served_fraction();
  r.stage_served_fraction =
      sink.stage_served_fractions(engines.front()->stage_count());
  r.submitted = submitted;
  r.completed = sink.completed();
  r.dropped = sink.dropped();
  r.goodput_qps = trace_seconds > 0.0
                      ? static_cast<double>(sink.total()) *
                            (1.0 - r.violation_ratio) / trace_seconds
                      : 0.0;
  for (const auto* eng : engines) {
    r.reconfigurations += eng->reconfigurations();
    r.cache += eng->cache_stats();
  }
  for (std::size_t c = 0; c < engine::kQueryClassCount; ++c) {
    const auto cls = static_cast<engine::QueryClass>(c);
    r.classes[c] = {sink.class_completed(cls), sink.class_dropped(cls),
                    sink.class_violation_ratio(cls),
                    sink.class_mean_latency(cls)};
  }
  // FID and the timeline are folds over the per-query records, which a
  // fast-mode sink does not keep.
  if (sink.record_terminal_events()) {
    if (r.completed >= 2) r.overall_fid = sink.overall_fid();
    r.timeline = sink.timeline(timeline_window);
  }
  r.control_history = std::move(control_history);
  return r;
}

}  // namespace diffserve::core
