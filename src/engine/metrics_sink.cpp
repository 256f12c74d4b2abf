#include "engine/metrics_sink.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/gaussian.hpp"
#include "util/check.hpp"

namespace diffserve::engine {

std::vector<double> served_image_feature(const quality::Workload& workload,
                                         const Query& q, int tier) {
  switch (q.cache_hit) {
    case cache::HitLevel::kMiss:
      return workload.generated_feature(q.prompt_id, tier);
    case cache::HitLevel::kExact:
      return workload.generated_feature(q.cache_donor, tier);
    case cache::HitLevel::kApproxNear:
    case cache::HitLevel::kApproxFar:
      return workload.cached_feature(q.prompt_id, q.cache_donor, tier,
                                     q.cache_distance, q.cache_resume_depth);
  }
  return workload.generated_feature(q.prompt_id, tier);
}

MetricsSink::MetricsSink(const quality::Workload& workload,
                         const quality::FidScorer& scorer)
    : workload_(workload), scorer_(scorer) {}

void MetricsSink::reserve(std::size_t expected_terminals) {
  if (record_terminal_events_) records_.reserve(expected_terminals);
}

void MetricsSink::complete(const Query& q, int served_tier,
                           double completion_time) {
  DS_REQUIRE(served_tier > 0, "completion needs a diffusion tier");
  const bool late = completion_time > q.deadline;
  if (record_terminal_events_) {
    Record r;
    r.seq = q.seq;
    r.time = completion_time;
    r.latency = completion_time - q.arrival_time;
    r.violated = late;
    r.dropped = false;
    r.tier = served_tier;
    r.stage = q.stage;
    r.deferrals = q.deferrals;
    r.query_class = q.query_class;
    r.hit_level = q.cache_hit;
    r.feature = served_image_feature(workload_, q, served_tier);
    records_.push_back(std::move(r));
  }
  ++n_completed_;
  if (late) ++n_late_;
  const std::size_t cls = static_cast<std::size_t>(q.query_class);
  ++class_completed_[cls];
  if (late) ++class_late_[cls];
  class_latency_[cls].add(completion_time - q.arrival_time);
  ++hit_level_counts_[static_cast<std::size_t>(q.cache_hit)];
  if (q.cache_hit == cache::HitLevel::kExact)
    cache_latency_.add(completion_time - q.arrival_time);
  // Count by the stage the query *finished in* so the metric is
  // meaningful in both cascade mode (deferral) and direct mode (random
  // split): a query finishing at the lightest stage was served light
  // (the paper's §4.1 light-served share). An exact cache hit never
  // entered a stage pool and is not counted as light-served.
  if (q.stage == 0 && q.cache_hit != cache::HitLevel::kExact)
    ++n_light_served_;
  // Image provenance can lag the finish stage: a deferred query completed
  // best-effort at an unstaffed stage carries an earlier stage's image.
  const std::size_t produced =
      q.image_stage >= 0 ? static_cast<std::size_t>(q.image_stage) : q.stage;
  if (produced >= served_by_stage_.size())
    served_by_stage_.resize(produced + 1);
  ++served_by_stage_[produced];
  latency_.add(completion_time - q.arrival_time);
  latency_pct_.add(completion_time - q.arrival_time);
  recent_.record(completion_time, late);
}

void MetricsSink::drop(const Query& q, double drop_time) {
  if (record_terminal_events_) {
    Record r;
    r.seq = q.seq;
    r.time = drop_time;
    r.latency = -1.0;
    r.violated = true;
    r.dropped = true;
    r.tier = -1;
    r.stage = q.stage;
    r.deferrals = q.deferrals;
    r.query_class = q.query_class;
    r.hit_level = q.cache_hit;
    records_.push_back(std::move(r));
  }
  ++n_dropped_;
  ++class_dropped_[static_cast<std::size_t>(q.query_class)];
  recent_.record(drop_time, true);
}

double MetricsSink::class_violation_ratio(QueryClass c) const {
  const std::size_t n = class_total(c);
  if (n == 0) return 0.0;
  const std::size_t cls = static_cast<std::size_t>(c);
  return static_cast<double>(class_late_[cls] + class_dropped_[cls]) /
         static_cast<double>(n);
}

double MetricsSink::class_mean_latency(QueryClass c) const {
  return class_latency_[static_cast<std::size_t>(c)].mean();
}

std::size_t MetricsSink::served_by_stage(std::size_t s) const {
  return s < served_by_stage_.size() ? served_by_stage_[s] : 0;
}

std::vector<double> MetricsSink::stage_served_fractions(
    std::size_t stages) const {
  std::vector<double> out(stages, 0.0);
  if (n_completed_ == 0) return out;
  for (std::size_t s = 0; s < stages; ++s)
    out[s] = static_cast<double>(served_by_stage(s)) /
             static_cast<double>(n_completed_);
  return out;
}

double MetricsSink::recent_violation_ratio(double now) const {
  return recent_.ratio(now);
}

double MetricsSink::violation_ratio() const {
  if (total() == 0) return 0.0;
  return static_cast<double>(n_late_ + n_dropped_) /
         static_cast<double>(total());
}

double MetricsSink::mean_latency() const { return latency_.mean(); }

double MetricsSink::latency_percentile(double p) const {
  return latency_pct_.percentile(p);
}

double MetricsSink::light_served_fraction() const {
  if (n_completed_ == 0) return 0.0;
  return static_cast<double>(n_light_served_) /
         static_cast<double>(n_completed_);
}

std::size_t MetricsSink::hit_level_count(cache::HitLevel level) const {
  return hit_level_counts_[static_cast<std::size_t>(level)];
}

double MetricsSink::cache_served_fraction() const {
  if (n_completed_ == 0) return 0.0;
  const std::size_t hits =
      n_completed_ - hit_level_count(cache::HitLevel::kMiss);
  return static_cast<double>(hits) / static_cast<double>(n_completed_);
}

double MetricsSink::exact_hit_fraction() const {
  if (n_completed_ == 0) return 0.0;
  return static_cast<double>(hit_level_count(cache::HitLevel::kExact)) /
         static_cast<double>(n_completed_);
}

double MetricsSink::mean_cache_latency() const {
  return cache_latency_.mean();
}

double MetricsSink::overall_fid() const {
  DS_REQUIRE(record_terminal_events_,
             "overall_fid needs per-query records (fast mode is on)");
  linalg::GaussianAccumulator acc(scorer_.feature_dim());
  for (const auto& r : records_)
    if (!r.feature.empty()) acc.add(r.feature);
  DS_REQUIRE(acc.count() >= 2, "too few served images for FID");
  return scorer_.fid(acc.stats());
}

namespace {

/// Index k of the window [k * w, (k + 1) * w) holding time t; times before
/// the first window fall into it. floor(t / w) can land one off that test
/// when the division rounds, so it is corrected against the products.
std::size_t window_index(double t, double w) {
  if (!(t >= w)) return 0;
  auto k = static_cast<std::size_t>(std::floor(t / w));
  while (k > 0 && t < static_cast<double>(k) * w) --k;
  while (t >= static_cast<double>(k + 1) * w) ++k;
  return k;
}

}  // namespace

std::vector<MetricsSink::TimelinePoint> MetricsSink::timeline(
    double window_seconds, std::size_t min_fid_samples) const {
  DS_REQUIRE(record_terminal_events_,
             "timeline needs per-query records (fast mode is on)");
  return timeline_of(records_, scorer_, window_seconds, min_fid_samples);
}

std::vector<MetricsSink::TimelinePoint> MetricsSink::timeline_of(
    const std::vector<Record>& records, const quality::FidScorer& scorer,
    double window_seconds, std::size_t min_fid_samples) {
  DS_REQUIRE(window_seconds > 0.0, "window must be positive");
  // One pass in record order: each record lands in its window's
  // accumulator, so records out of time order need no sort.
  struct Window {
    explicit Window(std::size_t dim) : features(dim) {}
    linalg::GaussianAccumulator features;
    std::size_t samples = 0;
    std::size_t violations = 0;
  };
  std::vector<Window> windows;
  for (const auto& r : records) {
    const std::size_t k = window_index(r.time, window_seconds);
    while (windows.size() <= k) windows.emplace_back(scorer.feature_dim());
    Window& w = windows[k];
    ++w.samples;
    if (r.violated) ++w.violations;
    if (!r.feature.empty()) w.features.add(r.feature);
  }

  std::vector<TimelinePoint> out;
  out.reserve(windows.size());
  const std::size_t min_fid = std::max<std::size_t>(min_fid_samples, 2);
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const Window& w = windows[k];
    TimelinePoint pt;
    pt.time = static_cast<double>(k) * window_seconds;
    pt.samples = w.samples;
    pt.throughput = static_cast<double>(w.samples) / window_seconds;
    pt.violation_ratio = w.samples ? static_cast<double>(w.violations) /
                                         static_cast<double>(w.samples)
                                   : 0.0;
    pt.fid = w.features.count() >= min_fid ? scorer.fid(w.features.stats())
                                           : -1.0;
    out.push_back(pt);
  }
  return out;
}

}  // namespace diffserve::engine
