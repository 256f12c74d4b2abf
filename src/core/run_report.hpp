// The one report every runner returns: core::run_experiment (DES),
// runtime::run_threaded (testbed), and cluster::run_cluster_des /
// run_cluster_threaded (sharded). All four build it through the single
// projection make_run_report() from the run's terminal sink and engines,
// so the §4.3 simulator-vs-testbed comparison diffs like for like and the
// byte-identity tests compare whole reports with ==.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "cache/approx_cache.hpp"
#include "control/controller.hpp"
#include "engine/metrics_sink.hpp"

namespace diffserve::core {

/// Terminal outcomes of one SLO class.
struct ClassReport {
  std::size_t completed = 0;
  std::size_t dropped = 0;
  double violation_ratio = 0.0;
  double mean_latency = 0.0;  ///< trace seconds, completed queries only
};

struct RunReport {
  /// FID of everything served; -1 with fewer than two completions or when
  /// the sink ran in fast mode (no per-query records to score).
  double overall_fid = -1.0;
  double violation_ratio = 0.0;
  double mean_latency = 0.0;  ///< trace seconds
  double p99_latency = 0.0;
  double light_served_fraction = 0.0;
  /// Completed-query share per chain stage (size = chain depth).
  std::vector<double> stage_served_fraction;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t dropped = 0;
  /// SLO-meeting completions per trace second.
  double goodput_qps = 0.0;
  /// Applied plans that changed at least one worker's hosted model,
  /// summed over every engine (shard) of the run.
  std::size_t reconfigurations = 0;
  /// Prompt-reuse cache counters summed over engines (all zero with the
  /// cache disabled).
  cache::CacheStats cache;
  /// Indexed by engine::QueryClass; with classes disabled the kStandard
  /// row carries everything.
  std::array<ClassReport, engine::kQueryClassCount> classes{};
  /// Windowed FID / violation series; empty in fast mode.
  std::vector<engine::MetricsSink::TimelinePoint> timeline;
  /// One snapshot per allocation decision (a cluster run records one per
  /// global plan pushed to its shards).
  std::vector<control::Controller::Snapshot> control_history;

  std::size_t plans_pushed() const { return control_history.size(); }
  /// Mean allocator solve time in wall-clock ms (0 before any decision).
  double mean_solve_ms() const;
};

/// Equal serving outcomes: every field, except the allocator solve times
/// inside control_history — those are wall-clock measurements, so two
/// bit-identical runs never reproduce them.
bool operator==(const RunReport& a, const RunReport& b);

/// Timeline window for runners that do not configure one.
inline constexpr double kDefaultTimelineWindow = 10.0;

/// The one projection from a finished run into its report. `sink` holds
/// the run's terminals (the engine's own, or a cluster frontend's);
/// `engines` are the run's engines (one per shard), summed for cache
/// counters and reconfigurations. Goodput is per second of the
/// `trace_seconds`-long trace.
RunReport make_run_report(
    const engine::MetricsSink& sink, std::size_t submitted,
    const std::vector<const engine::CascadeEngine*>& engines,
    double trace_seconds,
    std::vector<control::Controller::Snapshot> control_history,
    double timeline_window = kDefaultTimelineWindow);

}  // namespace diffserve::core
