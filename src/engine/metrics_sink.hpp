// Terminal metrics collection — the single sink shared by every execution
// backend.
//
// Receives every completed or dropped query, materializes the served
// image's feature vector, and produces the two paper metrics: response
// quality (FID of the served distribution vs. the real reference) and the
// SLO violation ratio ("queries that fail to meet the SLO latency
// requirement or are preemptively dropped", §4.1) — both overall and as
// time series for the Figure 5/8 timelines. Also the per-hit-level
// completion counts and cache-path latency the cache suites assert on.
//
// Both quality reports are single folds over the record log: overall_fid()
// feeds every served feature into one Gaussian accumulator, and timeline()
// buckets each record by floor(time / window) into per-window accumulators
// (no sort, so it holds for a record set in any order: timeline_of()).
// Each FID is then one eigenvalue solve against the scorer's cached
// reference root (quality/fid.hpp).
//
// Determinism requirement: aggregation is a pure fold over the terminal
// event sequence (per-query records are kept for the invariant suites),
// so identical event sequences give identical metrics on every backend;
// the engine feeds it monotone timestamps even on wall-clock backends.
#pragma once

#include <array>
#include <vector>

#include "engine/query.hpp"
#include "quality/fid.hpp"
#include "quality/workload.hpp"
#include "stats/streaming.hpp"
#include "stats/window.hpp"

namespace diffserve::engine {

/// Feature vector of the image the system actually served for `q` at
/// `tier`: the query's own generated image on a cache miss, the donor's
/// image on an exact cache hit, and the donor's image plus reuse noise —
/// scaled by the style distance and by the resumed-stage depth — on an
/// approximate hit. Shared by the sink (FID accounting) and the engine
/// (boundary-discriminator scoring), so a reused image is scored exactly
/// as it is served.
std::vector<double> served_image_feature(const quality::Workload& workload,
                                         const Query& q, int tier);

class MetricsSink {
 public:
  MetricsSink(const quality::Workload& workload,
              const quality::FidScorer& scorer);

  /// A query finished with an image produced by `served_tier`.
  void complete(const Query& q, int served_tier, double completion_time);
  /// A query was preemptively dropped (no image).
  void drop(const Query& q, double drop_time);

  /// Fast mode: `false` skips the per-query terminal Record (and the
  /// served-image feature materialization it requires) while keeping every
  /// counter and latency aggregate exact. overall_fid() and timeline()
  /// need the records and must not be called in fast mode. Throughput
  /// benches run fast; the invariant suites keep recording on (default).
  void set_record_terminal_events(bool on) { record_terminal_events_ = on; }
  bool record_terminal_events() const { return record_terminal_events_; }
  /// Pre-size the record log from the expected arrival count so a long run
  /// never reallocates it mid-measurement. No-op in fast mode.
  void reserve(std::size_t expected_terminals);

  std::size_t completed() const { return n_completed_; }
  std::size_t dropped() const { return n_dropped_; }
  std::size_t total() const { return n_completed_ + n_dropped_; }

  // --- per-SLO-class accounting ------------------------------------------
  // With classes disabled every query is kStandard, so the kStandard row
  // equals the overall counters and the other rows stay zero.
  std::size_t class_completed(QueryClass c) const {
    return class_completed_[static_cast<std::size_t>(c)];
  }
  std::size_t class_dropped(QueryClass c) const {
    return class_dropped_[static_cast<std::size_t>(c)];
  }
  std::size_t class_total(QueryClass c) const {
    return class_completed(c) + class_dropped(c);
  }
  /// Late completions + drops over terminated queries of class c (0 when
  /// none terminated).
  double class_violation_ratio(QueryClass c) const;
  /// Mean end-to-end latency of completed class-c queries (0 before any).
  double class_mean_latency(QueryClass c) const;

  /// Late completions + drops, over all terminated queries.
  double violation_ratio() const;
  /// Violation ratio over the recent sliding window (controller feedback
  /// signal, e.g. for AIMD batching).
  double recent_violation_ratio(double now) const;
  /// Mean end-to-end latency of completed queries (seconds).
  double mean_latency() const;
  double latency_percentile(double p) const;
  /// Fraction of completed queries served by the lightweight stage.
  double light_served_fraction() const;

  // --- prompt-reuse cache accounting (all zero with the cache off) -------
  /// Completions whose admission probe hit at `level`.
  std::size_t hit_level_count(cache::HitLevel level) const;
  /// Completions served from the cache at any level, over completions.
  double cache_served_fraction() const;
  /// Exact-hit completions over completions (demand the cache absorbed).
  double exact_hit_fraction() const;
  /// Mean end-to-end latency of exact-hit completions (0 before any) —
  /// the cache-path latency, vs. mean_latency() for the whole mix.
  double mean_cache_latency() const;

  /// FID of everything served so far.
  double overall_fid() const;

  /// Completed queries whose image was *produced* by stage s (0 =
  /// lightest). Distinct from light_served_fraction(), which counts the
  /// stage a query finished in: a best-effort completion finishes at an
  /// unstaffed deep stage but carries an earlier stage's image.
  std::size_t served_by_stage(std::size_t s) const;
  /// served_by_stage over completions, as fractions sized to `stages`
  /// (all zero when nothing completed).
  std::vector<double> stage_served_fractions(std::size_t stages) const;

  struct TimelinePoint {
    double time;              ///< window start
    double fid;               ///< -1 when the window had too few images
    double violation_ratio;
    double throughput;        ///< completions (incl. drops) per second
    std::size_t samples;
  };
  /// Aggregate terminations into the fixed windows [k * w, (k + 1) * w),
  /// k = 0 up to the window of the latest record, in one pass over the
  /// records in any order. FID windows with fewer than `min_fid_samples`
  /// images report fid = -1.
  std::vector<TimelinePoint> timeline(double window_seconds,
                                      std::size_t min_fid_samples = 24) const;

  /// One terminal event per query (completion or drop), in arrival order of
  /// the terminations. Exposed for invariant tests and offline analysis.
  struct Record {
    std::uint64_t seq;  ///< query sequence number
    double time;
    double latency;   ///< -1 for drops
    bool violated;
    bool dropped;
    int tier;         ///< -1 for drops
    std::size_t stage;    ///< stage the query occupied at termination
    int deferrals;        ///< confidence-based deferrals in its history
    QueryClass query_class;       ///< SLO class (kStandard when disabled)
    cache::HitLevel hit_level;    ///< admission-probe outcome
    std::vector<double> feature;  ///< empty for drops
  };
  const std::vector<Record>& records() const { return records_; }
  /// timeline() of an explicit record set, in any order (the sink's own
  /// log is in time order; a merged or filtered one need not be).
  static std::vector<TimelinePoint> timeline_of(
      const std::vector<Record>& records, const quality::FidScorer& scorer,
      double window_seconds, std::size_t min_fid_samples = 24);

 private:
  const quality::Workload& workload_;
  const quality::FidScorer& scorer_;
  bool record_terminal_events_ = true;
  std::vector<Record> records_;
  std::size_t n_completed_ = 0;
  std::size_t n_dropped_ = 0;
  std::size_t n_late_ = 0;
  std::size_t n_light_served_ = 0;
  /// Per-SLO-class terminals, indexed by QueryClass.
  std::array<std::size_t, kQueryClassCount> class_completed_{};
  std::array<std::size_t, kQueryClassCount> class_dropped_{};
  std::array<std::size_t, kQueryClassCount> class_late_{};
  std::array<stats::RunningStats, kQueryClassCount> class_latency_{};
  std::vector<std::size_t> served_by_stage_;  ///< grown on demand
  /// Completions per cache hit level, indexed by HitLevel's value.
  std::array<std::size_t, 4> hit_level_counts_{};
  stats::RunningStats cache_latency_;  ///< exact-hit completions only
  stats::RunningStats latency_;
  mutable stats::PercentileTracker latency_pct_;
  stats::SlidingWindowRatio recent_{20.0};
};

}  // namespace diffserve::engine
