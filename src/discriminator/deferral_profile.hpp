// The deferral profile f(t): the fraction of queries whose light-model
// confidence falls below threshold t and which are therefore deferred to
// the heavyweight model.
//
// "f(t) is initialized through offline profiling and updated during model
// serving as t changes" (§3.3). The offline profile is the empirical CDF
// of discriminator confidences over a profiling prompt set; the online
// profile maintains a ring buffer of recent confidences so the controller's
// estimate tracks workload drift.
#pragma once

#include <cstddef>
#include <vector>

#include "discriminator/discriminator.hpp"
#include "quality/workload.hpp"

namespace diffserve::discriminator {

class DeferralProfile {
 public:
  /// Build from raw confidence samples of light-model outputs.
  explicit DeferralProfile(std::vector<double> confidences);

  /// Offline profiling: run `n_profile` workload queries through the light
  /// model + discriminator.
  static DeferralProfile profile(const quality::Workload& workload,
                                 const Discriminator& disc, int light_tier,
                                 std::size_t n_profile = 1000);

  /// f(t) = P(confidence < t): fraction deferred at threshold t.
  /// Monotone non-decreasing; f(0) = 0, f(1+) = 1.
  double fraction_deferred(double threshold) const;

  /// Largest threshold with f(t) <= target_fraction (inverse of f).
  double threshold_for_fraction(double target_fraction) const;

  /// Discrete threshold grid for the MILP: the thresholds at `n` evenly
  /// spaced deferral fractions in [0, max_fraction] (deduplicated,
  /// ascending). Each entry pairs (threshold, f(threshold)).
  ///
  /// `max_fraction` < 1 bounds planned deferral: past the FID optimum,
  /// deferring confidently-good light outputs wastes heavy capacity and
  /// *worsens* response quality (the Figure 1a tail), so the resource
  /// manager never plans for full deferral.
  struct GridPoint {
    double threshold;
    double fraction;
  };
  std::vector<GridPoint> grid(std::size_t n = 51,
                              double max_fraction = 1.0) const;

  std::size_t sample_count() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;  // ascending confidence samples
};

/// Sliding-window deferral profile updated from live confidences during
/// serving; falls back to the offline profile until enough samples arrive.
///
/// The window is kept sorted across reads: observe() logs the value it
/// adds and the one it overwrites, and the next read sorts only those two
/// logs and merges them into the kept sorted window in one linear pass
/// (a full sort once the logs together reach the window's capacity). The
/// window is the same multiset either way, so every read equals a fresh
/// sort of the ring. Reads use the synced window in place and update that
/// cache, so concurrent calls need external locking (the controller holds
/// its profile mutex).
class OnlineDeferralProfile {
 public:
  OnlineDeferralProfile(DeferralProfile offline, std::size_t window_capacity,
                        std::size_t min_samples = 200);

  void observe(double confidence);
  double fraction_deferred(double threshold) const;
  std::vector<DeferralProfile::GridPoint> grid(
      std::size_t n = 51, double max_fraction = 1.0) const;
  std::size_t live_samples() const { return count_; }

 private:
  /// Bring sorted_ up to the ring's contents.
  void sync() const;

  DeferralProfile offline_;
  std::vector<double> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t min_samples_;
  /// The window in ascending order as of the last sync().
  mutable std::vector<double> sorted_;
  /// Values observed, and values overwritten in the ring, since then.
  mutable std::vector<double> added_;
  mutable std::vector<double> evicted_;
  /// The logs outgrew the window: the next sync() sorts the ring whole.
  mutable bool resort_ = false;
};

}  // namespace diffserve::discriminator
