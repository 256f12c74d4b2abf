#include "discriminator/deferral_profile.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace diffserve::discriminator {

namespace {

/// Fewest samples a profile is built from.
constexpr std::size_t kMinProfileSamples = 10;

// The profile math over an ascending sample window, shared by the offline
// profile and the online window so reads of either never copy it.

double fraction_below(const std::vector<double>& sorted, double threshold) {
  // Deferred iff confidence < t (strict, per §3.2: meeting the threshold
  // returns the image).
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), threshold);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

double threshold_at(const std::vector<double>& sorted,
                    double target_fraction) {
  DS_REQUIRE(target_fraction >= 0.0 && target_fraction <= 1.0,
             "fraction outside [0,1]");
  // Largest t with f(t) <= target: f jumps at each sample, so the answer
  // is the sample at index floor(target * n) (or 1.0 past the end).
  const auto idx = static_cast<std::size_t>(
      target_fraction * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) return 1.0;
  return sorted[idx];
}

std::vector<DeferralProfile::GridPoint> grid_of(
    const std::vector<double>& sorted, std::size_t n, double max_fraction) {
  DS_REQUIRE(n >= 2, "grid needs at least two points");
  DS_REQUIRE(max_fraction > 0.0 && max_fraction <= 1.0,
             "max_fraction outside (0,1]");
  std::vector<DeferralProfile::GridPoint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double target = max_fraction * static_cast<double>(i) /
                          static_cast<double>(n - 1);
    const double t = threshold_at(sorted, target);
    const double f = fraction_below(sorted, t);
    if (!out.empty() && std::fabs(out.back().threshold - t) < 1e-12) continue;
    out.push_back({t, f});
  }
  return out;
}

}  // namespace

DeferralProfile::DeferralProfile(std::vector<double> confidences)
    : sorted_(std::move(confidences)) {
  DS_REQUIRE(sorted_.size() >= kMinProfileSamples,
             "too few samples for a deferral profile");
  for (double c : sorted_)
    DS_REQUIRE(c >= 0.0 && c <= 1.0, "confidence outside [0,1]");
  if (!std::is_sorted(sorted_.begin(), sorted_.end()))
    std::sort(sorted_.begin(), sorted_.end());
}

DeferralProfile DeferralProfile::profile(const quality::Workload& workload,
                                         const Discriminator& disc,
                                         int light_tier,
                                         std::size_t n_profile) {
  const std::size_t n = std::min<std::size_t>(n_profile, workload.size());
  std::vector<double> conf;
  conf.reserve(n);
  for (quality::QueryId q = 0; q < n; ++q)
    conf.push_back(disc.confidence(workload.generated_feature(q, light_tier)));
  return DeferralProfile(std::move(conf));
}

double DeferralProfile::fraction_deferred(double threshold) const {
  return fraction_below(sorted_, threshold);
}

double DeferralProfile::threshold_for_fraction(double target_fraction) const {
  return threshold_at(sorted_, target_fraction);
}

std::vector<DeferralProfile::GridPoint> DeferralProfile::grid(
    std::size_t n, double max_fraction) const {
  return grid_of(sorted_, n, max_fraction);
}

OnlineDeferralProfile::OnlineDeferralProfile(DeferralProfile offline,
                                             std::size_t window_capacity,
                                             std::size_t min_samples)
    : offline_(std::move(offline)),
      ring_(window_capacity),
      min_samples_(min_samples) {
  DS_REQUIRE(min_samples >= kMinProfileSamples,
             "too few samples for a deferral profile");
  DS_REQUIRE(window_capacity >= min_samples,
             "window capacity below activation threshold");
}

void OnlineDeferralProfile::observe(double confidence) {
  DS_REQUIRE(confidence >= 0.0 && confidence <= 1.0,
             "confidence outside [0,1]");
  if (!resort_) {
    if (count_ == ring_.size()) evicted_.push_back(ring_[head_]);
    added_.push_back(confidence);
    if (added_.size() + evicted_.size() >= ring_.size()) {
      resort_ = true;
      added_.clear();
      evicted_.clear();
    }
  }
  ring_[head_] = confidence;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size()) ++count_;
}

void OnlineDeferralProfile::sync() const {
  if (resort_) {
    sorted_.assign(ring_.begin(),
                   ring_.begin() + static_cast<std::ptrdiff_t>(count_));
    std::sort(sorted_.begin(), sorted_.end());
    resort_ = false;
    return;
  }
  if (added_.empty() && evicted_.empty()) return;
  std::sort(added_.begin(), added_.end());
  std::sort(evicted_.begin(), evicted_.end());
  // (sorted_ + added_) - evicted_ as multisets, in one ascending pass:
  // every evicted value is in sorted_ or was added since the last sync.
  std::vector<double> merged;
  merged.reserve(count_);
  auto s = sorted_.cbegin();
  auto a = added_.cbegin();
  auto e = evicted_.cbegin();
  while (s != sorted_.cend() || a != added_.cend()) {
    const bool take_sorted =
        a == added_.cend() || (s != sorted_.cend() && *s <= *a);
    const double v = take_sorted ? *s++ : *a++;
    if (e != evicted_.cend() && *e == v) {
      ++e;
      continue;
    }
    merged.push_back(v);
  }
  DS_CHECK(e == evicted_.cend() && merged.size() == count_,
           "deferral window lost track of its samples");
  sorted_.swap(merged);
  added_.clear();
  evicted_.clear();
}

double OnlineDeferralProfile::fraction_deferred(double threshold) const {
  if (count_ < min_samples_) return offline_.fraction_deferred(threshold);
  sync();
  return fraction_below(sorted_, threshold);
}

std::vector<DeferralProfile::GridPoint> OnlineDeferralProfile::grid(
    std::size_t n, double max_fraction) const {
  if (count_ < min_samples_) return offline_.grid(n, max_fraction);
  sync();
  return grid_of(sorted_, n, max_fraction);
}

}  // namespace diffserve::discriminator
