// Streaming scalar statistics: Welford mean/variance and an exact
// reservoir-free percentile tracker over a bounded buffer.
#pragma once

#include <cstddef>
#include <vector>

namespace diffserve::stats {

/// Numerically stable running mean and variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile computation over all recorded samples. Used where the
/// sample count is bounded (per-experiment latency distributions).
class PercentileTracker {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }

  /// Linear-interpolated percentile, p in [0, 100]. Requires >=1 sample.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  void reset() {
    samples_.clear();
    sorted_ = false;
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace diffserve::stats
