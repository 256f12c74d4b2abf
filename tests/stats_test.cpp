// Tests for stats: streaming moments, percentiles, EWMA/Holt estimators,
// sliding windows.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/ewma.hpp"
#include "stats/streaming.hpp"
#include "stats/window.hpp"

namespace diffserve::stats {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 4.0, 2.0, 8.0, 5.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size();
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 8.0);
  EXPECT_EQ(s.count(), xs.size());
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Percentile, ExactOnKnownData) {
  PercentileTracker p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(p.percentile(100.0), 100.0, 1e-12);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(99.0), 99.01, 0.2);
}

TEST(Percentile, InterleavedAddAndQuery) {
  PercentileTracker p;
  p.add(10.0);
  EXPECT_EQ(p.percentile(50.0), 10.0);
  p.add(20.0);
  EXPECT_NEAR(p.median(), 15.0, 1e-12);
}

TEST(Percentile, AddAfterQueryReSorts) {
  // A query sorts the samples; values added after it, below the sorted
  // range, must still be ordered in the next query.
  PercentileTracker p;
  for (int i = 10; i <= 20; ++i) p.add(i);
  EXPECT_EQ(p.percentile(0.0), 10.0);
  p.add(1.0);
  p.add(2.0);
  EXPECT_EQ(p.percentile(0.0), 1.0);
  EXPECT_EQ(p.percentile(100.0), 20.0);
  EXPECT_EQ(p.median(), 14.0);
  p.reset();
  p.add(5.0);
  p.add(3.0);
  EXPECT_EQ(p.percentile(0.0), 3.0);
  EXPECT_EQ(p.percentile(100.0), 5.0);
}

TEST(Percentile, EmptyThrows) {
  PercentileTracker p;
  EXPECT_THROW(p.percentile(50.0), std::invalid_argument);
}

TEST(Ewma, FirstObservationInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  e.observe(10.0);
  EXPECT_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) e.observe(7.0);
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(Ewma, RecursionMatchesDefinition) {
  Ewma e(0.25);
  e.observe(0.0);
  e.observe(8.0);
  EXPECT_NEAR(e.value(), 2.0, 1e-12);  // 0.25*8
}

TEST(Ewma, InvalidAlphaThrows) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

TEST(Holt, TracksLinearRampExactlyInTheLimit) {
  HoltEwma h(0.5, 0.5);
  for (int i = 0; i < 200; ++i) h.observe(3.0 * i);
  // On a pure ramp the trend converges to the slope.
  EXPECT_NEAR(h.trend(), 3.0, 0.05);
  // Forecast h steps ahead lands on the ramp.
  EXPECT_NEAR(h.forecast(2.0), 3.0 * 199 + 2.0 * 3.0, 1.0);
}

TEST(Holt, ConstantSeriesHasZeroTrend) {
  HoltEwma h(0.4, 0.3);
  for (int i = 0; i < 50; ++i) h.observe(5.0);
  EXPECT_NEAR(h.trend(), 0.0, 1e-9);
  EXPECT_NEAR(h.forecast(10.0), 5.0, 1e-9);
}

TEST(Holt, ForecastNeverNegative) {
  HoltEwma h(0.5, 0.5);
  h.observe(10.0);
  h.observe(1.0);
  h.observe(0.1);
  EXPECT_GE(h.forecast(50.0), 0.0);
}

TEST(TimeDecayedEwma, HalfLifeSemantics) {
  TimeDecayedEwma e(10.0);
  e.observe(0.0, 100.0);
  e.observe(10.0, 0.0);  // one half-life later
  EXPECT_NEAR(e.value_at(10.0), 50.0, 1e-9);
}

TEST(SlidingWindow, EvictsOldEvents) {
  SlidingWindowCounter c(10.0);
  c.add(0.0);
  c.add(5.0);
  c.add(9.0);
  EXPECT_NEAR(c.total(9.0), 3.0, 1e-12);
  EXPECT_NEAR(c.total(12.0), 2.0, 1e-12);  // t=0 evicted (<= now-window)
  EXPECT_NEAR(c.total(50.0), 0.0, 1e-12);
}

TEST(SlidingWindow, RateUsesElapsedBeforeFullWindow) {
  // 10 events in the first 2 seconds must read as ~5 QPS, not 10/window.
  SlidingWindowCounter c(20.0);
  for (int i = 0; i < 10; ++i) c.add(0.2 * i);
  EXPECT_NEAR(c.rate(2.0), 5.0, 0.1);
}

TEST(SlidingWindow, RateAfterFullWindow) {
  SlidingWindowCounter c(10.0);
  for (int i = 0; i < 100; ++i) c.add(static_cast<double>(i));
  // Window [90, 100): 10 events over 10 s.
  EXPECT_NEAR(c.rate(100.0), 1.0, 0.11);
}

TEST(SlidingWindow, NonMonotonicTimestampThrows) {
  SlidingWindowCounter c(10.0);
  c.add(5.0);
  EXPECT_THROW(c.add(4.0), std::invalid_argument);
}

TEST(SlidingWindowRatio, TracksBadFraction) {
  SlidingWindowRatio r(10.0);
  r.record(1.0, true);
  r.record(2.0, false);
  r.record(3.0, false);
  r.record(4.0, true);
  EXPECT_NEAR(r.ratio(5.0), 0.5, 1e-12);
  // At t=13.5 only the t=4 event (bad) survives the 10 s window.
  EXPECT_NEAR(r.ratio(13.5), 1.0, 1e-12);
  EXPECT_NEAR(r.ratio(30.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace diffserve::stats
