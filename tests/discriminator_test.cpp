// Tests for discriminator training and the deferral profile f(t).
#include <gtest/gtest.h>

#include <deque>

#include "discriminator/deferral_profile.hpp"
#include "discriminator/discriminator.hpp"
#include "nn/metrics.hpp"
#include "quality/workload.hpp"
#include "util/rng.hpp"

namespace diffserve::discriminator {
namespace {

const quality::Workload& shared_workload() {
  static const quality::Workload w(1200);
  return w;
}

const Discriminator& shared_disc() {
  static const Discriminator d = [] {
    DiscriminatorConfig cfg;
    cfg.train_queries = 800;
    return train_discriminator(shared_workload(), 2, 5, cfg);
  }();
  return d;
}

TEST(Discriminator, SeparatesRealFromLightGenerations) {
  const auto& w = shared_workload();
  const auto& d = shared_disc();
  std::vector<double> scores;
  std::vector<int> labels;
  for (quality::QueryId q = 800; q < 1200; ++q) {  // held-out queries
    scores.push_back(d.confidence(w.real_feature(q)));
    labels.push_back(1);
    scores.push_back(d.confidence(w.generated_feature(q, 2)));
    labels.push_back(0);
  }
  EXPECT_GT(nn::roc_auc(scores, labels), 0.95);
}

TEST(Discriminator, ConfidencePredictsImageQuality) {
  // The repurposing insight (§3.2): higher confidence -> lower true error.
  const auto& w = shared_workload();
  const auto& d = shared_disc();
  std::vector<double> conf;
  std::vector<int> is_good;
  for (quality::QueryId q = 800; q < 1200; ++q) {
    conf.push_back(d.confidence(w.generated_feature(q, 2)));
    is_good.push_back(w.true_error(q, 2) < 3.0 ? 1 : 0);
  }
  EXPECT_GT(nn::roc_auc(conf, is_good), 0.8);
}

TEST(Discriminator, ConfidenceInUnitInterval) {
  const auto& w = shared_workload();
  const auto& d = shared_disc();
  for (quality::QueryId q = 0; q < 100; ++q) {
    const double c = d.confidence(w.generated_feature(q, 2));
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(Discriminator, BackboneLatenciesMatchPaper) {
  const auto& w = shared_workload();
  DiscriminatorConfig cfg;
  cfg.train_queries = 100;
  cfg.epochs = 1;
  cfg.backbone = Backbone::kEfficientNet;
  EXPECT_NEAR(train_discriminator(w, 2, 5, cfg).inference_latency(), 0.010,
              1e-9);
  cfg.backbone = Backbone::kResNet;
  EXPECT_NEAR(train_discriminator(w, 2, 5, cfg).inference_latency(), 0.002,
              1e-9);
  cfg.backbone = Backbone::kViT;
  EXPECT_NEAR(train_discriminator(w, 2, 5, cfg).inference_latency(), 0.005,
              1e-9);
}

TEST(Discriminator, VariantNames) {
  DiscriminatorConfig cfg;
  EXPECT_EQ(variant_name(cfg), "EfficientNet w GT");
  cfg.real_source = RealSource::kHeavyModel;
  EXPECT_EQ(variant_name(cfg), "EfficientNet w Fake");
  cfg.backbone = Backbone::kViT;
  cfg.real_source = RealSource::kGroundTruth;
  EXPECT_EQ(variant_name(cfg), "ViT w GT");
}

TEST(Discriminator, EfficientNetBeatsResNetAtRouting) {
  // §4.4 ordering: the higher-capacity backbone routes better. Compare
  // AUC of confidence vs. the light-heavy quality gap on held-out data.
  const auto& w = shared_workload();
  auto routing_auc = [&](Backbone b) {
    DiscriminatorConfig cfg;
    cfg.backbone = b;
    cfg.train_queries = 800;
    const auto d = train_discriminator(w, 2, 5, cfg);
    std::vector<double> conf;
    std::vector<int> easy;
    for (quality::QueryId q = 800; q < 1200; ++q) {
      conf.push_back(d.confidence(w.generated_feature(q, 2)));
      easy.push_back(w.true_error(q, 2) <= w.true_error(q, 5) ? 1 : 0);
    }
    return nn::roc_auc(conf, easy);
  };
  EXPECT_GT(routing_auc(Backbone::kEfficientNet),
            routing_auc(Backbone::kResNet));
}

TEST(DeferralProfile, IsMonotoneCdf) {
  const auto& w = shared_workload();
  const auto profile = DeferralProfile::profile(w, shared_disc(), 2, 800);
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.02) {
    const double f = profile.fraction_deferred(t);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_EQ(profile.fraction_deferred(0.0), 0.0);
  EXPECT_EQ(profile.fraction_deferred(1.0 + 1e-9), 1.0);
}

class ThresholdInverse : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdInverse, ThresholdForFractionIsInverse) {
  const auto& w = shared_workload();
  const auto profile = DeferralProfile::profile(w, shared_disc(), 2, 800);
  const double target = GetParam();
  const double t = profile.threshold_for_fraction(target);
  // f(t) <= target, and the next-larger threshold would exceed it.
  EXPECT_LE(profile.fraction_deferred(t), target + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, ThresholdInverse,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

TEST(DeferralProfile, GridIsSortedAndCapped) {
  const auto& w = shared_workload();
  const auto profile = DeferralProfile::profile(w, shared_disc(), 2, 800);
  const auto grid = profile.grid(21, 0.6);
  ASSERT_GE(grid.size(), 2u);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i].threshold, grid[i - 1].threshold);
    EXPECT_GE(grid[i].fraction, grid[i - 1].fraction);
  }
  EXPECT_LE(grid.back().fraction, 0.6 + 0.05);
}

TEST(DeferralProfile, RejectsBadInput) {
  EXPECT_THROW(DeferralProfile({0.1, 0.2}), std::invalid_argument);  // too few
  std::vector<double> bad(50, 0.5);
  bad[0] = 1.5;
  EXPECT_THROW(DeferralProfile(std::move(bad)), std::invalid_argument);
}

TEST(OnlineDeferralProfile, FallsBackToOfflineUntilWarm) {
  std::vector<double> offline_samples;
  for (int i = 0; i < 100; ++i) offline_samples.push_back(0.01 * i);
  DeferralProfile offline(offline_samples);
  OnlineDeferralProfile online(offline, 1000, 200);
  // Cold: matches offline.
  EXPECT_NEAR(online.fraction_deferred(0.5),
              offline.fraction_deferred(0.5), 1e-12);
  // Feed 300 high confidences: deferral at 0.5 should drop.
  for (int i = 0; i < 300; ++i) online.observe(0.9);
  EXPECT_LT(online.fraction_deferred(0.5), 0.1);
}

TEST(OnlineDeferralProfile, WindowEvictsOldObservations) {
  std::vector<double> offline_samples(100, 0.5);
  OnlineDeferralProfile online(DeferralProfile(offline_samples), 300, 100);
  for (int i = 0; i < 300; ++i) online.observe(0.1);
  for (int i = 0; i < 300; ++i) online.observe(0.9);
  // Ring of 300 now holds only the 0.9s.
  EXPECT_LT(online.fraction_deferred(0.5), 0.05);
}

// The incrementally sorted window against a fresh sort of the same ring:
// random capacities and activation thresholds, reads during warm-up,
// coarse confidences (many duplicates) on half the seeds, and bursts
// longer than the window between reads.
TEST(OnlineDeferralProfile, IncrementalGridMatchesFreshSortAcross100Seeds) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    util::Rng rng(seed + 4000);
    const auto capacity = static_cast<std::size_t>(rng.uniform_int(20, 400));
    const auto min_samples = static_cast<std::size_t>(
        rng.uniform_int(10, static_cast<std::int64_t>(capacity)));
    const bool coarse = seed % 2 == 0;
    std::vector<double> offline_samples;
    for (int i = 0; i < 50; ++i) offline_samples.push_back(rng.uniform());
    const DeferralProfile offline(offline_samples);
    OnlineDeferralProfile online(offline, capacity, min_samples);
    std::deque<double> window;  // the oracle ring, oldest first

    for (int read = 0; read < 40; ++read) {
      std::int64_t burst = rng.uniform_int(0, static_cast<std::int64_t>(
                                                  capacity / 4));
      if (read < 3) burst = rng.uniform_int(0, 8);  // reads while cold
      if (rng.uniform() < 0.15)
        burst = static_cast<std::int64_t>(capacity) + rng.uniform_int(1, 50);
      for (std::int64_t k = 0; k < burst; ++k) {
        const double c = coarse ? static_cast<double>(rng.uniform_int(0, 20)) /
                                      20.0
                                : rng.uniform();
        online.observe(c);
        window.push_back(c);
        if (window.size() > capacity) window.pop_front();
      }
      const DeferralProfile fresh =
          window.size() < min_samples
              ? offline
              : DeferralProfile(
                    std::vector<double>(window.begin(), window.end()));
      const std::size_t points = static_cast<std::size_t>(
          rng.uniform_int(2, 60));
      const double max_fraction = rng.uniform(0.1, 1.0);
      const auto got = online.grid(points, max_fraction);
      const auto want = fresh.grid(points, max_fraction);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " read " << read;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].threshold, want[i].threshold)
            << "seed " << seed << " read " << read << " point " << i;
        ASSERT_EQ(got[i].fraction, want[i].fraction)
            << "seed " << seed << " read " << read << " point " << i;
      }
      const double t = coarse ? 0.5 : rng.uniform();
      ASSERT_EQ(online.fraction_deferred(t), fresh.fraction_deferred(t))
          << "seed " << seed << " read " << read;
    }
  }
}

TEST(TrainedWithHeavyAsReal, StillProducesScores) {
  const auto& w = shared_workload();
  DiscriminatorConfig cfg;
  cfg.real_source = RealSource::kHeavyModel;
  cfg.train_queries = 400;
  const auto d = train_discriminator(w, 2, 5, cfg);
  const double c = d.confidence(w.generated_feature(0, 2));
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
  EXPECT_EQ(d.name(), "EfficientNet w Fake");
}

}  // namespace
}  // namespace diffserve::discriminator
