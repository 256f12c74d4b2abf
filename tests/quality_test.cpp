// Tests for the synthetic quality model: determinism, calibration to the
// paper's FID band, the easy-query fraction (Fig. 1b), proxy-metric
// failure modes, and the windowed FID accumulator.
#include <gtest/gtest.h>

#include <cmath>

#include "quality/fid.hpp"
#include "quality/workload.hpp"

namespace diffserve::quality {
namespace {

// Tier pairs of the paper's three cascades (light, heavy).
struct CascadeTiers {
  int light;
  int heavy;
};
const CascadeTiers kCascades[] = {{2, 5}, {1, 5}, {3, 6}};

class PerCascade : public ::testing::TestWithParam<int> {
 protected:
  CascadeTiers tiers() const { return kCascades[GetParam()]; }
};

TEST(Workload, DifficultyInUnitInterval) {
  Workload w(512);
  for (QueryId q = 0; q < w.size(); ++q) {
    EXPECT_GE(w.difficulty(q), 0.0);
    EXPECT_LE(w.difficulty(q), 1.0);
  }
}

TEST(Workload, FeaturesAreDeterministic) {
  Workload w(128);
  const auto a = w.generated_feature(7, 2);
  const auto b = w.generated_feature(7, 2);
  EXPECT_EQ(a, b);
  // Same seed, fresh object -> identical workload.
  Workload w2(128);
  EXPECT_EQ(w2.generated_feature(7, 2), a);
  EXPECT_EQ(w2.real_feature(3), w.real_feature(3));
}

TEST(Workload, DifferentTiersProduceDifferentImages) {
  Workload w(64);
  EXPECT_NE(w.generated_feature(5, 2), w.generated_feature(5, 5));
}

TEST(Workload, SeedChangesWorkload) {
  QualityConfig cfg;
  cfg.seed = 1;
  Workload a(64, cfg);
  cfg.seed = 2;
  Workload b(64, cfg);
  EXPECT_NE(a.real_feature(0), b.real_feature(0));
}

TEST(Workload, ErrorGrowsWithDifficultyForLightTier) {
  Workload w(2048);
  // Correlate difficulty with light-tier error across queries.
  double sum_d = 0.0, sum_e = 0.0, sum_de = 0.0, sum_dd = 0.0, sum_ee = 0.0;
  const auto n = static_cast<double>(w.size());
  for (QueryId q = 0; q < w.size(); ++q) {
    const double d = w.difficulty(q);
    const double e = w.true_error(q, 2);
    sum_d += d;
    sum_e += e;
    sum_de += d * e;
    sum_dd += d * d;
    sum_ee += e * e;
  }
  const double cov = sum_de / n - sum_d / n * sum_e / n;
  const double corr = cov / std::sqrt((sum_dd / n - sum_d / n * sum_d / n) *
                                      (sum_ee / n - sum_e / n * sum_e / n));
  EXPECT_GT(corr, 0.8);
}

TEST(Workload, HeavyTierErrorNearlyFlatInDifficulty) {
  Workload w(2048);
  double lo = 0.0, hi = 0.0;
  std::size_t nlo = 0, nhi = 0;
  for (QueryId q = 0; q < w.size(); ++q) {
    if (w.difficulty(q) < 0.2) {
      lo += w.true_error(q, 5);
      ++nlo;
    } else if (w.difficulty(q) > 0.5) {
      hi += w.true_error(q, 5);
      ++nhi;
    }
  }
  ASSERT_GT(nlo, 10u);
  ASSERT_GT(nhi, 10u);
  // Mean error grows much less than 2x between easy and hard queries.
  EXPECT_LT(hi / static_cast<double>(nhi), 1.5 * lo / static_cast<double>(nlo));
}

TEST_P(PerCascade, EasyFractionMatchesPaper) {
  // "for 20-40% of the queries ... the lightweight model generates images
  // with similar or even better quality" (§2.1, Fig. 1b).
  Workload w(3000);
  const auto [light, heavy] = tiers();
  std::size_t easy = 0;
  for (QueryId q = 0; q < w.size(); ++q)
    if (w.true_error(q, light) <= w.true_error(q, heavy)) ++easy;
  const double frac = static_cast<double>(easy) / static_cast<double>(w.size());
  EXPECT_GE(frac, 0.18);
  EXPECT_LE(frac, 0.45);
}

TEST_P(PerCascade, FidCalibrationInPaperBand) {
  Workload w(3000);
  FidScorer scorer(w);
  const auto [light, heavy] = tiers();
  const double fid_light = scorer.fid_single_tier(light);
  const double fid_heavy = scorer.fid_single_tier(heavy);
  // Light is clearly worse; both land in a plausible FID band.
  EXPECT_GT(fid_light, fid_heavy + 2.0);
  EXPECT_GT(fid_heavy, 8.0);
  EXPECT_LT(fid_light, 35.0);
}

INSTANTIATE_TEST_SUITE_P(AllCascades, PerCascade,
                         ::testing::Range(0, 3));

TEST(Proxies, PickScoreBiasGrowsWithDifficulty) {
  // The documented PickScore failure mode: elaborate (difficult) prompts
  // score higher regardless of quality, so thresholding misroutes.
  Workload w(3000);
  double lo = 0.0, hi = 0.0;
  std::size_t nlo = 0, nhi = 0;
  for (QueryId q = 0; q < w.size(); ++q) {
    if (w.difficulty(q) < 0.2) {
      lo += w.pickscore(q, 2);
      ++nlo;
    } else if (w.difficulty(q) > 0.5) {
      hi += w.pickscore(q, 2);
      ++nhi;
    }
  }
  EXPECT_GT(hi / static_cast<double>(nhi), lo / static_cast<double>(nlo));
}

TEST(Proxies, ClipScoreRewardsArtifacts) {
  // Vivid artifact-heavy generations score slightly higher (anti-quality).
  Workload w(3000);
  double low_err = 0.0, high_err = 0.0;
  std::size_t nl = 0, nh = 0;
  for (QueryId q = 0; q < w.size(); ++q) {
    const double e = w.true_error(q, 2);
    if (e < 2.0) {
      low_err += w.clipscore(q, 2);
      ++nl;
    } else if (e > 4.0) {
      high_err += w.clipscore(q, 2);
      ++nh;
    }
  }
  ASSERT_GT(nl, 10u);
  ASSERT_GT(nh, 10u);
  EXPECT_GT(high_err / static_cast<double>(nh),
            low_err / static_cast<double>(nl));
}

TEST(Fid, ZeroAgainstOwnReference) {
  Workload w(1000);
  FidScorer scorer(w);
  std::vector<std::vector<double>> real;
  for (QueryId q = 0; q < w.size(); ++q) real.push_back(w.real_feature(q));
  // The real set against its own fitted stats: exactly zero.
  EXPECT_NEAR(scorer.fid(real), 0.0, 1e-6);
}

TEST(Fid, MixtureCanBeatPureHeavy) {
  // The Fig. 1a tail: a light/heavy mixture yields lower FID than serving
  // everything on the heavyweight model.
  Workload w(2500);
  FidScorer scorer(w);
  // An unconditioned 85/15 heavy/light mixture sits below pure-heavy FID
  // (the artifact means partially cancel); conditioned (discriminator)
  // mixtures dip much deeper — covered in core_test.
  std::vector<std::vector<double>> mixture;
  for (QueryId q = 0; q < w.size(); ++q)
    mixture.push_back(w.generated_feature(q, q % 20 < 17 ? 5 : 2));
  EXPECT_LT(scorer.fid(mixture), scorer.fid_single_tier(5));
}

TEST(Fid, RequiresTwoSamples) {
  Workload w(100);
  FidScorer scorer(w);
  const std::vector<std::vector<double>> one = {w.real_feature(0)};
  EXPECT_THROW(scorer.fid(one), std::invalid_argument);
}

TEST(Workload, RejectsTinyWorkload) {
  EXPECT_THROW(Workload(4), std::invalid_argument);
}

TEST(Workload, RejectsBadConfig) {
  QualityConfig cfg;
  cfg.feature_dim = 6;
  cfg.style_dims = 6;  // no room for the artifact plane
  EXPECT_THROW(Workload(100, cfg), std::invalid_argument);
}

TEST(TierParams, UnknownTierThrows) {
  EXPECT_THROW(QualityConfig::tier_params(0), std::invalid_argument);
  EXPECT_THROW(QualityConfig::tier_params(7), std::invalid_argument);
}

}  // namespace
}  // namespace diffserve::quality
