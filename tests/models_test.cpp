// Tests for the model repository and latency profiles against the paper's
// published numbers.
#include <gtest/gtest.h>

#include "models/latency_profile.hpp"
#include "models/model_repository.hpp"

namespace diffserve::models {
namespace {

TEST(LatencyProfile, AffineMatchesBaseAtBatchOne) {
  const auto p = LatencyProfile::affine(1.78);
  EXPECT_NEAR(p.execution_latency(1), 1.78, 1e-12);
}

TEST(LatencyProfile, LatencyMonotoneInBatch) {
  const auto p = LatencyProfile::affine(0.1);
  double prev = 0.0;
  for (const int b : p.batch_sizes()) {
    EXPECT_GT(p.execution_latency(b), prev);
    prev = p.execution_latency(b);
  }
}

TEST(LatencyProfile, ThroughputImprovesWithBatching) {
  const auto p = LatencyProfile::affine(1.0, 0.3);
  EXPECT_GT(p.throughput(32), p.throughput(1));
  EXPECT_NEAR(p.peak_throughput(), p.throughput(32), 1e-12);
}

TEST(LatencyProfile, MinBatchForThroughput) {
  const auto p = LatencyProfile::affine(1.0, 0.3);
  // T(1) = 1.0; T(2) = 2/1.7 ~ 1.18
  EXPECT_EQ(p.min_batch_for_throughput(1.1), 2);
  EXPECT_EQ(p.min_batch_for_throughput(0.5), 1);
  EXPECT_EQ(p.min_batch_for_throughput(1000.0), -1);
}

TEST(LatencyProfile, ExplicitMeasurements) {
  LatencyProfile p(std::map<int, double>{{1, 0.5}, {4, 1.0}});
  EXPECT_TRUE(p.supports(4));
  EXPECT_FALSE(p.supports(2));
  EXPECT_EQ(p.max_batch_size(), 4);
  EXPECT_THROW(p.execution_latency(2), std::invalid_argument);
}

TEST(LatencyProfile, RejectsInvalid) {
  EXPECT_THROW(LatencyProfile(std::map<int, double>{}),
               std::invalid_argument);
  EXPECT_THROW(LatencyProfile(std::map<int, double>{{1, -0.5}}),
               std::invalid_argument);
  // Non-monotone batch latency is physically impossible.
  EXPECT_THROW(LatencyProfile(std::map<int, double>{{1, 2.0}, {2, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(LatencyProfile::affine(0.0), std::invalid_argument);
}

TEST(Repository, PaperCatalogLatencies) {
  const auto repo = ModelRepository::with_paper_catalog();
  // §4.1 measured single-image latencies on A100-80GB.
  EXPECT_NEAR(repo.model(catalog::kSdTurbo).latency.execution_latency(1),
              0.10, 1e-9);
  EXPECT_NEAR(repo.model(catalog::kSdV15).latency.execution_latency(1),
              1.78, 1e-9);
  EXPECT_NEAR(repo.model(catalog::kSdxs).latency.execution_latency(1), 0.05,
              1e-9);
  EXPECT_NEAR(
      repo.model(catalog::kSdxlLightning).latency.execution_latency(1), 0.5,
      1e-9);
  EXPECT_NEAR(repo.model(catalog::kSdxl).latency.execution_latency(1), 6.0,
              1e-9);
  // §4.4 discriminator latencies: 10 / 2 / 5 ms.
  EXPECT_NEAR(
      repo.model(catalog::kEfficientNet).latency.execution_latency(1), 0.010,
      1e-9);
  EXPECT_NEAR(repo.model(catalog::kResNet).latency.execution_latency(1),
              0.002, 1e-9);
  EXPECT_NEAR(repo.model(catalog::kViT).latency.execution_latency(1), 0.005,
              1e-9);
}

TEST(Repository, PaperCascades) {
  const auto repo = ModelRepository::with_paper_catalog();
  const auto& c1 = repo.cascade(catalog::kCascade1);
  EXPECT_EQ(c1.chain,
            (std::vector<std::string>{catalog::kSdTurbo, catalog::kSdV15}));
  EXPECT_EQ(c1.slo_seconds, 5.0);
  const auto& c3 = repo.cascade(catalog::kCascade3);
  EXPECT_EQ(c3.chain, (std::vector<std::string>{catalog::kSdxlLightning,
                                                catalog::kSdxl}));
  EXPECT_EQ(c3.slo_seconds, 15.0);
}

TEST(Repository, QualityTiersOrderHeavierModelsHigher) {
  const auto repo = ModelRepository::with_paper_catalog();
  EXPECT_LT(repo.model(catalog::kSdTurbo).quality_tier,
            repo.model(catalog::kSdV15).quality_tier);
  EXPECT_LT(repo.model(catalog::kSdxs).quality_tier,
            repo.model(catalog::kSdTurbo).quality_tier);
  EXPECT_LT(repo.model(catalog::kSdxlLightning).quality_tier,
            repo.model(catalog::kSdxl).quality_tier);
}

TEST(Repository, DuplicateRegistrationRejected) {
  ModelRepository repo;
  repo.register_model({"m", ModelKind::kDiffusion,
                       LatencyProfile::affine(1.0), 1, 512});
  EXPECT_THROW(repo.register_model({"m", ModelKind::kDiffusion,
                                    LatencyProfile::affine(1.0), 1, 512}),
               std::invalid_argument);
}

TEST(Repository, CascadeValidation) {
  ModelRepository repo;
  repo.register_model({"light", ModelKind::kDiffusion,
                       LatencyProfile::affine(0.1), 1, 512});
  repo.register_model({"heavy", ModelKind::kDiffusion,
                       LatencyProfile::affine(1.0), 2, 512});
  repo.register_model({"disc", ModelKind::kDiscriminator,
                       LatencyProfile::affine(0.01), 0, 512});
  // Unknown member.
  EXPECT_THROW(
      repo.register_cascade({"c", {"light", "missing"}, {"disc"}, 5.0}),
      std::invalid_argument);
  // Discriminator must have the right kind.
  EXPECT_THROW(
      repo.register_cascade({"c", {"light", "heavy"}, {"heavy"}, 5.0}),
      std::invalid_argument);
  // Valid.
  EXPECT_NO_THROW(
      repo.register_cascade({"c", {"light", "heavy"}, {"disc"}, 5.0}));
  EXPECT_EQ(repo.cascade("c").chain.back(), "heavy");
}

TEST(Repository, UnknownLookupsThrow) {
  const auto repo = ModelRepository::with_paper_catalog();
  EXPECT_THROW(repo.model("nope"), std::invalid_argument);
  EXPECT_THROW(repo.cascade("nope"), std::invalid_argument);
  EXPECT_FALSE(repo.has_model("nope"));
}

TEST(Repository, CatalogListsAllNames) {
  const auto repo = ModelRepository::with_paper_catalog();
  EXPECT_EQ(repo.model_names().size(), 8u);
  // Three paper cascades + the three-stage chain and the solo deployment.
  EXPECT_EQ(repo.cascade_names().size(), 5u);
}

TEST(Repository, PairRegistrationNormalizesToChain) {
  const auto repo = ModelRepository::with_paper_catalog();
  const auto& c1 = repo.cascade(catalog::kCascade1);
  ASSERT_EQ(c1.chain.size(), 2u);
  EXPECT_EQ(c1.stage_model(0), catalog::kSdTurbo);
  EXPECT_EQ(c1.stage_model(1), catalog::kSdV15);
  ASSERT_EQ(c1.discriminators.size(), 1u);
  EXPECT_EQ(c1.boundary_discriminator(0), catalog::kEfficientNet);
  EXPECT_EQ(c1.boundary_count(), 1u);
}

TEST(Repository, ChainRegistrationSyncsPairAliases) {
  const auto repo = ModelRepository::with_paper_catalog();
  const auto& chain3 = repo.cascade(catalog::kChain3);
  ASSERT_EQ(chain3.chain.size(), 3u);
  EXPECT_EQ(chain3.stage_model(0), catalog::kSdxs);
  EXPECT_EQ(chain3.stage_model(2), catalog::kSdV15);
  EXPECT_EQ(chain3.boundary_count(), 2u);
  EXPECT_EQ(chain3.boundary_discriminator(1), catalog::kEfficientNet);

  const auto& solo = repo.cascade(catalog::kSoloHeavy);
  ASSERT_EQ(solo.chain.size(), 1u);
  EXPECT_EQ(solo.stage_model(0), catalog::kSdV15);
  EXPECT_EQ(solo.boundary_count(), 0u);
  EXPECT_TRUE(solo.discriminators.empty());
}

TEST(Repository, ChainValidation) {
  ModelRepository repo;
  repo.register_model({"a", ModelKind::kDiffusion,
                       LatencyProfile::affine(0.1), 1, 512});
  repo.register_model({"b", ModelKind::kDiffusion,
                       LatencyProfile::affine(0.5), 2, 512});
  repo.register_model({"c", ModelKind::kDiffusion,
                       LatencyProfile::affine(1.0), 3, 512});
  repo.register_model({"disc", ModelKind::kDiscriminator,
                       LatencyProfile::affine(0.01), 0, 512});

  // A single discriminator entry is replicated across every boundary.
  CascadeSpec ok;
  ok.name = "abc";
  ok.chain = {"a", "b", "c"};
  ok.discriminators = {"disc"};
  EXPECT_NO_THROW(repo.register_cascade(ok));
  EXPECT_EQ(repo.cascade("abc").discriminators.size(), 2u);

  // Unknown stage model.
  CascadeSpec bad = ok;
  bad.name = "bad1";
  bad.chain = {"a", "missing", "c"};
  EXPECT_THROW(repo.register_cascade(bad), std::invalid_argument);

  // A diffusion model cannot gate a boundary.
  bad = ok;
  bad.name = "bad2";
  bad.discriminators = {"b", "b"};
  EXPECT_THROW(repo.register_cascade(bad), std::invalid_argument);

  // Multi-boundary chains need a discriminator.
  bad = ok;
  bad.name = "bad3";
  bad.discriminators.clear();
  EXPECT_THROW(repo.register_cascade(bad), std::invalid_argument);

  // A cascade needs at least one stage.
  bad = ok;
  bad.name = "bad4";
  bad.chain.clear();
  EXPECT_THROW(repo.register_cascade(bad), std::invalid_argument);
}

TEST(StandardBatchSizes, PowersOfTwoUpTo32) {
  EXPECT_EQ(standard_batch_sizes(),
            (std::vector<int>{1, 2, 4, 8, 16, 32}));
}

}  // namespace
}  // namespace diffserve::models
