// Tests for the core facade: environment assembly, offline sweeps
// (Figure 1 methodology), the Pareto helper, and full end-to-end
// experiments for every approach (parameterized).
#include <gtest/gtest.h>

#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "core/offline_eval.hpp"

namespace diffserve::core {
namespace {

const CascadeEnvironment& shared_env() {
  static const CascadeEnvironment env = [] {
    EnvironmentConfig cfg;
    cfg.workload_queries = 1000;
    cfg.discriminator.train_queries = 600;
    cfg.profile_queries = 600;
    return CascadeEnvironment(cfg);
  }();
  return env;
}

trace::RateTrace short_trace() {
  return trace::RateTrace::azure_like(3.0, 14.0, 90.0, 11);
}

TEST(Environment, AssemblesCascade1) {
  const auto& env = shared_env();
  EXPECT_EQ(env.cascade().name, models::catalog::kCascade1);
  EXPECT_EQ(env.stage_tier(0), 2);
  EXPECT_EQ(env.stage_tier(1), 5);
  EXPECT_EQ(env.default_slo(), 5.0);
  EXPECT_GT(env.offline_profile().sample_count(), 100u);
}

TEST(Environment, AssemblesThreeStageChain) {
  EnvironmentConfig cfg;
  cfg.cascade = models::catalog::kChain3;
  cfg.workload_queries = 600;
  cfg.discriminator.train_queries = 300;
  cfg.profile_queries = 300;
  const CascadeEnvironment env(cfg);
  EXPECT_EQ(env.stage_count(), 3u);
  ASSERT_EQ(env.boundary_count(), 2u);
  EXPECT_EQ(env.stage_tiers(), (std::vector<int>{1, 2, 5}));
  // One trained discriminator and offline profile per boundary.
  EXPECT_GT(env.offline_profile(0).sample_count(), 100u);
  EXPECT_GT(env.offline_profile(1).sample_count(), 100u);
  ASSERT_EQ(env.discs().size(), 2u);

  // And the chain serves end-to-end through the standard experiment
  // driver: all three stages produce completions.
  RunConfig rc;
  rc.approach = Approach::kDiffServeExhaustive;
  rc.total_workers = 8;
  rc.trace = trace::RateTrace::constant(6.0, 40.0);
  const auto r = run_experiment(env, rc);
  EXPECT_GT(r.completed, 100u);
  ASSERT_EQ(r.stage_served_fraction.size(), 3u);
  for (const double f : r.stage_served_fraction) EXPECT_GT(f, 0.0);
  EXPECT_GT(r.overall_fid, 0.0);
}

TEST(OfflineEval, DeferralSweepEndpoints) {
  SweepOptions opts;
  opts.points = 5;
  opts.eval_queries = 600;
  const auto pts =
      sweep_cascade(shared_env(), RoutingSignal::kDiscriminator, opts);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_NEAR(pts.front().actual_deferral, 0.0, 1e-9);
  EXPECT_NEAR(pts.back().actual_deferral, 1.0, 1e-9);
  // Latency rises with deferral (heavy pass added).
  EXPECT_GT(pts.back().avg_latency_s, pts.front().avg_latency_s);
}

TEST(OfflineEval, DiscriminatorBeatsRandomAtMidDeferral) {
  SweepOptions opts;
  opts.points = 5;  // 0, .25, .5, .75, 1
  opts.eval_queries = 600;
  opts.random_repeats = 5;
  const auto disc =
      sweep_cascade(shared_env(), RoutingSignal::kDiscriminator, opts);
  const auto rand = sweep_cascade(shared_env(), RoutingSignal::kRandom, opts);
  // At 50% deferral the learned router must be clearly better (Fig. 1a).
  EXPECT_LT(disc[2].fid, rand[2].fid - 0.5);
}

TEST(OfflineEval, ProxyMetricsDoNotBeatRandom) {
  SweepOptions opts;
  opts.points = 5;
  opts.eval_queries = 600;
  opts.random_repeats = 5;
  const auto rand = sweep_cascade(shared_env(), RoutingSignal::kRandom, opts);
  const auto pick =
      sweep_cascade(shared_env(), RoutingSignal::kPickScore, opts);
  const auto clip =
      sweep_cascade(shared_env(), RoutingSignal::kClipScore, opts);
  // Mid-sweep, neither proxy should improve on random (§2.2's finding).
  EXPECT_GE(pick[2].fid, rand[2].fid - 0.3);
  EXPECT_GE(clip[2].fid, rand[2].fid - 0.3);
}

TEST(OfflineEval, OracleIsLowerBound) {
  SweepOptions opts;
  opts.points = 5;
  opts.eval_queries = 600;
  const auto disc =
      sweep_cascade(shared_env(), RoutingSignal::kDiscriminator, opts);
  const auto oracle =
      sweep_cascade(shared_env(), RoutingSignal::kOracle, opts);
  EXPECT_LE(oracle[2].fid, disc[2].fid + 0.2);
}

TEST(OfflineEval, EndpointsAgreeAcrossSignals) {
  // At deferral 0 and 1 the routing signal is irrelevant.
  SweepOptions opts;
  opts.points = 3;
  opts.eval_queries = 500;
  const auto a =
      sweep_cascade(shared_env(), RoutingSignal::kDiscriminator, opts);
  const auto b =
      sweep_cascade(shared_env(), RoutingSignal::kPickScore, opts);
  EXPECT_NEAR(a.front().fid, b.front().fid, 1e-9);
  EXPECT_NEAR(a.back().fid, b.back().fid, 1e-9);
}

TEST(OfflineEval, SingleModelPoints) {
  const auto pts = single_model_points(
      shared_env(), {models::catalog::kSdTurbo, models::catalog::kSdV15});
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_GT(pts[0].fid, pts[1].fid);             // light is worse
  EXPECT_LT(pts[0].avg_latency_s, pts[1].avg_latency_s);
}

TEST(ParetoFront, KeepsOnlyNonDominated) {
  const std::vector<std::pair<double, double>> pts = {
      {1.0, 5.0}, {2.0, 3.0}, {3.0, 4.0}, {4.0, 1.0}, {5.0, 2.0}};
  const auto front = pareto_front_min_min(pts);
  // (3,4) dominated by (2,3); (5,2) dominated by (4,1).
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(ParetoFront, SinglePoint) {
  EXPECT_EQ(pareto_front_min_min({{1.0, 1.0}}).size(), 1u);
}

class EveryApproach : public ::testing::TestWithParam<Approach> {};

TEST_P(EveryApproach, RunsToCompletionWithSaneMetrics) {
  RunConfig rc;
  rc.approach = GetParam();
  rc.total_workers = 8;
  rc.trace = short_trace();
  const auto r = run_experiment(shared_env(), rc);
  // Conservation: every submitted query terminates exactly once.
  EXPECT_EQ(r.submitted, r.completed + r.dropped);
  EXPECT_GT(r.submitted, 100u);
  EXPECT_GE(r.violation_ratio, 0.0);
  EXPECT_LE(r.violation_ratio, 1.0);
  if (r.completed >= 2) {
    EXPECT_GT(r.overall_fid, 0.0);
    EXPECT_LT(r.overall_fid, 60.0);
  }
  EXPECT_GE(r.mean_latency, 0.0);
  EXPECT_FALSE(r.timeline.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllApproaches, EveryApproach,
    ::testing::Values(Approach::kDiffServe, Approach::kDiffServeExhaustive,
                      Approach::kDiffServeStatic, Approach::kClipperLight,
                      Approach::kClipperHeavy, Approach::kProteus,
                      Approach::kAblationStaticThreshold,
                      Approach::kAblationAimdBatching,
                      Approach::kAblationNoQueueModel),
    [](const auto& info) {
      std::string n = to_string(info.param);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(Experiment, DiffServeBeatsClipperLightOnQuality) {
  RunConfig rc;
  rc.total_workers = 8;
  rc.trace = short_trace();
  rc.approach = Approach::kDiffServe;
  const auto ds = run_experiment(shared_env(), rc);
  rc.approach = Approach::kClipperLight;
  const auto cl = run_experiment(shared_env(), rc);
  EXPECT_LT(ds.overall_fid, cl.overall_fid);
}

TEST(Experiment, DiffServeBeatsClipperHeavyOnViolations) {
  RunConfig rc;
  rc.total_workers = 8;
  rc.trace = short_trace();
  rc.approach = Approach::kDiffServe;
  const auto ds = run_experiment(shared_env(), rc);
  rc.approach = Approach::kClipperHeavy;
  const auto ch = run_experiment(shared_env(), rc);
  EXPECT_LT(ds.violation_ratio, ch.violation_ratio);
}

TEST(Experiment, ControllerHistoryRecorded) {
  RunConfig rc;
  rc.total_workers = 8;
  rc.trace = short_trace();
  const auto r = run_experiment(shared_env(), rc);
  EXPECT_GT(r.control_history.size(), 10u);
  EXPECT_GT(r.mean_solve_ms(), 0.0);
  for (const auto& h : r.control_history) {
    EXPECT_LE(h.decision.workers[0] + h.decision.workers[1], 8);
    EXPECT_GE(h.decision.thresholds[0], 0.0);
    EXPECT_LE(h.decision.thresholds[0], 1.0);
  }
}

TEST(Experiment, DeterministicForSameSeeds) {
  RunConfig rc;
  rc.total_workers = 8;
  rc.trace = short_trace();
  const auto a = run_experiment(shared_env(), rc);
  const auto b = run_experiment(shared_env(), rc);
  EXPECT_EQ(a, b);
}

TEST(Experiment, RequiresTrace) {
  RunConfig rc;  // no trace set
  EXPECT_THROW(run_experiment(shared_env(), rc), std::invalid_argument);
}

TEST(Approaches, NamesAndComparisonList) {
  EXPECT_STREQ(to_string(Approach::kDiffServe), "DiffServe");
  EXPECT_STREQ(to_string(Approach::kClipperHeavy), "Clipper-Heavy");
  EXPECT_EQ(comparison_approaches().size(), 5u);
}

}  // namespace
}  // namespace diffserve::core
