// Tests for the DES serving path: engine batch formation and drop policy,
// cascade routing, the metrics sink, and system reconfiguration — all
// exercised through the SimulationBackend (the policy itself lives in
// src/engine/ and is shared with the threaded testbed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "discriminator/discriminator.hpp"
#include "engine/engine.hpp"
#include "engine/metrics_sink.hpp"
#include "models/model_repository.hpp"
#include "quality/fid.hpp"
#include "quality/workload.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace diffserve::serving {
namespace {

Query make_query(std::uint64_t seq, double arrival, double deadline,
                 double stage_deadline) {
  Query q;
  q.seq = seq;
  q.prompt_id = static_cast<quality::QueryId>(seq % 50);
  q.arrival_time = arrival;
  q.deadline = deadline;
  q.stage_deadline = stage_deadline;
  return q;
}

// --- batch-policy tests over a synthetic unit cascade -------------------
//
// Light model "m" has e(1)=1, e(2)=1.5, e(4)=2.5; direct mode with
// p_heavy=0 sends every query through it with no discriminator pass, so
// completion times expose the engine's batching decisions exactly.

models::ModelRepository unit_repo() {
  models::ModelRepository repo;
  repo.register_model({"m", models::ModelKind::kDiffusion,
                       models::LatencyProfile(std::map<int, double>{
                           {1, 1.0}, {2, 1.5}, {4, 2.5}}),
                       /*tier=*/1, 512});
  repo.register_model({"h", models::ModelKind::kDiffusion,
                       models::LatencyProfile::affine(1.0), /*tier=*/2, 512});
  repo.register_model({"d", models::ModelKind::kDiscriminator,
                       models::LatencyProfile::affine(0.01), 0, 512});
  repo.register_cascade({"unit", {"m", "h"}, {"d"}, 100.0});
  return repo;
}

class UnitHarness {
 public:
  explicit UnitHarness(double slo, int total_workers = 1)
      : repo_(unit_repo()) {
    SystemConfig cfg;
    cfg.total_workers = total_workers;
    cfg.slo_seconds = slo;
    cfg.model_load_delay = 0.0;
    // Direct mode never defers: the one boundary needs no discriminator.
    system_ = std::make_unique<ServingSystem>(
        sim_, workload_, repo_, repo_.cascade("unit"),
        std::vector<const discriminator::Discriminator*>{nullptr}, scorer_,
        cfg);
  }

  void apply_direct(int light_batch) {
    AllocationPlan plan;
    plan.mode = RoutingMode::kDirect;
    plan.workers[0] = system_->config().total_workers;
    plan.workers[1] = 0;
    plan.batches[0] = light_batch;
    system_->apply(plan);
  }

  sim::Simulation sim_;
  quality::Workload workload_{60};
  quality::FidScorer scorer_{workload_};
  models::ModelRepository repo_;
  std::unique_ptr<ServingSystem> system_;
};

TEST(EngineBatching, FullBatchStartsImmediately) {
  UnitHarness h(/*slo=*/100.0);
  h.apply_direct(/*light_batch=*/2);
  h.system_->inject_arrivals({0.0, 0.0});
  h.sim_.run_until(1.6);
  // e(2) = 1.5: both queries complete together at 1.5.
  EXPECT_EQ(h.system_->sink().completed(), 2u);
  EXPECT_NEAR(h.system_->sink().mean_latency(), 1.5, 1e-9);
  EXPECT_EQ(h.system_->engine().worker_info(0).processed, 2u);
}

TEST(EngineBatching, UnderfilledBatchLaunchesByTimeout) {
  UnitHarness h(100.0);
  h.apply_direct(4);  // e(4) = 2.5
  h.system_->inject_arrivals({0.0});
  h.sim_.run_until(10.0);
  h.sim_.run_all();
  // Launch capped at oldest + exec = 2.5, completes at 5.0.
  ASSERT_EQ(h.system_->sink().completed(), 1u);
  EXPECT_NEAR(h.system_->sink().mean_latency(), 5.0, 1e-9);
}

TEST(EngineBatching, TightDeadlineForcesEarlyLaunch) {
  UnitHarness h(/*slo=*/3.0);
  h.apply_direct(4);  // e(4) = 2.5
  // Deadline 3.0: must launch by 0.5 to make it.
  h.system_->inject_arrivals({0.0});
  h.sim_.run_until(10.0);
  ASSERT_EQ(h.system_->sink().completed(), 1u);
  EXPECT_NEAR(h.system_->sink().mean_latency(), 3.0, 1e-9);
}

TEST(EngineBatching, DropsOverdueQueriesAtBatchStart) {
  UnitHarness h(/*slo=*/2.5);
  h.apply_direct(1);  // e(1) = 1.0
  // Three queries at t=0; each takes 1s serially; the third would finish
  // at 3.0 but its deadline is 2.5 -> dropped.
  h.system_->inject_arrivals({0.0, 0.0, 0.0});
  h.sim_.run_until(10.0);
  EXPECT_EQ(h.system_->sink().completed(), 2u);
  EXPECT_EQ(h.system_->sink().dropped(), 1u);
  EXPECT_EQ(h.system_->engine().worker_info(0).dropped, 1u);
}

TEST(EngineBatching, RejectsUnsupportedBatch) {
  UnitHarness h(100.0);
  AllocationPlan plan;
  plan.mode = RoutingMode::kDirect;
  plan.workers[0] = 1;
  plan.batches[0] = 3;  // not in the profile {1, 2, 4}
  EXPECT_THROW(h.system_->apply(plan), std::invalid_argument);
}

// --- integration fixtures over a real (small) cascade environment ------

class ServingIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new quality::Workload(600);
    scorer_ = new quality::FidScorer(*workload_);
    repo_ = new models::ModelRepository(
        models::ModelRepository::with_paper_catalog());
    discriminator::DiscriminatorConfig dc;
    dc.train_queries = 400;
    dc.epochs = 3;
    disc_ = new discriminator::Discriminator(
        discriminator::train_discriminator(*workload_, 2, 5, dc));
  }
  static void TearDownTestSuite() {
    delete disc_;
    delete repo_;
    delete scorer_;
    delete workload_;
  }

  static quality::Workload* workload_;
  static quality::FidScorer* scorer_;
  static models::ModelRepository* repo_;
  static discriminator::Discriminator* disc_;
};

quality::Workload* ServingIntegration::workload_ = nullptr;
quality::FidScorer* ServingIntegration::scorer_ = nullptr;
models::ModelRepository* ServingIntegration::repo_ = nullptr;
discriminator::Discriminator* ServingIntegration::disc_ = nullptr;

TEST_F(ServingIntegration, CascadeServesAndDefers) {
  sim::Simulation sim;
  SystemConfig cfg;
  cfg.total_workers = 4;
  cfg.slo_seconds = 5.0;
  cfg.model_load_delay = 0.1;
  ServingSystem system(sim, *workload_, *repo_,
                       repo_->cascade(models::catalog::kCascade1), {disc_},
                       *scorer_, cfg);
  AllocationPlan plan;
  plan.mode = RoutingMode::kCascade;
  plan.workers[0] = 1;
  plan.workers[1] = 3;
  plan.batches[0] = 1;
  plan.batches[1] = 1;
  plan.thresholds[0] = 0.5;
  system.apply(plan);

  std::vector<double> arrivals;
  for (int i = 0; i < 40; ++i) arrivals.push_back(0.5 + i * 0.5);
  system.inject_arrivals(arrivals);
  sim.run_until(60.0);
  sim.run_all();

  const auto& sink = system.sink();
  EXPECT_EQ(sink.total(), 40u);
  EXPECT_GT(sink.completed(), 30u);
  // Both branches exercised: some light-served, some deferred.
  EXPECT_GT(sink.light_served_fraction(), 0.0);
  EXPECT_LT(sink.light_served_fraction(), 1.0);
  EXPECT_GT(sink.overall_fid(), 0.0);
}

TEST_F(ServingIntegration, ThresholdZeroServesEverythingLight) {
  sim::Simulation sim;
  SystemConfig cfg;
  cfg.total_workers = 2;
  cfg.slo_seconds = 5.0;
  cfg.model_load_delay = 0.1;
  ServingSystem system(sim, *workload_, *repo_,
                       repo_->cascade(models::catalog::kCascade1), {disc_},
                       *scorer_, cfg);
  AllocationPlan plan;
  plan.workers[0] = 2;
  plan.workers[1] = 0;
  plan.thresholds[0] = 0.0;
  system.apply(plan);
  std::vector<double> arrivals;
  for (int i = 0; i < 20; ++i) arrivals.push_back(0.2 + i * 0.3);
  system.inject_arrivals(arrivals);
  sim.run_until(30.0);
  sim.run_all();
  EXPECT_EQ(system.sink().completed(), 20u);
  EXPECT_EQ(system.sink().light_served_fraction(), 1.0);
}

TEST_F(ServingIntegration, DirectModeSplitsByProbability) {
  sim::Simulation sim;
  SystemConfig cfg;
  cfg.total_workers = 8;
  cfg.slo_seconds = 10.0;
  cfg.model_load_delay = 0.1;
  cfg.seed = 99;
  ServingSystem system(sim, *workload_, *repo_,
                       repo_->cascade(models::catalog::kCascade1), {disc_},
                       *scorer_, cfg);
  AllocationPlan plan;
  plan.mode = RoutingMode::kDirect;
  plan.workers[0] = 2;
  plan.workers[1] = 6;
  plan.p_heavy = 0.5;
  system.apply(plan);
  std::vector<double> arrivals;
  for (int i = 0; i < 200; ++i) arrivals.push_back(0.1 + i * 0.4);
  system.inject_arrivals(arrivals);
  sim.run_until(120.0);
  sim.run_all();
  const double light_frac = system.sink().light_served_fraction();
  EXPECT_NEAR(light_frac, 0.5, 0.12);
}

TEST_F(ServingIntegration, ReconfigurationPreservesQueries) {
  sim::Simulation sim;
  SystemConfig cfg;
  cfg.total_workers = 4;
  cfg.slo_seconds = 20.0;
  cfg.model_load_delay = 0.2;
  ServingSystem system(sim, *workload_, *repo_,
                       repo_->cascade(models::catalog::kCascade1), {disc_},
                       *scorer_, cfg);
  AllocationPlan plan;
  plan.workers[0] = 3;
  plan.workers[1] = 1;
  plan.thresholds[0] = 0.3;
  system.apply(plan);
  std::vector<double> arrivals;
  for (int i = 0; i < 30; ++i) arrivals.push_back(0.1 * i);
  system.inject_arrivals(arrivals);
  // Mid-stream, flip the split; queued queries must be re-routed, not lost.
  sim.schedule_at(1.5, [&] {
    AllocationPlan p2 = plan;
    p2.workers[0] = 1;
    p2.workers[1] = 3;
    system.apply(p2);
  });
  sim.run_until(60.0);
  sim.run_all();
  EXPECT_EQ(system.sink().total(), 30u);  // nothing vanished
  EXPECT_EQ(system.engine().reconfigurations(), 2u);  // initial + flip
}

TEST_F(ServingIntegration, ThreeStageReconfigurationPreservesQueries) {
  // N=3 mirror of ReconfigurationPreservesQueries: shrinking the middle
  // stage of a chain while its queue is non-empty must re-route or
  // complete every queued query.
  sim::Simulation sim;
  SystemConfig cfg;
  cfg.total_workers = 4;
  cfg.slo_seconds = 25.0;
  cfg.model_load_delay = 0.2;
  ServingSystem system(sim, *workload_, *repo_,
                       repo_->cascade(models::catalog::kChain3), {disc_, disc_},
                       *scorer_, cfg);
  engine::AllocationPlan plan = engine::AllocationPlan::for_stages(3);
  plan.workers = {2, 1, 1};
  plan.thresholds = {1.0, 0.3};  // boundary 0 defers everything inward
  system.apply(plan);

  std::vector<double> arrivals;
  for (int i = 0; i < 30; ++i) arrivals.push_back(0.3 + 0.1 * i);
  system.inject_arrivals(arrivals);
  // Mid-stream, drop the middle stage; its queued deferrals must move on.
  sim.schedule_at(2.0, [&] {
    engine::AllocationPlan p2 = plan;
    p2.workers = {2, 0, 2};
    system.apply(p2);
  });
  sim.run_until(90.0);
  sim.run_all();

  EXPECT_EQ(system.sink().total(), 30u);  // nothing vanished
  EXPECT_EQ(system.engine().reconfigurations(), 2u);  // initial + shrink
  // Deferred traffic really reached deeper stages.
  EXPECT_LT(system.sink().light_served_fraction(), 1.0);
}

TEST_F(ServingIntegration, SinkMetrics) {
  engine::MetricsSink sink(*workload_, *scorer_);
  Query q = make_query(0, 0.0, 5.0, 5.0);
  sink.complete(q, 2, 1.0);  // on time
  Query late = make_query(1, 0.0, 5.0, 5.0);
  sink.complete(late, 5, 6.0);  // late
  Query dropped = make_query(2, 0.0, 5.0, 5.0);
  sink.drop(dropped, 7.0);
  EXPECT_EQ(sink.total(), 3u);
  EXPECT_NEAR(sink.violation_ratio(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(sink.mean_latency(), 3.5, 1e-12);
  EXPECT_NEAR(sink.light_served_fraction(), 1.0, 1e-12);  // none deferred
}

TEST_F(ServingIntegration, SinkTimelineWindows) {
  engine::MetricsSink sink(*workload_, *scorer_);
  for (int i = 0; i < 100; ++i) {
    Query q = make_query(static_cast<std::uint64_t>(i), i * 0.5,
                         i * 0.5 + 5.0, 0.0);
    sink.complete(q, 2, i * 0.5 + 1.0);
  }
  const auto timeline = sink.timeline(10.0, 8);
  ASSERT_GE(timeline.size(), 5u);
  for (const auto& pt : timeline) {
    EXPECT_GE(pt.violation_ratio, 0.0);
    EXPECT_LE(pt.violation_ratio, 1.0);
    if (pt.samples >= 8) EXPECT_GT(pt.fid, 0.0);
  }
}

TEST_F(ServingIntegration, SinkTimelineIgnoresRecordOrder) {
  // Terminals with drops, late completions, an empty window, and times on
  // window edges, fed in time order; their records are then scored in time
  // order, window by window in reverse, and shuffled.
  util::Rng rng(17);
  std::vector<double> times;
  for (int i = 0; i < 300; ++i) {
    double t = rng.uniform(0.0, 60.0);
    if (i % 25 == 0) t = 10.0 * static_cast<double>(i / 25 % 7);  // edges
    if (t >= 30.0 && t < 40.0) t -= 10.0;  // window [30, 40) stays empty
    times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  engine::MetricsSink sink(*workload_, *scorer_);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double t = times[i];
    const bool late = rng.uniform() < 0.2;
    Query q = make_query(i, t - 1.0, t + (late ? -0.5 : 0.5), 0.0);
    if (rng.uniform() < 0.1)
      sink.drop(q, t);
    else
      sink.complete(q, 2 + static_cast<int>(i % 4), t);
  }

  const auto want = sink.timeline(10.0, 8);
  ASSERT_EQ(want.size(), 7u);  // [0, 10) ... [60, 70): t = 60 is an edge
  EXPECT_EQ(want[3].samples, 0u);
  EXPECT_EQ(want[3].fid, -1.0);
  std::size_t total = 0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(want[k].time, 10.0 * static_cast<double>(k));
    total += want[k].samples;
    // The oracle: the window's records picked out and scored directly.
    std::vector<std::vector<double>> features;
    std::size_t n = 0, violated = 0;
    for (const auto& r : sink.records()) {
      if (r.time < want[k].time || r.time >= want[k].time + 10.0) continue;
      ++n;
      if (r.violated) ++violated;
      if (!r.feature.empty()) features.push_back(r.feature);
    }
    EXPECT_EQ(want[k].samples, n) << "window " << k;
    EXPECT_EQ(want[k].violation_ratio,
              n ? static_cast<double>(violated) / static_cast<double>(n) : 0.0)
        << "window " << k;
    if (features.size() >= 8) {
      EXPECT_EQ(want[k].fid, scorer_->fid(features)) << "window " << k;
    }
  }
  EXPECT_EQ(total, times.size());

  auto reversed_windows = sink.records();
  std::stable_sort(reversed_windows.begin(), reversed_windows.end(),
                   [](const auto& a, const auto& b) {
                     return std::floor(a.time / 10.0) >
                            std::floor(b.time / 10.0);
                   });
  auto shuffled = sink.records();
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const auto* records : {&reversed_windows, &shuffled}) {
    const auto got =
        engine::MetricsSink::timeline_of(*records, *scorer_, 10.0, 8);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].time, want[k].time);
      EXPECT_EQ(got[k].samples, want[k].samples);
      EXPECT_EQ(got[k].violation_ratio, want[k].violation_ratio);
      EXPECT_EQ(got[k].throughput, want[k].throughput);
      // Reversing whole windows keeps each window's fold order, so its FID
      // is bit-identical; a shuffle reorders the fold (roundoff only).
      if (records == &reversed_windows) {
        EXPECT_EQ(got[k].fid, want[k].fid) << "window " << k;
      } else {
        EXPECT_NEAR(got[k].fid, want[k].fid, 1e-9 * std::fabs(want[k].fid))
            << "window " << k;
      }
    }
  }
}

TEST_F(ServingIntegration, PlanExceedingClusterRejected) {
  sim::Simulation sim;
  SystemConfig cfg;
  cfg.total_workers = 2;
  ServingSystem system(sim, *workload_, *repo_,
                       repo_->cascade(models::catalog::kCascade1), {disc_},
                       *scorer_, cfg);
  AllocationPlan plan;
  plan.workers[0] = 2;
  plan.workers[1] = 2;
  EXPECT_THROW(system.apply(plan), std::invalid_argument);
}

TEST_F(ServingIntegration, SparesJoinLightPool) {
  sim::Simulation sim;
  SystemConfig cfg;
  cfg.total_workers = 6;
  ServingSystem system(sim, *workload_, *repo_,
                       repo_->cascade(models::catalog::kCascade1), {disc_},
                       *scorer_, cfg);
  AllocationPlan plan;
  plan.workers[0] = 1;
  plan.workers[1] = 2;
  system.apply(plan);
  EXPECT_EQ(system.engine().stage_stats(0).workers, 4);  // 1 + 3 spares
  EXPECT_EQ(system.engine().stage_stats(1).workers, 2);
}

TEST_F(ServingIntegration, FastModeMatchesRecordingModeAggregates) {
  // record_terminal_events=false must change observability only: the
  // serving decisions and every counter / latency aggregate stay exact,
  // while the per-query record log (and the FID/timeline views that need
  // it) is skipped.
  auto run = [&](bool record) {
    sim::Simulation sim;
    SystemConfig cfg;
    cfg.total_workers = 4;
    cfg.slo_seconds = 5.0;
    cfg.record_terminal_events = record;
    auto system = std::make_unique<ServingSystem>(
        sim, *workload_, *repo_, repo_->cascade(models::catalog::kCascade1),
        std::vector<const discriminator::Discriminator*>{disc_}, *scorer_,
        cfg);
    AllocationPlan plan;
    plan.workers[0] = 3;
    plan.workers[1] = 1;
    plan.batches[0] = 2;
    plan.thresholds = {0.5};
    system->apply(plan);
    std::vector<double> arrivals;
    for (int i = 0; i < 200; ++i) arrivals.push_back(0.05 * i);
    system->inject_arrivals(arrivals);
    sim.run_all();
    return system;
  };
  const auto recording = run(true);
  const auto fast = run(false);

  EXPECT_EQ(fast->sink().completed(), recording->sink().completed());
  EXPECT_EQ(fast->sink().dropped(), recording->sink().dropped());
  EXPECT_DOUBLE_EQ(fast->sink().mean_latency(),
                   recording->sink().mean_latency());
  EXPECT_DOUBLE_EQ(fast->sink().latency_percentile(99.0),
                   recording->sink().latency_percentile(99.0));
  EXPECT_DOUBLE_EQ(fast->sink().violation_ratio(),
                   recording->sink().violation_ratio());
  EXPECT_DOUBLE_EQ(fast->sink().light_served_fraction(),
                   recording->sink().light_served_fraction());

  EXPECT_FALSE(recording->sink().records().empty());
  EXPECT_TRUE(fast->sink().records().empty());
  // Record-backed views refuse to report garbage in fast mode.
  EXPECT_THROW(fast->sink().overall_fid(), std::invalid_argument);
  EXPECT_NO_THROW(recording->sink().overall_fid());
}

TEST_F(ServingIntegration, ExecLatencyIncludesDiscriminator) {
  sim::Simulation sim;
  SystemConfig cfg;
  cfg.total_workers = 2;
  ServingSystem system(sim, *workload_, *repo_,
                       repo_->cascade(models::catalog::kCascade1), {disc_},
                       *scorer_, cfg);
  const auto& light =
      repo_->model(models::catalog::kSdTurbo).latency.execution_latency(1);
  EXPECT_GT(system.stage_exec_latency(0, 1), light);
  EXPECT_NEAR(system.stage_exec_latency(1, 1), 1.78, 1e-9);
}

}  // namespace
}  // namespace diffserve::serving
