// Tests for the backend-agnostic CascadeEngine: fidelity parity between
// the DES and threaded backends (the paper's §4.3 check, both sides now
// running the same policy code), and AllocationPlan reconfiguration
// semantics (eviction re-routes, reconfigurations counted once per
// applied plan) on both backends.
#include <gtest/gtest.h>

#include <cmath>

#include "control/exhaustive_allocator.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "runtime/threaded_runtime.hpp"
#include "serving/system.hpp"

namespace diffserve::engine {
namespace {

const core::CascadeEnvironment& shared_env() {
  static const core::CascadeEnvironment env = [] {
    core::EnvironmentConfig cfg;
    cfg.workload_queries = 800;
    cfg.discriminator.train_queries = 500;
    cfg.profile_queries = 500;
    return core::CascadeEnvironment(cfg);
  }();
  return env;
}

TEST(EngineParity, DesAndThreadedBackendsAgree) {
  // §4.3: "an average difference of only 0.56% for FID and 1.1% for SLO
  // violations compared to the testbed". Both backends now execute the
  // same CascadeEngine policy, so on a fixed trace with identical arrivals
  // and allocator the only divergence is wall-clock scheduling jitter.
  const auto tr = trace::RateTrace::azure_like(2.0, 8.0, 80.0, 7);

  core::RunConfig sim_cfg;
  sim_cfg.approach = core::Approach::kDiffServeExhaustive;
  sim_cfg.total_workers = 6;
  sim_cfg.trace = tr;
  // run_threaded seeds its demand estimate from the trace start; match it.
  sim_cfg.controller.initial_demand_guess = tr.qps_at(0.0);
  const auto des = core::run_experiment(shared_env(), sim_cfg);

  control::ExhaustiveAllocator alloc;
  runtime::RuntimeConfig rt_cfg;
  rt_cfg.total_workers = 6;
  rt_cfg.time_scale = 30.0;
  const auto threaded = runtime::run_threaded(shared_env(), alloc, tr, rt_cfg);

  ASSERT_GT(des.overall_fid, 0.0);
  ASSERT_GT(threaded.overall_fid, 0.0);
  const double fid_rel_diff =
      std::fabs(des.overall_fid - threaded.overall_fid) / des.overall_fid;
  EXPECT_LT(fid_rel_diff, 0.05);
  EXPECT_LT(std::fabs(des.violation_ratio - threaded.violation_ratio), 0.05);
  // Identical arrival streams on both backends.
  EXPECT_EQ(des.submitted, threaded.submitted);
}

TEST(EngineEquivalence, DisabledCacheIsByteIdentical) {
  // The reuse cache must be a pure switch: with cache.enabled == false,
  // every other cache/prompt-mix knob in the config is dead state and the
  // run reproduces the default configuration's report *exactly*.
  const auto tr = trace::RateTrace::azure_like(2.0, 8.0, 80.0, 7);
  core::RunConfig rc;
  rc.approach = core::Approach::kDiffServeExhaustive;
  rc.total_workers = 6;
  rc.trace = tr;
  rc.controller.initial_demand_guess = tr.qps_at(0.0);
  const auto plain = core::run_experiment(shared_env(), rc);

  core::RunConfig off = rc;
  off.system.cache.enabled = false;  // the switch under test
  off.system.cache.capacity = 8;     // aggressive dead knobs
  off.system.cache.near_distance = 50.0;
  off.system.cache.far_distance = 50.0;
  off.system.cache.hit_latency = 0.5;
  off.system.cache.interpolate_step_fraction = true;
  off.system.cache.latent_levels = true;
  off.system.cache.index_kind = cache::IndexKind::kLsh;
  const auto gated = core::run_experiment(shared_env(), off);

  EXPECT_EQ(plain, gated);
  EXPECT_EQ(gated.cache.lookups, 0u);
}

TEST(EngineEquivalence, DisabledSloClassesIsByteIdentical) {
  // SLO classes must be a pure switch: with slo_classes.enabled == false,
  // every other class knob (multipliers, queue capacities, weights, the
  // class mix itself) is dead state and the run reproduces the default
  // configuration *exactly*.
  const auto tr = trace::RateTrace::azure_like(2.0, 8.0, 80.0, 7);
  core::RunConfig rc;
  rc.approach = core::Approach::kDiffServeExhaustive;
  rc.total_workers = 6;
  rc.trace = tr;
  rc.controller.initial_demand_guess = tr.qps_at(0.0);
  const auto plain = core::run_experiment(shared_env(), rc);

  core::RunConfig off = rc;
  off.system.slo_classes.enabled = false;  // the switch under test
  off.system.slo_classes.deadline_multiplier = {0.1, 0.5, 100.0};
  off.system.slo_classes.queue_capacity = {1, 2, 3};  // aggressive dead knobs
  off.system.slo_classes.slo_weight = {100.0, 1.0, 0.01};
  off.system.slo_classes.class_aware_scheduling = true;
  off.system.prompt_mix.interactive_share = 0.4;
  off.system.prompt_mix.batch_share = 0.4;
  const auto gated = core::run_experiment(shared_env(), off);

  EXPECT_EQ(plain, gated);
  // With classes off every terminal lands in the kStandard row.
  EXPECT_EQ(gated.classes[1].completed, gated.completed);
  EXPECT_EQ(gated.classes[0].completed + gated.classes[2].completed, 0u);
}

TEST(EngineParity, ThreeClassMixDesAndThreadedAgree) {
  // §4.3 fidelity methodology extended to classed traffic: the same
  // 3-class mix replayed through both backends agrees per class, not just
  // in aggregate.
  const auto tr = trace::RateTrace::azure_like(2.0, 8.0, 80.0, 7);
  SloClassConfig classes;
  classes.enabled = true;
  trace::PromptMixConfig mix;
  mix.interactive_share = 0.3;
  mix.batch_share = 0.3;

  core::RunConfig sim_cfg;
  sim_cfg.approach = core::Approach::kDiffServeExhaustive;
  sim_cfg.total_workers = 6;
  sim_cfg.trace = tr;
  sim_cfg.controller.initial_demand_guess = tr.qps_at(0.0);
  sim_cfg.system.slo_classes = classes;
  sim_cfg.system.prompt_mix = mix;
  const auto des = core::run_experiment(shared_env(), sim_cfg);

  control::ExhaustiveAllocator alloc;
  runtime::RuntimeConfig rt_cfg;
  rt_cfg.total_workers = 6;
  rt_cfg.time_scale = 30.0;
  rt_cfg.slo_classes = classes;
  rt_cfg.prompt_mix = mix;
  const auto threaded = runtime::run_threaded(shared_env(), alloc, tr, rt_cfg);

  ASSERT_GT(des.overall_fid, 0.0);
  ASSERT_GT(threaded.overall_fid, 0.0);
  const double fid_rel_diff =
      std::fabs(des.overall_fid - threaded.overall_fid) / des.overall_fid;
  EXPECT_LT(fid_rel_diff, 0.05);
  EXPECT_EQ(des.submitted, threaded.submitted);
  for (std::size_t c = 0; c < kQueryClassCount; ++c) {
    SCOPED_TRACE(to_string(static_cast<QueryClass>(c)));
    // Identical class streams on both backends (same sampler seed), so
    // the per-class populations match exactly and the per-class SLO
    // outcomes differ only by wall-clock scheduling jitter.
    EXPECT_EQ(des.classes[c].completed + des.classes[c].dropped,
              threaded.classes[c].completed + threaded.classes[c].dropped);
    EXPECT_LT(std::fabs(des.classes[c].violation_ratio -
                        threaded.classes[c].violation_ratio),
              0.05);
  }
  // The mix actually produced all three classes.
  for (std::size_t c = 0; c < kQueryClassCount; ++c)
    EXPECT_GT(des.classes[c].completed + des.classes[c].dropped, 0u);
}

TEST(EngineReconfig, DesEvictionReroutesAndCountsOncePerPlan) {
  const auto& env = shared_env();
  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 4;
  cfg.slo_seconds = 20.0;
  cfg.model_load_delay = 0.5;
  serving::ServingSystem system(sim, env.workload(), env.repository(),
                                env.cascade(), env.discs(), env.scorer(),
                                cfg);

  serving::AllocationPlan a;
  a.workers[0] = 3;
  a.workers[1] = 1;
  a.thresholds[0] = 0.4;
  system.apply(a);
  EXPECT_EQ(system.engine().reconfigurations(), 1u);  // initial load
  system.apply(a);
  // Re-applying an identical plan changes no hosted model: not counted.
  EXPECT_EQ(system.engine().reconfigurations(), 1u);

  // Queue load while the workers are still loading, then flip the split:
  // queued queries on flipped workers are evicted and must be re-routed.
  std::vector<double> arrivals;
  for (int i = 0; i < 24; ++i) arrivals.push_back(0.05 * i);
  system.inject_arrivals(arrivals);
  sim.schedule_at(0.8, [&] {
    serving::AllocationPlan b = a;
    b.workers[0] = 1;
    b.workers[1] = 3;
    system.apply(b);
  });
  sim.run_until(80.0);
  sim.run_all();

  EXPECT_EQ(system.engine().reconfigurations(), 2u);  // one per applied plan
  // Evicted queries were re-routed, not dropped: every arrival terminated.
  EXPECT_EQ(system.sink().total(), 24u);
  EXPECT_GT(system.sink().completed(), 0u);
}

/// Scripted allocator: plan A for the first `flip_after` ticks, plan B
/// afterwards — makes the expected reconfiguration count exact.
class FlipAllocator final : public control::Allocator {
 public:
  explicit FlipAllocator(int flip_after) : flip_after_(flip_after) {}
  control::AllocationDecision allocate(
      const control::AllocationInput&) override {
    control::AllocationDecision d;
    d.feasible = true;
    d.batches[0] = 1;
    d.batches[1] = 1;
    d.thresholds[0] = 0.4;
    const bool flipped = ticks_++ >= flip_after_;
    d.workers[0] = flipped ? 1 : 3;
    d.workers[1] = flipped ? 3 : 1;
    return d;
  }
  std::string name() const override { return "flip"; }

 private:
  int flip_after_;
  int ticks_ = 0;
};

TEST(EngineReconfig, ThreadedEvictionReroutesAndCountsOncePerPlan) {
  const auto tr = trace::RateTrace::constant(3.0, 30.0);
  FlipAllocator alloc(/*flip_after=*/3);  // flip at the 4th control tick
  runtime::RuntimeConfig cfg;
  cfg.total_workers = 4;
  cfg.time_scale = 40.0;
  const auto r = runtime::run_threaded(shared_env(), alloc, tr, cfg);

  // Initial plan + one flip; repeated identical plans are not counted.
  EXPECT_EQ(r.reconfigurations, 2u);
  EXPECT_GT(r.submitted, 50u);
  // Evicted queries were re-routed: everything terminates (small in-flight
  // slack can remain at shutdown).
  EXPECT_GE(r.completed + r.dropped + 5, r.submitted);
}

}  // namespace
}  // namespace diffserve::engine
