#include "core/experiment.hpp"

#include "baselines/baselines.hpp"
#include "control/allocator_variants.hpp"
#include "control/exhaustive_allocator.hpp"
#include "control/milp_allocator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace diffserve::core {

const char* to_string(Approach a) {
  switch (a) {
    case Approach::kDiffServe: return "DiffServe";
    case Approach::kDiffServeExhaustive: return "DiffServe-Exhaustive";
    case Approach::kDiffServeStatic: return "DiffServe-Static";
    case Approach::kClipperLight: return "Clipper-Light";
    case Approach::kClipperHeavy: return "Clipper-Heavy";
    case Approach::kProteus: return "Proteus";
    case Approach::kAblationStaticThreshold: return "Static-Threshold";
    case Approach::kAblationAimdBatching: return "AIMD-Batching";
    case Approach::kAblationNoQueueModel: return "No-Queuing-Model";
  }
  return "?";
}

const std::vector<Approach>& comparison_approaches() {
  static const std::vector<Approach> order = {
      Approach::kClipperLight, Approach::kClipperHeavy, Approach::kProteus,
      Approach::kDiffServeStatic, Approach::kDiffServe};
  return order;
}

namespace {

/// Fixed operating point for DiffServe-Static / the static-threshold
/// ablation, expressed as a deferral fraction; the matching confidence
/// threshold comes from the offline profile (f^{-1}). A static system must
/// pick one operating point for all loads; even a peak-conscious choice
/// under-serves when demand exceeds the provisioning assumption and
/// under-delivers quality the rest of the time (§4.3).
constexpr double kStaticDeferralFraction = 0.25;

std::unique_ptr<control::Allocator> make_allocator(
    const CascadeEnvironment& env, const RunConfig& cfg) {
  using control::Allocator;
  // Lazy: a depth-1 chain has no boundary profile, and only the static
  // approaches need the fixed operating point.
  const auto static_threshold = [&] {
    return env.offline_profile().threshold_for_fraction(
        kStaticDeferralFraction);
  };
  switch (cfg.approach) {
    case Approach::kDiffServe:
      return std::make_unique<control::MilpAllocator>();
    case Approach::kDiffServeExhaustive:
      return std::make_unique<control::ExhaustiveAllocator>();
    case Approach::kDiffServeStatic:
      return std::make_unique<baselines::DiffServeStaticAllocator>(
          cfg.trace.max_qps(), static_threshold());
    case Approach::kClipperLight:
      return std::make_unique<baselines::ClipperAllocator>(
          baselines::ClipperAllocator::Variant::kLight);
    case Approach::kClipperHeavy:
      return std::make_unique<baselines::ClipperAllocator>(
          baselines::ClipperAllocator::Variant::kHeavy);
    case Approach::kProteus:
      return std::make_unique<baselines::ProteusAllocator>();
    case Approach::kAblationStaticThreshold:
      return std::make_unique<control::StaticThresholdAllocator>(
          std::make_unique<control::MilpAllocator>(), static_threshold());
    case Approach::kAblationAimdBatching:
      return std::make_unique<control::AimdBatchAllocator>(
          std::make_unique<control::ExhaustiveAllocator>());
    case Approach::kAblationNoQueueModel:
      return std::make_unique<control::NoQueueModelAllocator>(
          std::make_unique<control::MilpAllocator>());
  }
  DS_CHECK(false, "unreachable approach");
  return nullptr;
}

}  // namespace

RunReport run_experiment(const CascadeEnvironment& env, const RunConfig& cfg) {
  DS_REQUIRE(cfg.trace.samples().size() >= 2, "run needs a trace");
  sim::Simulation sim;

  serving::SystemConfig sys_cfg = cfg.system;
  sys_cfg.total_workers = cfg.total_workers;
  sys_cfg.slo_seconds =
      cfg.slo_seconds > 0.0 ? cfg.slo_seconds : env.default_slo();

  serving::ServingSystem system(sim, env.workload(), env.repository(),
                                env.cascade(), env.discs(), env.scorer(),
                                sys_cfg);

  control::ControllerConfig ctrl_cfg = cfg.controller;
  if (ctrl_cfg.initial_demand_guess <= 0.0)
    ctrl_cfg.initial_demand_guess = cfg.trace.qps_at(0.0);
  control::Controller controller(system.engine(), make_allocator(env, cfg),
                                 env.offline_profiles(), ctrl_cfg);

  util::Rng arrival_rng(cfg.arrival_seed);
  const auto arrivals =
      trace::generate_arrivals(cfg.trace, arrival_rng, cfg.arrivals);
  system.inject_arrivals(arrivals);

  controller.start();
  sim.run_until(cfg.trace.duration() + sys_cfg.slo_seconds +
                cfg.drain_seconds);
  controller.stop();
  // Drain any stragglers (e.g. batches launched right at the horizon).
  sim.run_all();

  return make_run_report(system.sink(), system.engine().submitted(),
                         {&system.engine()}, cfg.trace.duration(),
                         controller.history(), cfg.timeline_window);
}

}  // namespace diffserve::core
