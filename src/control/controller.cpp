#include "control/controller.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace diffserve::control {

namespace {

/// Demand smoothing: the Holt level and trend weights, and how many
/// control periods ahead to forecast demand — covers the observation +
/// actuation lag so ramps do not leave the deeper pools underprovisioned.
/// The per-class demand EWMAs share the level weight.
constexpr double kDemandAlpha = 0.4;
constexpr double kTrendBeta = 0.3;
constexpr double kForecastHorizonPeriods = 2.0;
/// Points on each boundary's threshold grid handed to the allocator.
constexpr std::size_t kThresholdGridPoints = 51;
/// Live confidence samples each boundary's online deferral profile keeps.
constexpr std::size_t kOnlineProfileCapacity = 4000;
/// The allocator inputs are discounted by the reuse cache's observed
/// absorption: demand becomes lambda * (1 - h_exact) (exact hits never
/// reach the chain) and per-stage service times scale by the cache's
/// step-fraction savings (approx hits run fewer diffusion steps). The
/// discount is estimated per hit *level* — separate near / far hit-share
/// and step-fraction EWMAs, each smoothing its per-period samples with
/// this weight — so with distance-interpolated fractions each level's
/// discount tracks its actual interpolated mean rather than one pooled
/// average. No-op while no observation has reported an enabled cache.
constexpr double kCacheAlpha = 0.3;

/// The single-engine plane: observes the engine directly and applies the
/// plan to it.
class EnginePlane final : public ServingPlane {
 public:
  explicit EnginePlane(engine::CascadeEngine& engine) : engine_(engine) {}

  const engine::CascadeEngine& reference() const override { return engine_; }
  int total_workers() const override { return engine_.config().total_workers; }
  double slo_seconds() const override { return engine_.config().slo_seconds; }

  Observation observe() override {
    Observation obs;
    obs.demand_rate = engine_.demand_rate();
    obs.class_demand = engine_.class_demand_rates();
    obs.recent_violation_ratio = engine_.recent_violation_ratio();
    obs.cache_enabled = engine_.cache_enabled();
    obs.cache = engine_.cache_stats();
    obs.stages.reserve(engine_.stage_count());
    for (std::size_t s = 0; s < engine_.stage_count(); ++s)
      obs.stages.push_back(engine_.stage_stats(s));
    return obs;
  }

  void apply(const engine::AllocationPlan& plan) override {
    engine_.apply(plan);
  }

 private:
  engine::CascadeEngine& engine_;
};

}  // namespace

Controller::Controller(
    engine::CascadeEngine& engine, std::unique_ptr<Allocator> allocator,
    std::vector<discriminator::DeferralProfile> offline_profiles,
    ControllerConfig cfg)
    : Controller(std::make_unique<EnginePlane>(engine), std::move(allocator),
                 std::move(offline_profiles), cfg) {
  engine.set_confidence_observer([this](std::size_t boundary, double c) {
    observe_confidence(boundary, c);
  });
}

Controller::Controller(
    std::unique_ptr<ServingPlane> plane, std::unique_ptr<Allocator> allocator,
    std::vector<discriminator::DeferralProfile> offline_profiles,
    ControllerConfig cfg)
    : plane_(std::move(plane)),
      allocator_(std::move(allocator)),
      cfg_(cfg),
      demand_holt_(kDemandAlpha, kTrendBeta),
      class_demand_ewma_{{stats::Ewma(kDemandAlpha), stats::Ewma(kDemandAlpha),
                          stats::Ewma(kDemandAlpha)}},
      cache_hit_ewma_(kCacheAlpha),
      cache_near_share_ewma_(kCacheAlpha),
      cache_far_share_ewma_(kCacheAlpha),
      cache_near_frac_ewma_(kCacheAlpha),
      cache_far_frac_ewma_(kCacheAlpha) {
  DS_REQUIRE(plane_ != nullptr, "controller needs a serving plane");
  DS_REQUIRE(allocator_ != nullptr, "controller needs an allocator");
  DS_REQUIRE(cfg_.period_seconds > 0.0, "control period must be positive");
  DS_REQUIRE(offline_profiles.size() == plane_->reference().boundary_count(),
             "need one offline deferral profile per cascade boundary");
  profiles_.reserve(offline_profiles.size());
  for (auto& p : offline_profiles)
    profiles_.emplace_back(std::move(p), kOnlineProfileCapacity);
}

void Controller::observe_confidence(std::size_t boundary, double confidence) {
  util::MutexLock lock(profile_mu_);
  DS_REQUIRE(boundary < profiles_.size(), "confidence for unknown boundary");
  profiles_[boundary].observe(confidence);
}

void Controller::start() {
  if (cfg_.initial_demand_guess > 0.0)
    demand_holt_.observe(cfg_.initial_demand_guess);
  running_.store(true);
  next_tick_time_ = backend().now();
  tick();  // provision immediately rather than serving blind for a period
  schedule_next_tick();
}

void Controller::stop() {
  running_.store(false);
  util::MutexLock lock(tick_mu_);
  if (tick_handle_.valid()) backend().cancel(tick_handle_);
  tick_handle_ = {};
}

void Controller::schedule_next_tick() {
  // Anchor ticks to absolute times so allocator solve time does not
  // stretch the control period on wall-clock backends (the DES executes
  // ticks in zero simulated time, so both backends tick at t0 + k*period).
  next_tick_time_ += cfg_.period_seconds;
  const double delay = next_tick_time_ - backend().now();
  const auto handle = backend().defer(delay, [this] {
    if (!running_.load()) return;
    // The tick (and its allocator solve, potentially a slow MILP) runs
    // through offload() so a concurrent backend's timer thread is never
    // blocked — batch-launch timers keep firing during the solve. On
    // single-threaded backends offload is a synchronous call.
    backend().offload([this] {
      if (!running_.load()) return;
      tick();
      schedule_next_tick();
    });
  });
  util::MutexLock lock(tick_mu_);
  tick_handle_ = handle;
}

void Controller::tick() {
  const double gather_delay = plane_->request_observation();
  if (gather_delay <= 0.0) {
    // The observation is already in — solve on statistics taken at this
    // very instant.
    solve();
    return;
  }
  backend().defer(gather_delay, [this] {
    if (!running_.load()) return;
    backend().offload([this] {
      if (running_.load()) solve();
    });
  });
}

AllocationInput Controller::allocation_input(const Observation& obs) const {
  const engine::CascadeEngine& ref = plane_->reference();
  const std::size_t n = ref.stage_count();
  DS_REQUIRE(obs.stages.size() == n, "observation needs one entry per stage");
  AllocationInput in;
  in.stages.assign(n, {});
  in.boundary_grids.assign(ref.boundary_count(), {});
  // Forecast past the observation + actuation lag so ramps are covered.
  in.demand_qps = demand_holt_.forecast(kForecastHorizonPeriods);
  in.over_provision = cfg_.over_provision;
  in.slo_seconds = plane_->slo_seconds();
  in.total_workers = plane_->total_workers();
  in.recent_violation_ratio = obs.recent_violation_ratio;

  // SLO-class objective: fold the weighted per-class deadlines into one
  // *effective* SLO — the weighted *harmonic* mean of the class deadlines
  // (weights = slo_weight x observed demand), so every allocator
  // provisions against the tiered objective without per-allocator
  // changes. Harmonic, not arithmetic: tight classes must dominate the
  // blend — an arithmetic mean lets a large batch share dilate the target
  // past the standard class's deadline and wreck it, while harmonically
  // the loose batch deadline only relaxes the target when nothing tighter
  // has demand. Classless (or not-yet-observed) inputs keep the plane's
  // SLO, byte-identical to the pre-class controller.
  const auto& sc = ref.config().slo_classes;
  if (sc.enabled) {
    double weight_sum = 0.0;
    double inverse_slo = 0.0;
    for (std::size_t c = 0; c < engine::kQueryClassCount; ++c) {
      const double wc = sc.slo_weight[c] * class_demand_ewma_[c].value();
      weight_sum += wc;
      inverse_slo += wc / (in.slo_seconds * sc.deadline_multiplier[c]);
    }
    if (sc.class_aware_scheduling && weight_sum > 0.0 && inverse_slo > 0.0)
      in.slo_seconds = weight_sum / inverse_slo;
  }

  // Cache-aware discounts: exact hits never reach the chain, so the
  // allocator plans for the *effective* demand lambda * (1 - h_exact);
  // approx hits shorten every stage's batches by the mean step fraction
  // of the remaining traffic. Both are 1x/0 with the cache off, keeping
  // the input byte-identical.
  const double service_discount = effective_service_discount();
  in.demand_qps *= 1.0 - effective_exact_hit_ratio();

  for (std::size_t s = 0; s < n; ++s) {
    auto& stage = in.stages[s];
    stage.queue_length = obs.stages[s].total_queue_length;
    stage.arrival_rate = obs.stages[s].arrival_rate;
    stage.utilization_target = StageObs::default_utilization_target(s);
    // Stage performance model from the reference engine's §3.3 latency
    // math (single source of truth for both backends; a cluster's shards
    // are homogeneous replicas, so any one stands in for all).
    std::map<int, double> lat;
    for (const int b : models::standard_batch_sizes())
      lat[b] = ref.stage_exec_latency(s, b) * service_discount;
    stage.perf =
        StagePerfModel(models::LatencyProfile(std::move(lat)), nullptr);
  }
  {
    util::MutexLock lock(profile_mu_);
    for (std::size_t b = 0; b < profiles_.size(); ++b)
      in.boundary_grids[b] = profiles_[b].grid(kThresholdGridPoints,
                                               cfg_.max_deferral_fraction);
  }
  return in;
}

double Controller::effective_exact_hit_ratio() const {
  if (!cache_seen_enabled_) return 0.0;
  return std::min(0.95, cache_hit_ewma_.value());
}

double Controller::effective_near_hit_ratio() const {
  return cache_seen_enabled_ ? cache_near_share_ewma_.value() : 0.0;
}

double Controller::effective_far_hit_ratio() const {
  return cache_seen_enabled_ ? cache_far_share_ewma_.value() : 0.0;
}

double Controller::effective_service_discount() const {
  if (!cache_seen_enabled_) return 1.0;
  // Each hit level contributes its own smoothed share x smoothed savings
  // (1 - mean step fraction): with interpolated fractions the near and
  // far means drift apart, and one pooled mean would misattribute the
  // discount across a shifting near/far mix.
  double discount = 1.0;
  if (cache_near_share_ewma_.has_value() && cache_near_frac_ewma_.has_value())
    discount -= cache_near_share_ewma_.value() *
                (1.0 - cache_near_frac_ewma_.value());
  if (cache_far_share_ewma_.has_value() && cache_far_frac_ewma_.has_value())
    discount -= cache_far_share_ewma_.value() *
                (1.0 - cache_far_frac_ewma_.value());
  return std::min(1.0, std::max(discount, 0.05));
}

void Controller::observe_cache(const Observation& obs) {
  if (obs.cache_enabled) cache_seen_enabled_ = true;
  if (!cache_seen_enabled_) return;
  const cache::CacheStats& stats = obs.cache;
  const std::uint64_t lookups = stats.lookups - last_cache_stats_.lookups;
  if (lookups > 0) {
    const std::uint64_t exact =
        stats.exact_hits - last_cache_stats_.exact_hits;
    cache_hit_ewma_.observe(static_cast<double>(exact) /
                            static_cast<double>(lookups));
    // Split the non-exact traffic (what still reaches the chain) by hit
    // level: per-level shares and per-level mean step fractions over this
    // period.
    const std::uint64_t non_exact = lookups - exact;
    if (non_exact > 0) {
      const std::uint64_t near = stats.near_hits - last_cache_stats_.near_hits;
      const std::uint64_t far = stats.far_hits - last_cache_stats_.far_hits;
      cache_near_share_ewma_.observe(static_cast<double>(near) /
                                     static_cast<double>(non_exact));
      cache_far_share_ewma_.observe(static_cast<double>(far) /
                                    static_cast<double>(non_exact));
      if (near > 0)
        cache_near_frac_ewma_.observe((stats.near_step_fraction_sum -
                                       last_cache_stats_.near_step_fraction_sum) /
                                      static_cast<double>(near));
      if (far > 0)
        cache_far_frac_ewma_.observe((stats.far_step_fraction_sum -
                                      last_cache_stats_.far_step_fraction_sum) /
                                     static_cast<double>(far));
    }
  }
  last_cache_stats_ = stats;
}

void Controller::solve() {
  const double now = backend().now();
  const Observation obs = plane_->observe();
  // The first tick fires before any arrivals; folding its empty-window
  // observation into the estimate would decay the initial demand guess
  // (and, on a wall-clock backend, `now` is never exactly 0).
  if (!first_tick_) {
    demand_holt_.observe(obs.demand_rate);
    if (plane_->reference().config().slo_classes.enabled)
      for (std::size_t c = 0; c < engine::kQueryClassCount; ++c)
        class_demand_ewma_[c].observe(obs.class_demand[c]);
  }
  first_tick_ = false;
  observe_cache(obs);

  const AllocationInput in = allocation_input(obs);
  const AllocationDecision d = allocator_->allocate(in);
  engine::AllocationPlan plan;
  plan.mode = d.direct_mode ? engine::RoutingMode::kDirect
                            : engine::RoutingMode::kCascade;
  plan.workers = d.workers;
  plan.batches = d.batches;
  plan.thresholds = d.thresholds;
  plan.p_heavy = d.p_heavy;
  plane_->apply(plan);

  history_.push_back({now, in.demand_qps, obs.demand_rate,
                      in.recent_violation_ratio,
                      effective_exact_hit_ratio(),
                      effective_near_hit_ratio(),
                      effective_far_hit_ratio(),
                      effective_service_discount(), d});
  auto& snap = history_.back();
  snap.effective_slo_seconds = in.slo_seconds;
  for (std::size_t c = 0; c < engine::kQueryClassCount; ++c)
    snap.class_demand[c] = class_demand_ewma_[c].value();
  DS_LOG_DEBUG("controller")
      << "t=" << now << " demand=" << in.demand_qps
      << " x0=" << d.workers.front() << " x_last=" << d.workers.back()
      << " b0=" << d.batches.front() << " b_last=" << d.batches.back()
      << (d.feasible ? "" : " (overload)");
}

}  // namespace diffserve::control
