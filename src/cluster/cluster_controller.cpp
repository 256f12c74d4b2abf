#include "cluster/cluster_controller.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "models/latency_profile.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace diffserve::cluster {

ClusterController::ClusterController(
    ShardFrontend& frontend, const engine::CascadeEngine& reference,
    int workers_per_shard, double slo_seconds,
    std::unique_ptr<control::Allocator> allocator,
    std::vector<discriminator::DeferralProfile> offline_profiles,
    ClusterControllerConfig cfg)
    : frontend_(frontend),
      reference_(reference),
      allocator_(std::move(allocator)),
      workers_per_shard_(workers_per_shard),
      slo_seconds_(slo_seconds),
      cfg_(cfg),
      snapshots_(frontend.shard_count()),
      demand_holt_(cfg.control.ewma_alpha, cfg.control.trend_beta),
      cache_hit_ewma_(cfg.control.cache_alpha),
      cache_near_share_ewma_(cfg.control.cache_alpha),
      cache_far_share_ewma_(cfg.control.cache_alpha),
      cache_near_frac_ewma_(cfg.control.cache_alpha),
      cache_far_frac_ewma_(cfg.control.cache_alpha) {
  DS_REQUIRE(allocator_ != nullptr, "cluster controller needs an allocator");
  DS_REQUIRE(frontend_.shard_count() > 0,
             "construct the cluster controller after attaching shards");
  DS_REQUIRE(cfg_.control.period_seconds > 0.0,
             "control period must be positive");
  DS_REQUIRE(offline_profiles.size() == reference_.boundary_count(),
             "need one offline deferral profile per cascade boundary");
  profiles_.reserve(offline_profiles.size());
  for (auto& p : offline_profiles)
    profiles_.emplace_back(std::move(p), cfg_.control.online_profile_capacity);
  frontend_.set_stats_listener([this](const net::ShardStatsMsg& m) {
    util::MutexLock lock(snap_mu_);
    if (m.shard < snapshots_.size()) snapshots_[m.shard] = m;
  });
}

void ClusterController::observe_confidence(std::size_t boundary,
                                           double confidence) {
  util::MutexLock lock(profile_mu_);
  DS_REQUIRE(boundary < profiles_.size(), "confidence for unknown boundary");
  profiles_[boundary].observe(confidence);
}

void ClusterController::start() {
  if (cfg_.control.initial_demand_guess > 0.0)
    demand_holt_.observe(cfg_.control.initial_demand_guess);
  running_.store(true);
  next_tick_time_ = reference_.backend().now();
  tick();  // provision immediately rather than serving blind for a period
  schedule_next_tick();
}

void ClusterController::stop() {
  running_.store(false);
  util::MutexLock lock(tick_mu_);
  if (tick_handle_.valid()) reference_.backend().cancel(tick_handle_);
  tick_handle_ = {};
}

void ClusterController::schedule_next_tick() {
  // Anchored to absolute times, like the single-engine controller, so
  // solve time never stretches the period.
  next_tick_time_ += cfg_.control.period_seconds;
  auto& backend = reference_.backend();
  const double delay = next_tick_time_ - backend.now();
  const auto handle = backend.defer(delay, [this] {
    if (!running_.load()) return;
    reference_.backend().offload([this] {
      if (!running_.load()) return;
      tick();
      schedule_next_tick();
    });
  });
  util::MutexLock lock(tick_mu_);
  tick_handle_ = handle;
}

void ClusterController::tick() {
  const std::uint64_t token = ++token_;
  for (std::size_t s = 0; s < frontend_.shard_count(); ++s)
    frontend_.send_to_shard(
        s, net::encode(net::StatsRequestMsg{static_cast<std::uint32_t>(s),
                                            token}));
  if (cfg_.gather_delay_seconds <= 0.0) {
    // Over a synchronous transport the snapshots are already in — solve
    // on statistics taken at this very instant.
    solve();
    return;
  }
  auto& backend = reference_.backend();
  backend.defer(cfg_.gather_delay_seconds, [this] {
    if (!running_.load()) return;
    reference_.backend().offload([this] {
      if (running_.load()) solve();
    });
  });
}

double ClusterController::effective_exact_hit_ratio() const {
  if (!cfg_.control.cache_aware || !cache_seen_enabled_) return 0.0;
  return std::min(0.95, cache_hit_ewma_.value());
}

double ClusterController::effective_service_discount() const {
  if (!cfg_.control.cache_aware || !cache_seen_enabled_) return 1.0;
  double discount = 1.0;
  if (cache_near_share_ewma_.has_value() && cache_near_frac_ewma_.has_value())
    discount -= cache_near_share_ewma_.value() *
                (1.0 - cache_near_frac_ewma_.value());
  if (cache_far_share_ewma_.has_value() && cache_far_frac_ewma_.has_value())
    discount -= cache_far_share_ewma_.value() *
                (1.0 - cache_far_frac_ewma_.value());
  return std::min(1.0, std::max(discount, 0.05));
}

void ClusterController::observe_cache(const cache::CacheStats& summed,
                                      bool enabled) {
  if (enabled) cache_seen_enabled_ = true;
  if (!cfg_.control.cache_aware || !cache_seen_enabled_) return;
  // Identical differencing to control::Controller::observe_cache, over
  // the cluster-summed counters (all CacheStats fields are additive).
  const std::uint64_t lookups = summed.lookups - last_cache_stats_.lookups;
  if (lookups > 0) {
    const std::uint64_t exact =
        summed.exact_hits - last_cache_stats_.exact_hits;
    cache_hit_ewma_.observe(static_cast<double>(exact) /
                            static_cast<double>(lookups));
    const std::uint64_t non_exact = lookups - exact;
    if (non_exact > 0) {
      const std::uint64_t near = summed.near_hits - last_cache_stats_.near_hits;
      const std::uint64_t far = summed.far_hits - last_cache_stats_.far_hits;
      cache_near_share_ewma_.observe(static_cast<double>(near) /
                                     static_cast<double>(non_exact));
      cache_far_share_ewma_.observe(static_cast<double>(far) /
                                    static_cast<double>(non_exact));
      if (near > 0)
        cache_near_frac_ewma_.observe(
            (summed.near_step_fraction_sum -
             last_cache_stats_.near_step_fraction_sum) /
            static_cast<double>(near));
      if (far > 0)
        cache_far_frac_ewma_.observe(
            (summed.far_step_fraction_sum -
             last_cache_stats_.far_step_fraction_sum) /
            static_cast<double>(far));
    }
  }
  last_cache_stats_ = summed;
}

void ClusterController::solve() {
  const double now = reference_.backend().now();
  std::vector<std::optional<net::ShardStatsMsg>> snaps;
  {
    util::MutexLock lock(snap_mu_);
    snaps = snapshots_;
  }

  double observed = 0.0;
  double violation_sum = 0.0;
  std::size_t violation_n = 0;
  cache::CacheStats summed;
  bool cache_enabled = false;
  const std::size_t n_stages = reference_.stage_count();
  std::vector<double> queue_sum(n_stages, 0.0);
  std::vector<double> arrival_sum(n_stages, 0.0);
  std::vector<double> shard_demand(snaps.size(), 0.0);
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    if (!snaps[s]) continue;
    const auto& m = *snaps[s];
    observed += m.demand_rate;
    shard_demand[s] = m.demand_rate;
    violation_sum += m.recent_violation_ratio;
    ++violation_n;
    cache_enabled = cache_enabled || m.cache_enabled;
    summed += m.cache;
    for (std::size_t st = 0; st < m.stages.size() && st < n_stages; ++st) {
      queue_sum[st] += m.stages[st].queue_length;
      arrival_sum[st] += m.stages[st].arrival_rate;
    }
  }

  // The first tick fires before any arrivals; folding its empty-window
  // observation into the estimate would decay the initial demand guess.
  if (!first_tick_) demand_holt_.observe(observed);
  first_tick_ = false;
  observe_cache(summed, cache_enabled);

  control::AllocationInput in;
  in.stages.assign(n_stages, {});
  in.boundary_grids.assign(reference_.boundary_count(), {});
  in.demand_qps = demand_holt_.forecast(cfg_.control.forecast_horizon_periods);
  in.over_provision = cfg_.control.over_provision;
  in.slo_seconds = slo_seconds_;
  in.total_workers =
      workers_per_shard_ * static_cast<int>(frontend_.shard_count());
  in.recent_violation_ratio =
      violation_n > 0 ? violation_sum / static_cast<double>(violation_n) : 0.0;
  const double service_discount = effective_service_discount();
  in.demand_qps *= 1.0 - effective_exact_hit_ratio();
  for (std::size_t s = 0; s < n_stages; ++s) {
    auto& stage = in.stages[s];
    stage.queue_length = queue_sum[s];
    stage.arrival_rate = arrival_sum[s];
    stage.utilization_target = control::StageObs::default_utilization_target(s);
    // Shards are homogeneous replicas: the reference engine's §3.3
    // latency math (guarded const read) stands in for every shard.
    std::map<int, double> lat;
    for (const int b : models::standard_batch_sizes())
      lat[b] = reference_.stage_exec_latency(s, b) * service_discount;
    stage.perf = control::StagePerfModel(
        models::LatencyProfile(std::move(lat)), nullptr);
  }
  {
    util::MutexLock lock(profile_mu_);
    for (std::size_t b = 0; b < profiles_.size(); ++b)
      in.boundary_grids[b] = profiles_[b].grid(
          cfg_.control.threshold_grid_points,
          cfg_.control.max_deferral_fraction);
  }

  const control::AllocationDecision d = allocator_->allocate(in);
  const std::vector<engine::AllocationPlan> plans =
      split_plan(d, shard_demand, workers_per_shard_);
  for (std::size_t s = 0; s < plans.size(); ++s)
    frontend_.send_to_shard(
        s, net::encode(net::PlanMsg{static_cast<std::uint32_t>(s), plans[s]}));

  const bool cache_on = cfg_.control.cache_aware && cache_seen_enabled_;
  history_.push_back({now, in.demand_qps, observed, in.recent_violation_ratio,
                      effective_exact_hit_ratio(),
                      cache_on ? cache_near_share_ewma_.value() : 0.0,
                      cache_on ? cache_far_share_ewma_.value() : 0.0,
                      service_discount, d, {}, in.slo_seconds});
  DS_LOG_DEBUG("cluster-controller")
      << "t=" << now << " demand=" << in.demand_qps
      << " shards=" << frontend_.shard_count()
      << " x0=" << d.workers.front() << " x_last=" << d.workers.back()
      << (d.feasible ? "" : " (overload)");
}

std::vector<engine::AllocationPlan> ClusterController::split_plan(
    const control::AllocationDecision& d,
    const std::vector<double>& shard_demand, int workers_per_shard) {
  const std::size_t n = shard_demand.size();
  DS_REQUIRE(n > 0, "split_plan over zero shards");
  const std::size_t n_stages = d.workers.size();

  std::vector<engine::AllocationPlan> plans(n);
  for (auto& p : plans) {
    p.mode = d.direct_mode ? engine::RoutingMode::kDirect
                           : engine::RoutingMode::kCascade;
    p.workers.assign(n_stages, 0);
    p.batches = d.batches;
    p.thresholds = d.thresholds;
    p.p_heavy = d.p_heavy;
  }

  // Demand shares; a demand-free cluster (first tick) splits evenly.
  std::vector<double> w = shard_demand;
  double total = 0.0;
  for (double x : w) total += x;
  if (total <= 0.0) {
    w.assign(n, 1.0);
    total = static_cast<double>(n);
  }
  std::vector<int> capacity(n, workers_per_shard);

  // Deepest stage first: the scarce downstream pools get apportioned
  // before entry pools eat shard capacity.
  for (std::size_t s = n_stages; s-- > 0;) {
    const int x = d.workers[s];
    if (x <= 0) continue;
    std::vector<int> give(n, 0);
    std::vector<double> frac(n, 0.0);
    int assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double target = static_cast<double>(x) * w[i] / total;
      const double fl = std::floor(target + 1e-9);
      give[i] = std::min(static_cast<int>(fl), capacity[i]);
      frac[i] = target - fl;
      assigned += give[i];
    }
    // Largest-remainder distribution of the leftovers, ties and repeat
    // passes resolved by shard index — fully deterministic.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (frac[a] != frac[b]) return frac[a] > frac[b];
      return a < b;
    });
    int rem = x - assigned;
    while (rem > 0) {
      bool progress = false;
      for (const std::size_t i : order) {
        if (rem == 0) break;
        if (give[i] < capacity[i]) {
          ++give[i];
          --rem;
          progress = true;
        }
      }
      if (!progress) break;  // cluster at capacity; surplus workers unplaced
    }
    for (std::size_t i = 0; i < n; ++i) {
      plans[i].workers[s] = give[i];
      capacity[i] -= give[i];
    }
  }
  return plans;
}

}  // namespace diffserve::cluster
