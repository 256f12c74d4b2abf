// The DiffServe Controller (§3.1, §3.3).
//
// Every control period it: (1) snapshots runtime statistics from the
// engine (demand, per-stage queue lengths and arrival rates, recent
// violations), (2) refreshes the demand estimate with an EWMA and each
// boundary's deferral profile f_b(t) with live confidence observations,
// (3) asks its Allocator for the new configuration, and (4) applies the
// plan through the engine. Decisions are recorded for the timeline
// figures.
//
// The controller is backend-agnostic: it observes one CascadeEngine and
// schedules its periodic tick through the engine's ExecutionBackend, so
// the same control loop runs over the discrete-event simulator and the
// threaded testbed. It inherits the engine's chain depth: a two-stage
// cascade yields exactly the paper's control loop.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "control/allocator.hpp"
#include "discriminator/deferral_profile.hpp"
#include "engine/engine.hpp"
#include "stats/ewma.hpp"
#include "util/mutex.hpp"

namespace diffserve::control {

struct ControllerConfig {
  double period_seconds = 5.0;
  double ewma_alpha = 0.4;
  /// Trend smoothing (Holt) and how many control periods ahead to
  /// forecast demand — covers the observation + actuation lag so ramps do
  /// not leave the deeper pools underprovisioned.
  double trend_beta = 0.3;
  double forecast_horizon_periods = 2.0;
  double over_provision = 1.05;  ///< lambda (§3.3)
  std::size_t threshold_grid_points = 51;
  /// Cap on the planned deferral fraction at each boundary: past the
  /// served-quality optimum (~50% deferral in Figure 1a), deferring
  /// confidently-good outputs wastes downstream capacity and *worsens*
  /// FID, so the plan never pushes deferral far beyond the optimum even
  /// with idle capacity.
  double max_deferral_fraction = 0.55;
  std::size_t online_profile_capacity = 4000;
  /// Apply a plan immediately at start() using this demand guess (QPS);
  /// <= 0 derives it from the first observation instead.
  double initial_demand_guess = 4.0;
  /// Discount allocator inputs by the reuse cache's observed absorption:
  /// demand becomes lambda * (1 - h_exact) (exact hits never reach the
  /// chain) and per-stage service times scale by the cache's step-fraction
  /// savings (approx hits run fewer diffusion steps). The discount is
  /// estimated per hit *level* — separate near / far hit-share and
  /// step-fraction EWMAs — so with distance-interpolated fractions each
  /// level's discount tracks its actual interpolated mean rather than one
  /// pooled average. No-op when the engine's cache is disabled.
  bool cache_aware = true;
  /// EWMA smoothing of the per-period hit-ratio / step-fraction samples.
  double cache_alpha = 0.3;
};

class Controller {
 public:
  /// `offline_profiles` seeds one online deferral profile per cascade
  /// boundary (size must match the engine's boundary count).
  Controller(engine::CascadeEngine& engine,
             std::unique_ptr<Allocator> allocator,
             std::vector<discriminator::DeferralProfile> offline_profiles,
             ControllerConfig cfg = {});
  /// Two-stage-era convenience: a single profile for the single boundary
  /// of a classic cascade (replicated if the chain is deeper).
  Controller(engine::CascadeEngine& engine,
             std::unique_ptr<Allocator> allocator,
             discriminator::DeferralProfile offline_profile,
             ControllerConfig cfg = {});

  /// Apply the initial plan and schedule the periodic control tick on the
  /// engine's backend.
  void start();
  /// Stop the periodic tick.
  void stop();

  struct Snapshot {
    double time = 0.0;
    double demand_estimate = 0.0;
    double observed_demand = 0.0;
    double recent_violation_ratio = 0.0;
    /// Smoothed exact-hit ratio the demand estimate was discounted by
    /// (0 with the cache off or cache_aware disabled).
    double cache_exact_hit_ratio = 0.0;
    /// Smoothed per-level hit shares of the traffic that still reaches the
    /// chain (0 with the cache off).
    double cache_near_hit_ratio = 0.0;
    double cache_far_hit_ratio = 0.0;
    /// Smoothed service-time multiplier applied to the stage models
    /// (1 with the cache off) — combined from the per-level EWMAs.
    double cache_service_discount = 1.0;
    AllocationDecision decision;
    /// Smoothed per-class demand (QPS, indexed by engine::QueryClass;
    /// all-zero with SLO classes disabled).
    std::array<double, engine::kQueryClassCount> class_demand{};
    /// Weighted effective SLO handed to the allocator (== the engine SLO
    /// in classless setups).
    double effective_slo_seconds = 0.0;
  };
  const std::vector<Snapshot>& history() const { return history_; }
  const Allocator& allocator() const { return *allocator_; }

  /// One control iteration (exposed for tests).
  void tick();

 private:
  AllocationInput snapshot_input() const;
  void apply_decision(const AllocationDecision& d);
  void schedule_next_tick();
  /// Fold the cache counters accumulated since the last tick into the
  /// hit-ratio / step-fraction EWMAs.
  void observe_cache();
  /// Smoothed exact-hit ratio used to discount demand, capped below 1 so
  /// a fully-absorbing cache never plans zero capacity (0 when not
  /// cache-aware).
  double effective_exact_hit_ratio() const;
  /// Smoothed per-stage service-time multiplier (1 when not cache-aware):
  /// 1 - near_share*(1 - near_fraction) - far_share*(1 - far_fraction),
  /// each factor its own EWMA.
  double effective_service_discount() const;
  /// Smoothed near/far hit share of non-exact traffic (0 when not
  /// cache-aware).
  double effective_near_hit_ratio() const;
  double effective_far_hit_ratio() const;

  engine::CascadeEngine& engine_;
  std::unique_ptr<Allocator> allocator_;
  /// Confidence observations arrive from the engine's data path, which a
  /// concurrent backend runs on worker threads; ticks read the profiles
  /// from the control thread.
  mutable util::Mutex profile_mu_;
  /// One online profile per cascade boundary.
  std::vector<discriminator::OnlineDeferralProfile> profiles_
      DS_GUARDED_BY(profile_mu_);
  ControllerConfig cfg_;

  stats::HoltEwma demand_holt_;
  /// Per-SLO-class demand EWMAs (indexed by engine::QueryClass), fed from
  /// the engine's per-class arrival windows each tick. Only observed while
  /// the engine's SLO classes are enabled.
  std::array<stats::Ewma, engine::kQueryClassCount> class_demand_ewma_;
  /// Online estimates of what the reuse cache absorbs, differenced from
  /// the engine's cumulative cache counters each tick and split by hit
  /// level: exact hits discount demand; near/far hit shares and their
  /// mean step fractions combine into the service-time discount.
  stats::Ewma cache_hit_ewma_;
  stats::Ewma cache_near_share_ewma_;
  stats::Ewma cache_far_share_ewma_;
  stats::Ewma cache_near_frac_ewma_;
  stats::Ewma cache_far_frac_ewma_;
  cache::CacheStats last_cache_stats_;
  bool first_tick_ = true;
  /// Absolute time of the most recently scheduled tick; the chain anchors
  /// to t0 + k*period so solve time never stretches the control period.
  double next_tick_time_ = 0.0;
  /// Written by the re-arm callback on the backend's timer thread, read
  /// by stop() on the caller's thread.
  util::Mutex tick_mu_;
  engine::TimerHandle tick_handle_ DS_GUARDED_BY(tick_mu_){};
  std::atomic<bool> running_{false};
  std::vector<Snapshot> history_;
};

}  // namespace diffserve::control
