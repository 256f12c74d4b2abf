// The DiffServe Controller (§3.1, §3.3).
//
// Every control period it: (1) observes the serving plane (demand,
// per-class demand, per-stage queue lengths and arrival rates, recent
// violations, the reuse cache's counters), (2) refreshes the demand
// estimate with an EWMA and each boundary's deferral profile f_b(t) with
// live confidence observations, (3) asks its Allocator for the new
// configuration, and (4) applies the plan. Decisions are recorded for the
// timeline figures.
//
// This is the only control loop. What it serves sits behind a
// ServingPlane, which supplies the two things that differ between one
// engine and a cluster of shards: where a period's observation comes from
// and where the plan goes. The engine constructor below reads one
// CascadeEngine and applies to it; cluster::ClusterController gathers
// shard snapshots over the wire and splits the plan across shards. Ticks
// are scheduled through the plane's reference engine's ExecutionBackend,
// so the same loop runs over the discrete-event simulator and the
// threaded testbed. It inherits the chain depth: a two-stage cascade
// yields exactly the paper's control loop.
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
  double over_provision = 1.05;  ///< lambda (§3.3)
  /// Cap on the planned deferral fraction at each boundary: past the
  /// served-quality optimum (~50% deferral in Figure 1a), deferring
  /// confidently-good outputs wastes downstream capacity and *worsens*
  /// FID, so the plan never pushes deferral far beyond the optimum even
  /// with idle capacity.
  double max_deferral_fraction = 0.55;
  /// Apply a plan immediately at start() using this demand guess (QPS);
  /// <= 0 derives it from the first observation instead.
  double initial_demand_guess = 4.0;
};

/// One control period's view of the serving plane.
struct Observation {
  /// Arrival rate into the plane (QPS).
  double demand_rate = 0.0;
  /// Per-SLO-class arrival rates (QPS, indexed by engine::QueryClass;
  /// all-zero with SLO classes disabled).
  std::array<double, engine::kQueryClassCount> class_demand{};
  double recent_violation_ratio = 0.0;
  bool cache_enabled = false;
  /// Cumulative reuse-cache counters; the loop differences successive
  /// observations.
  cache::CacheStats cache;
  /// Queue/arrival statistics per chain stage.
  std::vector<engine::PoolStats> stages;
};

/// What the control loop serves: where each period's observation comes
/// from and where the plan goes.
class ServingPlane {
 public:
  virtual ~ServingPlane() = default;
  /// Supplies the chain shape, the §3.3 stage latency math, the SLO-class
  /// configuration and the backend the loop ticks on.
  virtual const engine::CascadeEngine& reference() const = 0;
  virtual int total_workers() const = 0;
  virtual double slo_seconds() const = 0;
  /// Start gathering this period's observation; returns how long to wait
  /// before observe() sees it (0 = now, the loop solves inline).
  virtual double request_observation() { return 0.0; }
  virtual Observation observe() = 0;
  virtual void apply(const engine::AllocationPlan& plan) = 0;
};

class Controller {
 public:
  /// Controls one engine. `offline_profiles` seeds one online deferral
  /// profile per cascade boundary (size must match the engine's boundary
  /// count); the engine's confidence stream feeds them.
  Controller(engine::CascadeEngine& engine,
             std::unique_ptr<Allocator> allocator,
             std::vector<discriminator::DeferralProfile> offline_profiles,
             ControllerConfig cfg = {});
  /// Controls any plane; its owner wires the confidence stream to
  /// observe_confidence().
  Controller(std::unique_ptr<ServingPlane> plane,
             std::unique_ptr<Allocator> allocator,
             std::vector<discriminator::DeferralProfile> offline_profiles,
             ControllerConfig cfg = {});

  /// Apply the initial plan and schedule the periodic control tick on the
  /// plane's backend.
  void start();
  /// Stop the periodic tick.
  void stop();

  struct Snapshot {
    double time = 0.0;
    double demand_estimate = 0.0;
    double observed_demand = 0.0;
    double recent_violation_ratio = 0.0;
    /// Smoothed exact-hit ratio the demand estimate was discounted by
    /// (0 with the cache off).
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
    /// Weighted effective SLO handed to the allocator (== the plane's SLO
    /// in classless setups).
    double effective_slo_seconds = 0.0;
  };
  const std::vector<Snapshot>& history() const { return history_; }

  /// Feed one data-path confidence into its boundary's online deferral
  /// profile. Thread-safe.
  void observe_confidence(std::size_t boundary, double confidence);

 private:
  /// One control iteration: request an observation, then solve on it
  /// (inline, or after the plane's gather delay).
  void tick();
  void solve();
  AllocationInput allocation_input(const Observation& obs) const;
  void schedule_next_tick();
  /// Fold the cache counters accumulated since the last observation into
  /// the hit-ratio / step-fraction EWMAs.
  void observe_cache(const Observation& obs);
  /// Smoothed exact-hit ratio used to discount demand, capped below 1 so
  /// a fully-absorbing cache never plans zero capacity (0 with the cache
  /// off).
  double effective_exact_hit_ratio() const;
  /// Smoothed per-stage service-time multiplier (1 with the cache off):
  /// 1 - near_share*(1 - near_fraction) - far_share*(1 - far_fraction),
  /// each factor its own EWMA.
  double effective_service_discount() const;
  /// Smoothed near/far hit share of non-exact traffic (0 with the cache
  /// off).
  double effective_near_hit_ratio() const;
  double effective_far_hit_ratio() const;

  engine::ExecutionBackend& backend() const {
    return plane_->reference().backend();
  }

  std::unique_ptr<ServingPlane> plane_;
  std::unique_ptr<Allocator> allocator_;
  /// Confidence observations arrive from the engines' data paths, which a
  /// concurrent backend runs on worker threads; ticks read the profiles
  /// from the control thread.
  mutable util::Mutex profile_mu_;
  /// One online profile per cascade boundary.
  std::vector<discriminator::OnlineDeferralProfile> profiles_
      DS_GUARDED_BY(profile_mu_);
  ControllerConfig cfg_;

  stats::HoltEwma demand_holt_;
  /// Per-SLO-class demand EWMAs (indexed by engine::QueryClass), fed from
  /// the observed per-class arrival rates each tick. Only observed while
  /// the reference engine's SLO classes are enabled.
  std::array<stats::Ewma, engine::kQueryClassCount> class_demand_ewma_;
  /// Online estimates of what the reuse cache absorbs, differenced from
  /// the observed cumulative cache counters each tick and split by hit
  /// level: exact hits discount demand; near/far hit shares and their
  /// mean step fractions combine into the service-time discount.
  stats::Ewma cache_hit_ewma_;
  stats::Ewma cache_near_share_ewma_;
  stats::Ewma cache_far_share_ewma_;
  stats::Ewma cache_near_frac_ewma_;
  stats::Ewma cache_far_frac_ewma_;
  cache::CacheStats last_cache_stats_;
  /// Whether the cache discounts apply: some observation has reported an
  /// enabled cache. Sticky: a cluster's shards may not all have replied to
  /// the first stats request.
  bool cache_seen_enabled_ = false;
  bool first_tick_ = true;
  /// Absolute time of the most recently scheduled tick; the chain anchors
  /// to t0 + k*period so solve time never stretches the control period.
  double next_tick_time_ = 0.0;
  /// Everything else is confined to the control flow (start()/stop() from
  /// the owner, ticks serialized through the backend's single control
  /// thread). tick_handle_ is written by the re-arm callback on the
  /// backend's timer thread and read by stop() on the caller's thread.
  util::Mutex tick_mu_;
  engine::TimerHandle tick_handle_ DS_GUARDED_BY(tick_mu_){};
  std::atomic<bool> running_{false};
  std::vector<Snapshot> history_;
};

}  // namespace diffserve::control
