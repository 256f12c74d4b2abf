// ClusterController — one global §3.3 allocation above N shards.
//
// Each control period it polls every shard for a stats snapshot over the
// wire (shard/stats_request -> shard/stats), folds the snapshots into a
// single AllocationInput — demand and per-stage queue/arrival statistics
// summed, violation ratios averaged, additive CacheStats counters summed
// before differencing — runs the same estimation pipeline as
// control::Controller (Holt demand forecast, per-hit-level cache EWMAs,
// online deferral profiles fed by every shard's confidence stream), asks
// the allocator for ONE cluster-wide decision over N x W workers, splits
// it into per-shard plans (split_plan below), and pushes each as a
// cluster/plan frame.
//
// Two-phase tick: stats requests go out at the tick instant; the solve
// runs `gather_delay_seconds` later on whatever snapshots have arrived.
// Zero delay solves inline, which over a synchronous loopback transport
// sees snapshots taken at the tick instant itself — that is what makes a
// 1-shard loopback cluster decision-identical to a bare Controller. The
// threaded socket path sets a small positive delay so in-flight replies
// land before the solve.
//
// split_plan: per-stage largest-remainder apportionment of the global
// worker counts by shard demand share (equal shares when total demand is
// zero), capped by each shard's worker budget; batch sizes, thresholds,
// routing mode, and p_heavy replicate to every shard. Deterministic
// (ties break on shard index); for N = 1 it is the identity, completing
// the equivalence contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/shard_frontend.hpp"
#include "control/allocator.hpp"
#include "control/controller.hpp"
#include "discriminator/deferral_profile.hpp"
#include "engine/engine.hpp"
#include "stats/ewma.hpp"
#include "util/mutex.hpp"

namespace diffserve::cluster {

struct ClusterControllerConfig {
  /// The single-engine controller knobs (period, EWMAs, grids, cache
  /// awareness) apply unchanged at cluster scope.
  control::ControllerConfig control;
  /// Lag between polling shard stats and solving on them. 0 = inline.
  double gather_delay_seconds = 0.0;
};

class ClusterController {
 public:
  /// `reference` supplies the chain shape and the §3.3 per-stage latency
  /// math (shards are homogeneous replicas, so any shard's engine serves;
  /// only guarded const reads are made). Ticks are scheduled on that
  /// engine's backend. Construct after every shard is attached.
  ClusterController(
      ShardFrontend& frontend, const engine::CascadeEngine& reference,
      int workers_per_shard, double slo_seconds,
      std::unique_ptr<control::Allocator> allocator,
      std::vector<discriminator::DeferralProfile> offline_profiles,
      ClusterControllerConfig cfg = {});

  /// Solve and push an initial plan immediately, then tick every period
  /// (anchored to t0 + k*period like the single-engine controller).
  void start();
  void stop();

  /// One control iteration (exposed for tests): poll, then solve (inline
  /// or after the gather delay).
  void tick();

  /// Confidence stream fan-in: the cluster runners wire every shard
  /// engine's confidence observer here so the online deferral profiles
  /// see the whole cluster's data path. Thread-safe.
  void observe_confidence(std::size_t boundary, double confidence);

  /// One record per global decision, in the single-engine controller's
  /// shape (class demand stays zero: the global solve is classless).
  using Snapshot = control::Controller::Snapshot;
  const std::vector<Snapshot>& history() const { return history_; }

  /// See the header comment. Exposed for direct unit testing.
  static std::vector<engine::AllocationPlan> split_plan(
      const control::AllocationDecision& d,
      const std::vector<double>& shard_demand, int workers_per_shard);

 private:
  void solve();
  void schedule_next_tick();
  void observe_cache(const cache::CacheStats& summed, bool enabled);
  double effective_exact_hit_ratio() const;
  double effective_service_discount() const;

  ShardFrontend& frontend_;
  const engine::CascadeEngine& reference_;
  std::unique_ptr<control::Allocator> allocator_;
  const int workers_per_shard_;
  const double slo_seconds_;
  const ClusterControllerConfig cfg_;

  mutable util::Mutex profile_mu_;
  /// Fed by every shard's confidence stream (engine data-path threads),
  /// read by solve() on the control thread.
  std::vector<discriminator::OnlineDeferralProfile> profiles_
      DS_GUARDED_BY(profile_mu_);

  /// Latest snapshot per shard, written by the frontend's stats listener
  /// (transport thread), read by solve().
  mutable util::Mutex snap_mu_;
  std::vector<std::optional<net::ShardStatsMsg>> snapshots_
      DS_GUARDED_BY(snap_mu_);

  /// Everything below is confined to the control flow (start()/stop()
  /// from the owner, tick()/solve() serialized through the backend's
  /// single control thread), so it needs no lock — only tick_handle_
  /// crosses threads, between the re-arm callback and stop().
  stats::HoltEwma demand_holt_;
  stats::Ewma cache_hit_ewma_;
  stats::Ewma cache_near_share_ewma_;
  stats::Ewma cache_far_share_ewma_;
  stats::Ewma cache_near_frac_ewma_;
  stats::Ewma cache_far_frac_ewma_;
  cache::CacheStats last_cache_stats_;  ///< previous cluster-summed counters
  bool cache_seen_enabled_ = false;
  bool first_tick_ = true;

  double next_tick_time_ = 0.0;
  util::Mutex tick_mu_;
  engine::TimerHandle tick_handle_ DS_GUARDED_BY(tick_mu_){};
  std::atomic<bool> running_{false};
  std::uint64_t token_ = 0;
  std::vector<Snapshot> history_;
};

}  // namespace diffserve::cluster
