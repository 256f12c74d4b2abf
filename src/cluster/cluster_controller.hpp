// ClusterController — one global §3.3 allocation above N shards.
//
// It runs control::Controller, the one control loop, over a cluster-side
// ServingPlane that supplies the two things a cluster does differently
// from one engine:
//
//   * the observation: each tick sends shard/stats_request to every shard
//     and, `gather_delay_seconds` later (0 = inline), sums whatever
//     snapshots have arrived — demand, per-class demand, per-stage
//     queue/arrival statistics and the additive CacheStats counters —
//     with the violation ratio averaged over the shards that replied;
//   * the actuation: split_plan below turns the one cluster-wide plan
//     over N x W workers into per-shard plans, each pushed as a
//     cluster/plan frame.
//
// Everything else (Holt demand forecast, per-class demand EWMAs and the
// effective SLO, per-hit-level cache EWMAs, online deferral profiles fed
// by every shard's confidence stream, the anchored tick chain, the
// history) is the single-engine controller's. The reference engine
// supplies the chain shape, the §3.3 per-stage latency math and the
// SLO-class configuration.
//
// Zero gather delay solves inline, which over a synchronous loopback
// transport sees snapshots taken at the tick instant itself — that is
// what makes a 1-shard loopback cluster decision-identical to a bare
// Controller. The threaded socket path sets a small positive delay so
// in-flight replies land before the solve.
//
// split_plan: per-stage largest-remainder apportionment of the global
// worker counts by shard demand share (equal shares when total demand is
// zero), capped by each shard's worker budget; batch sizes, thresholds,
// routing mode, and p_heavy replicate to every shard. Deterministic
// (ties break on shard index); for N = 1 it is the identity, completing
// the equivalence contract.
#pragma once

#include <memory>
#include <vector>

#include "cluster/shard_frontend.hpp"
#include "control/allocator.hpp"
#include "control/controller.hpp"
#include "discriminator/deferral_profile.hpp"
#include "engine/engine.hpp"

namespace diffserve::cluster {

struct ClusterControllerConfig {
  /// The single-engine controller settings (period, over-provisioning,
  /// deferral cap, initial demand guess) apply unchanged at cluster scope.
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
  void start() { loop_.start(); }
  void stop() { loop_.stop(); }

  /// Confidence stream fan-in: the cluster runners wire every shard
  /// engine's confidence observer here so the online deferral profiles
  /// see the whole cluster's data path. Thread-safe.
  void observe_confidence(std::size_t boundary, double confidence) {
    loop_.observe_confidence(boundary, confidence);
  }

  /// One record per global decision, in the single-engine controller's
  /// shape.
  using Snapshot = control::Controller::Snapshot;
  const std::vector<Snapshot>& history() const { return loop_.history(); }

 private:
  control::Controller loop_;
};

/// See the header comment. Exposed for direct unit testing.
std::vector<engine::AllocationPlan> split_plan(
    const engine::AllocationPlan& plan,
    const std::vector<double>& shard_demand, int workers_per_shard);

}  // namespace diffserve::cluster
