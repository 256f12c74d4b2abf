// ShardFrontend — the cluster's front door.
//
// Owns the frontend side of N shard links and implements the routing
// policy: consistent hash on the prompt key (so the approximate
// prompt-reuse cache shards cleanly — every recurrence of a prompt lands
// on the shard holding its cached images) with a least-loaded fallback
// when the hash-owner's in-flight load runs far ahead of the cluster
// minimum. Load is tracked purely from wire traffic — +1 per submitted
// query, -1 per terminal frame — so routing needs no side channel into
// the shards and behaves identically over loopback and sockets.
//
// The frontend also owns the cluster-level MetricsSink. Terminal frames
// carry no image features; quality::served_image_feature is a pure
// function of (workload, query, tier), so the sink's records here are
// bit-identical to what the shard's own sink recorded. Timestamps are
// clamped monotone before folding (socket delivery across shards can
// reorder by a few microseconds; the sink's sliding windows require
// non-decreasing time).
//
// Determinism contract: with loopback transports at zero hop latency a
// 1-shard frontend is decision-identical to calling the engine directly —
// submit_next() admits through engine::admit_query like
// engine::CascadeEngine::submit_next (same sequence numbers, same
// PromptSampler stream, same deadlines), delivery is synchronous, and the
// single shard is always the hash owner.
//
// Thread safety: all mutable state (sampler, sequence, in-flight
// counters, sink) is under one mutex; sends happen outside it. Receivers
// are installed by attach_shard() and fire from transport threads in the
// threaded runtime. The locking discipline is machine-checked: mu_ is a
// util::Mutex and every guarded member is DS_GUARDED_BY it (see
// util/thread_annotations.hpp and the CI thread-safety gate).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/metrics_sink.hpp"
#include "engine/plan.hpp"
#include "engine/query.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"
#include "trace/prompt_mix.hpp"
#include "util/mutex.hpp"

namespace diffserve::cluster {

/// Least-loaded fallback triggers when the hash owner's in-flight count
/// reaches this floor and exceeds kImbalanceFactor x (the cluster minimum
/// + 1). The floor keeps cold-start noise (0 vs 1 queries) from defeating
/// hash affinity; beyond it the fallback reacts quickly — shards are small
/// (a few workers each), so even a handful of excess in-flight queries is
/// real queueing, and hash affinity only pays while the owner can
/// actually serve.
constexpr std::uint64_t kImbalanceMinInflight = 4;
constexpr double kImbalanceFactor = 1.25;

struct FrontendConfig {
  double slo_seconds = 5.0;
  /// Forwarded to the sink (throughput-bench fast mode).
  bool record_terminal_events = true;
  /// Which prompt each frontend-admitted query carries; must match what a
  /// bare engine would use for the equivalence contract to hold.
  trace::PromptMixConfig prompt_mix;
  /// SLO classes: when enabled, submit_next draws each query's class from
  /// the sampler's class stream and scales its deadline by the per-class
  /// multiplier — exactly what a bare engine with the same config does.
  engine::SloClassConfig slo_classes;
};

class ShardFrontend {
 public:
  ShardFrontend(const quality::Workload& workload,
                const quality::FidScorer& scorer, FrontendConfig cfg);

  /// Register shard i's frontend-side endpoint (i = attach order) and
  /// install its receiver. All shards must be attached before traffic.
  void attach_shard(std::unique_ptr<net::Endpoint> endpoint);
  std::size_t shard_count() const { return shards_.size(); }

  /// Start/stop every attached frontend-side endpoint (no-ops on
  /// loopback transports; starts/joins reader threads on sockets).
  void start_transports();
  void stop_transports();

  /// Admit the next query through engine::admit_query (as
  /// engine::CascadeEngine::submit_next does), route it, and send the
  /// submit frame. Returns the admitted query.
  engine::Query submit_next(double now);
  /// Admit an externally constructed query (arrival_time/deadline set).
  void submit(engine::Query q);

  /// The routing decision for a prompt under current load.
  std::size_t route(quality::QueryId prompt_id) const;
  /// Pure hash-ring owner, ignoring load (exposed for tests).
  std::size_t hash_shard(quality::QueryId prompt_id) const;

  /// Control-plane access for the cluster controller: raw frame to one
  /// shard, and a listener for the stats snapshots shards send back.
  void send_to_shard(std::size_t shard, const net::Frame& f);
  void set_stats_listener(std::function<void(const net::ShardStatsMsg&)> fn);

  std::uint64_t submitted() const;
  std::uint64_t terminated() const;
  /// Every admitted query has reached a terminal (served or dropped).
  bool drained() const;
  std::uint64_t inflight(std::size_t shard) const;

  /// Post-run access seam: the runners read the folded sink after the
  /// cluster has drained and every transport stopped, when no receiver
  /// can race it — a handoff the analysis cannot see, hence the opt-out.
  engine::MetricsSink& sink() DS_NO_THREAD_SAFETY_ANALYSIS { return sink_; }
  const engine::MetricsSink& sink() const DS_NO_THREAD_SAFETY_ANALYSIS {
    return sink_;
  }

 private:
  void on_frame(std::size_t shard, net::Frame f);
  std::size_t route_locked(quality::QueryId prompt_id) const DS_REQUIRES(mu_);
  std::size_t hash_shard_locked(quality::QueryId prompt_id) const
      DS_REQUIRES(mu_);

  const FrontendConfig cfg_;
  /// Endpoints: appended during single-threaded setup (attach-all-then-
  /// serve is the contract), immutable afterwards; send() is each
  /// endpoint's own concern — deliberately touched outside mu_ so a
  /// blocking socket write never holds up routing.
  std::vector<std::unique_ptr<net::Endpoint>> shards_;

  mutable util::Mutex mu_;
  /// Hash ring: (point, shard), sorted by point. Rebuilt on attach.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_
      DS_GUARDED_BY(mu_);
  trace::PromptSampler sampler_ DS_GUARDED_BY(mu_);
  engine::MetricsSink sink_ DS_GUARDED_BY(mu_);
  std::vector<std::uint64_t> inflight_ DS_GUARDED_BY(mu_);
  std::uint64_t next_seq_ DS_GUARDED_BY(mu_) = 0;
  std::uint64_t submitted_ DS_GUARDED_BY(mu_) = 0;
  std::uint64_t terminated_ DS_GUARDED_BY(mu_) = 0;
  double last_sink_time_ DS_GUARDED_BY(mu_) = 0.0;
  std::function<void(const net::ShardStatsMsg&)> stats_listener_
      DS_GUARDED_BY(mu_);
};

}  // namespace diffserve::cluster
