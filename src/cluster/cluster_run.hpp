// End-to-end sharded cluster runners — the cluster analogue of
// core::run_experiment (DES) and runtime::run_threaded (testbed).
//
// Both assemble the same topology: N engine shards behind a
// ShardFrontend, a ClusterController solving one global allocation per
// period, and wire links carrying every query, terminal, stats snapshot,
// and plan. The DES wires loopback links whose hop latency is modeled by
// the simulator's event queue (hop_latency_seconds per one-way frame),
// so fleet designs are testable at 10^6-query scale before a socket is
// involved; the threaded runner uses real AF_UNIX socketpair transports
// with one reader thread per endpoint.
//
// This extends the paper's §4.3 DES-vs-testbed fidelity methodology to
// the cluster layer: the sharded parity test replays one trace through
// both runners and diffs FID / SLO-violation results, and a 1-shard DES
// cluster at zero hop latency is decision-identical to the bare engine.
#pragma once

#include <cstdint>

#include "cache/approx_cache.hpp"
#include "control/allocator.hpp"
#include "core/environment.hpp"
#include "core/run_report.hpp"
#include "engine/plan.hpp"
#include "trace/arrivals.hpp"
#include "trace/prompt_mix.hpp"
#include "trace/rate_trace.hpp"

namespace diffserve::cluster {

struct ClusterRunConfig {
  int shards = 3;
  int workers_per_shard = 4;
  /// Negative = cascade default.
  double slo_seconds = -1.0;
  /// One-way frame latency modeled by the DES loopback links (the
  /// threaded runner's sockets have real, unmodeled delivery latency).
  double hop_latency_seconds = 0.0;
  double control_period = 5.0;
  /// ClusterController stats-gather -> solve lag. Keep 0 for the DES
  /// (synchronous loopback makes snapshots fresh); give the threaded
  /// runner a small positive value so socket replies land first. When
  /// comparing backends, set both runs to the same value.
  double gather_delay_seconds = 0.0;
  double over_provision = 1.05;
  double max_deferral_fraction = 0.55;
  /// <= 0 derives the guess from the trace's initial rate.
  double initial_demand_guess = -1.0;
  double model_load_delay = 1.0;
  double drain_seconds = 20.0;
  std::uint64_t arrival_seed = 1;
  bool record_terminal_events = true;
  trace::ArrivalConfig arrivals;
  /// Per-shard engine cache (each shard caches its own prompt range —
  /// consistent-hash routing keeps recurrences on the caching shard).
  cache::CacheConfig cache;
  /// The frontend's prompt stream (cluster analogue of the engine knob).
  trace::PromptMixConfig prompt_mix;
  /// SLO classes, forwarded both to every shard engine (per-class queues,
  /// class-aware batching) and to the frontend (class draw + per-class
  /// deadline at admission).
  engine::SloClassConfig slo_classes;

  // --- threaded runner only ----------------------------------------------
  double time_scale = 30.0;
};

/// Deterministic discrete-event run of the sharded topology. The report
/// sums reconfigurations and cache counters over the shard engines; its
/// control history holds one snapshot per global plan pushed.
core::RunReport run_cluster_des(const core::CascadeEnvironment& env,
                                control::Allocator& allocator,
                                const trace::RateTrace& trace,
                                const ClusterRunConfig& cfg);

/// Real threads + real sockets, wall-clocked via util::TraceClock.
core::RunReport run_cluster_threaded(const core::CascadeEnvironment& env,
                                     control::Allocator& allocator,
                                     const trace::RateTrace& trace,
                                     const ClusterRunConfig& cfg);

}  // namespace diffserve::cluster
