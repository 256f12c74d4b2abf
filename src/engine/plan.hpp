// The controller's output and the engine's static configuration — shared
// by every execution backend.
//
// AllocationPlan is what one §3.3 control decision materializes to:
// per-stage worker and batch-size vectors plus one confidence threshold
// per cascade boundary, each indexed by stage (or boundary) number.
// EngineConfig is everything the engine is constructed with — SLO, launch
// slack, the prompt-popularity mix, and the embedded cache::CacheConfig.
//
// Determinism requirement: both are plain value types with no hidden
// state; applying the same plan to engines holding the same state must
// reconfigure them identically on every backend (worker role assignment
// is stable and order-deterministic), or the DES and threaded runs
// diverge.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cache/approx_cache.hpp"
#include "engine/query.hpp"
#include "trace/prompt_mix.hpp"
#include "util/check.hpp"

namespace diffserve::engine {

/// How the engine assigns arriving queries to stages.
///   * kCascade — DiffServe and DiffServe-Static: lightest stage first,
///     deferral down the chain on low confidence (§3.1).
///   * kDirect  — Clipper-Light/Heavy and Proteus: each query goes to
///     exactly one model (the first or last stage); Proteus picks the last
///     stage with probability p_heavy.
enum class RoutingMode { kCascade, kDirect };

/// The controller's output, generalized to an N-stage chain: per-stage
/// worker counts and batch sizes plus one confidence threshold per cascade
/// boundary (§3.3's x_i, b_i, t_i). Default-constructed plans describe the
/// classic two-stage cascade; `for_stages(n)` sizes a deeper chain.
struct AllocationPlan {
  RoutingMode mode = RoutingMode::kCascade;
  /// Workers per stage, stage 0 = lightest. Size = chain length.
  std::vector<int> workers{0, 0};
  /// Batch size per stage.
  std::vector<int> batches{1, 1};
  /// Confidence threshold per boundary (boundary i gates stage i -> i+1).
  std::vector<double> thresholds{0.5};
  double p_heavy = 0.0;  ///< direct-mode last-stage probability

  std::size_t stage_count() const { return workers.size(); }
  std::size_t boundary_count() const {
    return workers.empty() ? 0 : workers.size() - 1;
  }

  /// An empty plan shaped for an n-stage chain.
  static AllocationPlan for_stages(std::size_t n) {
    DS_REQUIRE(n >= 1, "a cascade chain needs at least one stage");
    AllocationPlan p;
    p.workers.assign(n, 0);
    p.batches.assign(n, 1);
    p.thresholds.assign(n - 1, 0.5);
    return p;
  }
};

/// Per-class SLO tiering, indexed by QueryClass. With `enabled == false`
/// every query is kStandard on the single historical FIFO and the engine's
/// serving decisions are byte-identical to a build without this struct
/// (the EngineEquivalence suite pins that).
///
/// `class_aware_scheduling` separates *having* classes from *acting* on
/// them: false keeps the class assignment and per-class deadlines but
/// routes everything through the single kStandard FIFO with no admission
/// caps and no class-aware batch formation — the fig13 baseline, so the
/// "classes help" comparison holds deadlines constant and varies only the
/// scheduling policy.
struct SloClassConfig {
  bool enabled = false;
  /// Per-class deadline = arrival + slo_seconds * deadline_multiplier[c].
  std::array<double, kQueryClassCount> deadline_multiplier{0.4, 1.0, 8.0};
  /// Per-class, per-worker admission queue capacity (0 = unbounded). On
  /// overflow an interactive arrival displaces the oldest queued
  /// interactive query (the freshest work wins); a standard or batch
  /// arrival is rejected at the door, so queued standard and batch work is
  /// never shed.
  std::array<std::size_t, kQueryClassCount> queue_capacity{64, 256, 4096};
  /// Controller-side SLO objective weights (interactive > standard >
  /// batch): the effective SLO fed to the allocators is the weighted
  /// demand-share mean of the per-class deadlines.
  std::array<double, kQueryClassCount> slo_weight{4.0, 2.0, 1.0};
  bool class_aware_scheduling = true;

  double multiplier(QueryClass c) const {
    return deadline_multiplier[static_cast<std::size_t>(c)];
  }
  std::size_t capacity(QueryClass c) const {
    return queue_capacity[static_cast<std::size_t>(c)];
  }
  double weight(QueryClass c) const {
    return slo_weight[static_cast<std::size_t>(c)];
  }
  /// True when both the per-class queues and the class-aware batch/drop
  /// policies are live (vs. merely tagging queries with classes).
  bool scheduling_active() const { return enabled && class_aware_scheduling; }
};

struct EngineConfig {
  int total_workers = 16;
  double slo_seconds = 5.0;
  double model_load_delay = 1.0;
  /// Arm under-filled batch timers this long (trace seconds) before the
  /// last feasible launch instant. The DES fires timers exactly on time
  /// and leaves this 0; wall-clock backends set it to their scheduling
  /// jitter so deadline-boundary queries are not tipped into drops by
  /// timer lateness.
  double launch_slack_seconds = 0.0;
  std::uint64_t seed = 1;
  /// Forwarded to the MetricsSink: false skips per-query terminal records
  /// (throughput-bench fast mode). Serving decisions are unaffected — the
  /// sink is strictly downstream of routing, batching, and deferral.
  bool record_terminal_events = true;
  /// Approximate prompt-reuse cache probed at admission. Disabled by
  /// default; engine behaviour with `cache.enabled == false` is
  /// byte-identical to a build without the cache subsystem.
  cache::CacheConfig cache;
  /// Which prompt each engine-admitted query carries (submit_next()).
  /// Defaults to the historical round-robin cycling; kZipf models the
  /// skewed, bursty prompt popularity real reuse caches feed on.
  trace::PromptMixConfig prompt_mix;
  /// Per-class SLO tiering (admission queues, drop policies, class-aware
  /// batching). Disabled by default; engine behaviour with
  /// `slo_classes.enabled == false` is byte-identical to a build without
  /// the subsystem.
  SloClassConfig slo_classes;
};

}  // namespace diffserve::engine
