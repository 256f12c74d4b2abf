// CascadeEngine: the backend-agnostic serving policy.
//
// One engine instance holds everything the paper's Load Balancer, Workers,
// and metrics pipeline decide (§3.1), generalized from the paper's
// light/heavy pair to an N-stage model chain: query admission (with an
// optional approximate prompt-reuse cache probe — an exact hit completes
// without entering a stage pool, an approx hit runs the chain with a
// fraction of its diffusion steps), JSQ routing within each stage pool,
// per-boundary confidence-threshold deferral from stage i to i+1,
// deadline-aware batch formation with preemptive drops,
// downstream-reserve SLO accounting (the reserve at stage i covers the
// remaining chain's execution time), AllocationPlan application with
// stable role assignment and queue eviction, and the MetricsSink. Time,
// deferred callbacks, batch execution, and locking come from an
// ExecutionBackend, so the discrete-event simulator and the threaded
// wall-clock testbed run literally the same policy code — the property
// behind the §4.3 simulator-vs-testbed fidelity claim. A two-stage chain
// is exactly the paper's cascade; every stage is addressed by its index.
//
// Concurrency contract: every public method acquires the backend's guard;
// `_locked` internals assume it is held. Backend callbacks (batch
// completion, batching timers) re-enter through guarded wrappers. The
// latency accessors and tier/config getters read immutable state and need
// no guard.
//
// Determinism contract: the engine itself holds no randomness — routing,
// deferral, batching, and every cache interaction (probe, insert, evict)
// are pure functions of the submitted query sequence and the backend
// clock. Two backends that deliver the same arrivals at the same trace
// times produce identical serving decisions, which is what the
// DES-vs-threaded parity suites pin.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/approx_cache.hpp"
#include "discriminator/discriminator.hpp"
#include "engine/backend.hpp"
#include "engine/metrics_sink.hpp"
#include "engine/plan.hpp"
#include "engine/query.hpp"
#include "models/model_repository.hpp"
#include "quality/fid.hpp"
#include "quality/workload.hpp"
#include "stats/window.hpp"
#include "trace/prompt_mix.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"

namespace diffserve::engine {

/// Aggregate queue/arrival statistics over one stage's worker pool
/// (controller input).
struct PoolStats {
  double total_queue_length = 0.0;
  double arrival_rate = 0.0;  ///< summed over the pool's workers
  int workers = 0;
};

/// Query admission: the query arriving at `now` with sequence number
/// `seq`, its prompt (and, with SLO classes on, its class) drawn from
/// `sampler`, and its per-class deadline. The engine and the shard
/// frontend both admit through this, which is what keeps a 1-shard
/// cluster decision-identical to the bare engine.
Query admit_query(std::uint64_t seq, double now, trace::PromptSampler& sampler,
                  double slo_seconds, const SloClassConfig& slo_classes);

class CascadeEngine {
 public:
  /// Per-boundary discriminators: discs[b] gates deferral from stage b to
  /// b+1 (size = boundary count; entries may be null only in setups that
  /// never defer, e.g. pure-direct baselines).
  CascadeEngine(ExecutionBackend& backend, const quality::Workload& workload,
                const models::ModelRepository& repo,
                const models::CascadeSpec& cascade,
                std::vector<const discriminator::Discriminator*> discs,
                const quality::FidScorer& scorer, EngineConfig cfg);

  /// Reconfigure the cluster; evicted queries are re-routed (never
  /// dropped). Counts one reconfiguration per applied plan that changes at
  /// least one worker's hosted model. The plan's stage vectors must match
  /// the cascade chain length.
  void apply(const AllocationPlan& plan);
  AllocationPlan plan() const;

  /// Admit a query arriving now: sequence number, cycled prompt, and
  /// deadline are filled in by the engine. Returns the admitted query.
  Query submit_next();
  /// Admit an externally constructed query (arrival_time/deadline set).
  void submit(Query q);

  /// Observer invoked with every (boundary, confidence) computed on the
  /// data path (feeds the controller's per-boundary online deferral
  /// profiles). May be called from backend worker threads; the observer
  /// must be thread-safe when the backend is concurrent.
  void set_confidence_observer(std::function<void(std::size_t, double)> observer);

  /// Observer invoked, under the engine guard and immediately after the
  /// sink records the event, at every terminal: the finished query, the
  /// quality tier that served it (-1 for drops), the sink timestamp, and
  /// whether the query was dropped. The cluster layer streams these as
  /// wire frames back to the shard frontend. The observer must not call
  /// back into the engine.
  void set_terminal_observer(
      std::function<void(const Query&, int, double, bool)> observer);

  // --- runtime statistics for the controller -----------------------------
  /// Arrival rate into the system over the stats window (QPS).
  double demand_rate() const;
  /// Per-class arrival rates (QPS) over the same window, indexed by
  /// QueryClass. All-zero while SLO classes are disabled (the classless
  /// path never touches the per-class counters).
  std::array<double, kQueryClassCount> class_demand_rates() const;
  /// Queries rejected at admission by a full per-class queue (standard
  /// backpressure / batch drop-newest) or displaced by interactive
  /// drop-oldest, indexed by QueryClass.
  std::array<std::uint64_t, kQueryClassCount> class_admission_drops() const;
  /// Queue/arrival statistics of stage s's worker pool.
  PoolStats stage_stats(std::size_t s) const;
  std::uint64_t submitted() const;
  /// Applied plans that changed at least one worker's hosted model.
  std::size_t reconfigurations() const;
  /// Guarded read of the sink's sliding-window violation ratio.
  double recent_violation_ratio() const;

  /// Whether the approximate prompt-reuse cache is active.
  bool cache_enabled() const { return cache_ != nullptr; }
  /// Guarded snapshot of the cache's probe/insert counters (zeros when
  /// the cache is disabled). The controller differences successive
  /// snapshots into its online hit-ratio estimate.
  cache::CacheStats cache_stats() const;

  /// Stage execution latencies under the cascade's profiles — the single
  /// source of truth for the §3.3 latency math (used by the controller's
  /// performance model and by both backends' batch execution). Non-final
  /// stages include their boundary discriminator pass.
  double stage_exec_latency(std::size_t s, int batch) const;

  std::size_t stage_count() const { return chain_.size(); }
  std::size_t boundary_count() const { return chain_.size() - 1; }
  int stage_tier(std::size_t s) const { return stage_tiers_[s]; }
  const models::CascadeSpec& cascade() const { return cascade_; }
  const EngineConfig& config() const { return cfg_; }
  ExecutionBackend& backend() const { return backend_; }

  /// The sink is written under the guard; read it freely once the backend
  /// has quiesced (post-run), or through recent_violation_ratio() live.
  MetricsSink& sink() { return sink_; }
  const MetricsSink& sink() const { return sink_; }
  /// Guarded pass-through to MetricsSink::reserve — callers that know the
  /// arrival count up front pre-size the terminal-record log.
  void sink_reserve(std::size_t expected_terminals);

  // --- worker introspection (tests, benches) -----------------------------
  std::size_t worker_count() const { return workers_.size(); }
  struct WorkerInfo {
    bool configured = false;
    int stage = -1;  ///< hosted stage index, -1 while unconfigured
    bool busy = false;
    int batch_size = 0;
    std::size_t queue_length = 0;
    /// Per-SLO-class admission-queue lengths (sums to queue_length; with
    /// class-aware scheduling off everything sits in the kStandard row).
    std::array<std::size_t, kQueryClassCount> class_queue_lengths{};
    std::uint64_t batches = 0;
    std::uint64_t processed = 0;
    std::uint64_t dropped = 0;
  };
  WorkerInfo worker_info(std::size_t i) const;

 private:
  static constexpr int kNoStage = -1;

  struct Enqueued {
    Query query;
    double at;  ///< enqueue time (drives the batch-wait cap)
  };

  /// Per-worker policy state; the substrate behind it (event queue or
  /// thread) lives in the backend.
  struct WorkerSlot {
    int id = 0;
    int stage = kNoStage;  ///< hosted chain stage (kNoStage = unassigned)
    bool configured = false;
    std::string model_name;
    models::LatencyProfile profile;
    /// Added to every batch's execution time (boundary discriminator pass
    /// on non-final cascade stages), as a function of batch size.
    models::LatencyProfile extra_profile;
    bool has_extra = false;
    int batch_size = 1;
    int quality_tier = 0;

    /// Per-class admission queues, indexed by QueryClass; scans iterate
    /// classes in enum order, which doubles as batch-fill priority
    /// (interactive first). With SLO classes disabled every query lives in
    /// the kStandard ring, so the class-ordered iteration degenerates to
    /// the historical single FIFO — byte-identical decisions. Each ring is
    /// a growable RingDeque, not std::deque: slots (and the flat Query
    /// payloads in them) are recycled in place, so steady-state
    /// enqueue/dequeue is allocation-free once a ring reaches its
    /// high-water mark.
    std::array<util::RingDeque<Enqueued>, kQueryClassCount> queues;

    std::size_t queue_size() const {
      std::size_t n = 0;
      for (const auto& q : queues) n += q.size();
      return n;
    }
    bool queue_empty() const {
      for (const auto& q : queues)
        if (!q.empty()) return false;
      return true;
    }

    bool busy = false;
    double ready_at = 0.0;  ///< model-load completion time
    TimerHandle timer{};
    bool timer_armed = false;
    double timer_at = 0.0;
    /// Bumped on every arm/disarm so a timer callback racing a cancel in a
    /// concurrent backend can detect it is stale.
    std::uint64_t timer_epoch = 0;

    stats::SlidingWindowCounter arrivals{20.0};
    std::uint64_t batches = 0;
    std::uint64_t processed = 0;
    std::uint64_t dropped = 0;
  };

  // Internals: the guard is held by the caller.
  void submit_locked(Query q);
  void resubmit_locked(std::vector<Query>&& queries);
  /// Terminal completion: deliver to the sink and, when the cache is on,
  /// insert fully generated images (cache misses) for future reuse.
  void complete_locked(const Query& q, int served_tier);
  /// Fire the terminal observer (if any) after a sink event.
  void notify_terminal_locked(const Query& q, int served_tier, double time,
                              bool dropped) {
    if (terminal_observer_) terminal_observer_(q, served_tier, time, dropped);
  }
  /// Route a query to its q.stage pool, falling down the chain (and, for
  /// queries without an image, back up) when pools are empty.
  void route_locked(Query q);
  WorkerSlot* shortest_queue_locked(int stage);
  void enqueue_locked(WorkerSlot& w, Query q);
  /// Pop the oldest entry of the highest-priority non-empty class ring
  /// (enum order: interactive, standard, batch). Precondition: some ring
  /// is non-empty.
  Enqueued pop_next_locked(WorkerSlot& w);
  void disarm_timer_locked(WorkerSlot& w);
  void maybe_start_batch_locked(std::size_t i);
  void start_batch_locked(std::size_t i);
  void finish_batch_locked(std::size_t i, std::vector<Query>& batch,
                           int served_tier, std::size_t stage);
  /// Reconfigure one worker; returns queries evicted on a model change.
  std::vector<Query> configure_locked(WorkerSlot& w, int stage);
  double exec_seconds(const WorkerSlot& w) const;
  PoolStats pool_stats_locked(int stage) const;
  /// Batch-vector pool: start_batch_locked draws here, finish_batch_locked
  /// returns the (cleared) vector, so steady-state batch formation touches
  /// the allocator only until every in-flight depth has warmed a vector.
  std::vector<Query> acquire_batch_locked(std::size_t reserve);
  void recycle_batch_locked(std::vector<Query>&& batch);
  /// Boundary-discriminator confidence for the image stage `stage` served
  /// at `tier`. For cache misses (every query with the cache off) the
  /// served feature — and therefore the discriminator's score — is a pure
  /// function of (prompt, boundary, tier), so the whole MLP forward pass
  /// collapses to one memo lookup after the first occurrence: same bytes,
  /// none of the per-query RNG replay, vector allocation, or matrix
  /// arithmetic. Cache-hit features depend on the donor and are computed
  /// directly.
  double scoring_confidence_locked(const Query& q, std::size_t stage,
                                   int tier);

  ExecutionBackend& backend_;
  const quality::Workload& workload_;
  const models::ModelRepository& repo_;
  models::CascadeSpec cascade_;
  std::vector<std::string> chain_;        ///< stage model names
  std::vector<std::string> disc_models_;  ///< boundary discriminator names
  std::vector<int> stage_tiers_;
  /// Boundary discriminator instances (null entries only in setups that
  /// never defer).
  std::vector<const discriminator::Discriminator*> discs_;
  EngineConfig cfg_;

  MetricsSink sink_;
  util::Rng rng_;
  /// Prompt stream for engine-admitted queries (round-robin by default).
  trace::PromptSampler prompt_sampler_;
  /// Null when cfg_.cache.enabled is false — every cache touch is gated
  /// on this pointer, which is what keeps cache-off byte-identical.
  std::unique_ptr<cache::ApproxCache> cache_;
  std::vector<WorkerSlot> workers_;
  AllocationPlan plan_;
  /// Recycled batch vectors (see acquire_batch_locked).
  std::vector<std::vector<Query>> batch_pool_;
  /// Frontier bitmask for start_batch_locked's two-pass drop selection:
  /// a marked member is dropped without erasing (no mid-vector shifts);
  /// scans walk the mask. Member scratch, reused across batches.
  std::vector<std::uint8_t> drop_mask_;
  /// Memoized cache-miss confidences keyed by (prompt << 16) |
  /// (stage << 8) | tier (see scoring_confidence_locked). Guard-protected
  /// like all engine state.
  std::unordered_map<std::uint64_t, double> miss_confidence_memo_;
  /// Per-stage downstream reserve: SLO time kept for the rest of the chain
  /// (reserve of the final stage is 0).
  std::vector<double> reserve_;
  std::function<void(std::size_t, double)> confidence_observer_;
  std::function<void(const Query&, int, double, bool)> terminal_observer_;

  stats::SlidingWindowCounter demand_{12.0};
  /// Per-class arrival counters (only touched while SLO classes are
  /// enabled — the disabled path must do literally nothing extra).
  std::array<stats::SlidingWindowCounter, kQueryClassCount> class_demand_{
      {stats::SlidingWindowCounter{12.0}, stats::SlidingWindowCounter{12.0},
       stats::SlidingWindowCounter{12.0}}};
  /// Admission-policy rejections per class (see class_admission_drops()).
  std::array<std::uint64_t, kQueryClassCount> class_admission_drops_{};
  std::uint64_t submitted_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t reconfigurations_ = 0;
};

}  // namespace diffserve::engine
