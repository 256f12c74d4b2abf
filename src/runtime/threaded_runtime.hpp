// Threaded "testbed" runtime.
//
// The paper validates its simulator against a 16-GPU cluster testbed whose
// artifact also supports *simulated execution* of the diffusion models
// (sleeping for the profiled latency instead of running the GPU kernels,
// Appendix A.5). This module is that testbed: a ThreadedBackend — real
// timer and worker threads timed by the wall clock (util::TraceClock) —
// plugged under the same engine::CascadeEngine and control::Controller
// that drive the discrete-event simulator. Because routing, deferral,
// batching, reconfiguration, and metrics are the engine's single policy
// implementation, the §4.3 simulator-vs-testbed fidelity comparison
// (0.56% FID, 1.1% SLO difference in the paper) is reproduced by running
// the same trace through both backends and diffing the results.
//
// Hot-path design: every cross-thread hand-off is a lock-free ring
// (util/ring_buffer.hpp). Batch dispatch pushes onto a wait-free SPSC ring
// owned by the target executor (producers are serialized by the engine
// guard, so the single-producer contract holds); defer/cancel post
// messages to the timer thread's MPSC inbox, so arming or cancelling a
// batch timer never contends with the timer's own sleep bookkeeping; and
// offloaded control work (allocator solves) goes through an MPSC ring with
// a blocking overflow policy. Mutexes remain only in the parking protocol
// (condition-variable waits with capped timeouts) and in the engine guard
// itself — no data travels under them.
//
// ThreadedBackend is exported here (not hidden in the .cpp) so tests can
// assemble custom engines over real threads — e.g. the randomized
// cascade-chain invariant suite applies arbitrary plan sequences against
// arbitrary chain depths on this backend.
//
// `time_scale` compresses wall time: a trace second lasts 1/time_scale
// wall seconds and every sleep shrinks accordingly. Latencies are recorded
// in trace seconds, so results are directly comparable with the DES.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/approx_cache.hpp"
#include "control/allocator.hpp"
#include "core/environment.hpp"
#include "core/run_report.hpp"
#include "engine/backend.hpp"
#include "engine/plan.hpp"
#include "trace/arrivals.hpp"
#include "trace/prompt_mix.hpp"
#include "trace/rate_trace.hpp"
#include "util/mutex.hpp"
#include "util/ring_buffer.hpp"
#include "util/trace_clock.hpp"

namespace diffserve::runtime {

/// ExecutionBackend over real threads and the compressed wall clock: a
/// timer thread delivers deferred callbacks, one executor thread per
/// worker sleeps for each batch's profiled latency, a dedicated control
/// thread runs offloaded work (controller ticks with their allocator
/// solves) so a slow solve never delays timer delivery, and the guard is
/// a real mutex serializing all engine state. All job hand-offs between
/// those threads ride lock-free rings; see the header comment.
class ThreadedBackend final : public engine::ExecutionBackend {
 public:
  /// `pin_executors` pins each executor thread to a CPU (round-robin over
  /// the online set, Linux only) so a flood benchmark measures queue
  /// hand-off rather than scheduler migration.
  ThreadedBackend(const util::TraceClock& clock, int workers,
                  bool pin_executors = false);
  ~ThreadedBackend() override;

  void start();
  /// Joins all threads; in-flight batches (including follow-on batches
  /// they trigger) finish and deliver their completions first. Idempotent.
  void stop();

  double now() const override { return clock_.now(); }
  /// The engine guard crosses the ExecutionBackend seam as a
  /// std::unique_lock, which the thread-safety analysis cannot track
  /// (and the engine's state lives on the other side of a virtual call
  /// anyway) — TSan covers this path; see util/mutex.hpp.
  std::unique_lock<std::mutex> guard() override {
    return std::unique_lock<std::mutex>(mu_.native());
  }
  /// Lock-free: posts an arm message to the timer inbox.
  engine::TimerHandle defer(double delay_seconds,
                            std::function<void()> fn) override;
  /// Lock-free: posts a cancel message. Best-effort per the backend
  /// contract — a callback already extracted keeps running (the engine's
  /// timer-epoch protocol makes such firings no-ops). Always returns true.
  bool cancel(engine::TimerHandle h) override;
  /// Wait-free push onto the worker's SPSC job ring. Must be called under
  /// the engine guard (that serialization is what makes the producer side
  /// "single").
  void execute(int worker_id, double exec_seconds,
               std::function<void()> done) override;
  /// Enqueue `fn` on the control thread (never inline): long allocator
  /// solves run there while batch-launch timers keep firing. Dropped if
  /// the backend is stopping.
  void offload(std::function<void()> fn) override;

 private:
  struct TimerEntry {
    double at;
    std::uint64_t id;
  };
  struct TimerCompare {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return a.at > b.at;  // min-heap on due time
    }
  };
  /// Arm (fn != nullptr) or cancel (fn == nullptr) message for the timer
  /// thread, which owns the heap and callback map privately.
  struct TimerMsg {
    std::uint64_t id = 0;
    double at = 0.0;
    std::function<void()> fn;
  };
  struct ExecJob {
    double due = 0.0;  ///< absolute trace time the batch finishes
    std::function<void()> done;
  };
  struct Executor {
    util::SpscRing<ExecJob> ring{8};
    /// True from just before a pop until the popped job's completion has
    /// been delivered; stop()'s quiesce reads it (with the ring) to tell
    /// "no work" from "work in flight".
    std::atomic<bool> busy{false};
    /// Parking only — no data travels under it (the ring and the atomics
    /// above are the shared state), so nothing is DS_GUARDED_BY it.
    util::Mutex park_mu;
    util::CondVar park_cv;
    std::thread thread;
  };

  void timer_main();
  void executor_main(Executor& ex, int index);
  void control_main();

  const util::TraceClock& clock_;
  const bool pin_executors_;
  util::Mutex mu_;  ///< the engine guard (handed out via guard())

  /// Timer plumbing: producers touch only inbox_/next_id_; the heap and
  /// callback map live on the timer thread's stack frame. The park
  /// mutexes guard no data (lost wakeups are bounded by the capped
  /// waits), so no members are DS_GUARDED_BY them.
  util::MpscRing<TimerMsg> timer_inbox_{1024};
  std::atomic<std::uint64_t> next_id_{1};
  util::Mutex timer_park_mu_;
  util::CondVar timer_park_cv_;
  std::thread timer_thread_;

  std::vector<std::unique_ptr<Executor>> executors_;

  /// Offloaded control work (see offload()).
  util::MpscRing<std::function<void()>> control_jobs_{64};
  util::Mutex control_park_mu_;
  util::CondVar control_park_cv_;
  std::thread control_thread_;
  /// True while the control thread is inside a job (raised before the
  /// pop); stop()'s quiesce waits on it like it does for the timer thread.
  std::atomic<bool> control_busy_{false};

  std::atomic<bool> stop_{false};
  /// True while the timer thread is inside a callback (raised at
  /// extraction); stop()'s quiesce waits on it so a mid-flight callback's
  /// batch dispatch is never discarded.
  std::atomic<bool> timer_busy_{false};
};

/// Batch timers on a wall-clock backend are armed this much wall time
/// early (scaled into trace seconds by the time compression) to absorb OS
/// scheduling jitter. Shared by run_threaded and the threaded cluster
/// runner.
constexpr double kLaunchSlackWallSeconds = 0.004;

struct RuntimeConfig {
  int total_workers = 8;
  /// Negative = cascade default.
  double slo_seconds = -1.0;
  /// Wall-clock compression: 30 = a 300 s trace takes 10 s to replay.
  double time_scale = 30.0;
  double control_period = 5.0;       ///< trace seconds
  double max_deferral_fraction = 0.55;
  double over_provision = 1.05;
  double model_load_delay = 1.0;     ///< trace seconds
  std::uint64_t arrival_seed = 1;
  /// Forwarded to the metrics sink: false skips per-query terminal
  /// records (throughput-bench fast mode); aggregates stay exact, the
  /// report's FID is -1 and its timeline empty.
  bool record_terminal_events = true;
  trace::ArrivalConfig arrivals;
  /// Forwarded into the engine config: the approximate prompt-reuse cache
  /// and the prompt popularity model (defaults keep both off).
  cache::CacheConfig cache;
  trace::PromptMixConfig prompt_mix;
  /// Per-class admission queues / drop policies / class-aware batching
  /// (defaults keep classes off — single-class behavior is byte-identical).
  engine::SloClassConfig slo_classes;
};

/// Replay `trace` through the threaded runtime with the given allocation
/// policy. Blocks until the trace finishes and the pipeline drains. Works
/// for any chain depth the environment carries.
core::RunReport run_threaded(const core::CascadeEnvironment& env,
                             control::Allocator& allocator,
                             const trace::RateTrace& trace,
                             const RuntimeConfig& cfg);

}  // namespace diffserve::runtime
