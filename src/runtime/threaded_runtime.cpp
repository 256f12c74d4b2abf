#include "runtime/threaded_runtime.hpp"

#include <algorithm>
#include <chrono>

#include "control/controller.hpp"
#include "engine/engine.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace diffserve::runtime {

namespace {

void maybe_pin_to_cpu(int index) {
#ifdef __linux__
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(index % n), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)index;
#endif
}

}  // namespace

ThreadedBackend::ThreadedBackend(const util::TraceClock& clock, int workers,
                                 bool pin_executors)
    : clock_(clock), pin_executors_(pin_executors) {
  executors_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    executors_.push_back(std::make_unique<Executor>());
}

ThreadedBackend::~ThreadedBackend() { stop(); }

void ThreadedBackend::start() {
  timer_thread_ = std::thread([this] { timer_main(); });
  control_thread_ = std::thread([this] { control_main(); });
  int index = 0;
  for (auto& ex : executors_) {
    ex->thread =
        std::thread([this, e = ex.get(), index] { executor_main(*e, index); });
    ++index;
  }
}

void ThreadedBackend::stop() {
  if (stop_.load()) return;
  // Quiesce before signalling stop: a finishing batch can dispatch a
  // follow-on batch deeper in the chain, which must still be accepted and
  // executed rather than lost to an already-joined executor thread. The
  // timer thread counts too — a timer callback in flight may be about to
  // dispatch a batch, and signalling stop in that window would discard
  // it (losing its queries and leaving the worker busy forever). Once no
  // executor has work and no timer callback is running, nothing can
  // dispatch anymore: due timers that have not fired are held back by the
  // stop flag and their queries stay queued (observable, not lost).
  // Busy flags are raised *before* the corresponding ring pop, so a job
  // can never vanish from a ring without this loop seeing the thread as
  // in-flight. Bounded so a wedged pipeline cannot hang shutdown.
  const auto quiesce_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    bool active = timer_busy_.load();
    active = active || control_busy_.load() || !control_jobs_.empty();
    for (auto& ex : executors_)
      active = active || ex->busy.load() || !ex->ring.empty();
    if (!active || std::chrono::steady_clock::now() > quiesce_deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (stop_.exchange(true)) return;
  {
    util::MutexLock lk(timer_park_mu_);
    timer_park_cv_.notify_all();
  }
  {
    util::MutexLock lk(control_park_mu_);
    control_park_cv_.notify_all();
  }
  for (auto& ex : executors_) {
    util::MutexLock lk(ex->park_mu);
    ex->park_cv.notify_all();
  }
  if (timer_thread_.joinable()) timer_thread_.join();
  if (control_thread_.joinable()) control_thread_.join();
  for (auto& ex : executors_)
    if (ex->thread.joinable()) ex->thread.join();
}

engine::TimerHandle ThreadedBackend::defer(double delay_seconds,
                                           std::function<void()> fn) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  TimerMsg m;
  m.id = id;
  m.at = clock_.now() + std::max(delay_seconds, 0.0);
  m.fn = std::move(fn);
  timer_inbox_.push(std::move(m));
  // Unlocked notify: a lost wakeup costs at most one capped parking
  // interval (the timer thread never sleeps longer than 2 ms wall).
  timer_park_cv_.notify_one();
  return {id};
}

bool ThreadedBackend::cancel(engine::TimerHandle h) {
  TimerMsg m;
  m.id = h.id;  // fn == nullptr marks a cancel
  timer_inbox_.push(std::move(m));
  // Optimistic: the ExecutionBackend contract already requires callers to
  // tolerate a cancelled callback that was concurrently in flight (the
  // engine stamps timer epochs), so "will be cancelled when the message
  // drains" is as good as "was cancelled".
  return true;
}

void ThreadedBackend::execute(int worker_id, double exec_seconds,
                              std::function<void()> done) {
  // Unreachable after a clean quiesce (nothing can dispatch once stop_ is
  // set); only the bounded quiesce-timeout escape path for a wedged
  // pipeline lands here, where the executor may already be gone.
  if (stop_.load()) return;
  Executor& ex = *executors_[static_cast<std::size_t>(worker_id)];
  ExecJob job;
  // Absolute due time, stamped at dispatch: the executor sleeps *until*
  // it rather than *for* the latency, so hand-off latency does not
  // accumulate into batch lateness (which the engine would count as
  // SLO violations).
  job.due = clock_.now() + exec_seconds;
  job.done = std::move(done);
  // The engine never dispatches to a worker it believes busy, so the ring
  // holds at most one job per completion cycle; a full ring means that
  // invariant broke upstream.
  DS_CHECK(ex.ring.try_push(std::move(job)), "worker job ring full");
  ex.park_cv.notify_one();  // unlocked; capped park bounds any lost wakeup
}

void ThreadedBackend::offload(std::function<void()> fn) {
  if (stop_.load()) return;  // shutting down; the tick is moot
  control_jobs_.push(std::move(fn));
  control_park_cv_.notify_one();
}

void ThreadedBackend::control_main() {
  for (;;) {
    // Raised before the pop so stop()'s quiesce can never observe
    // "control idle" between extraction and invocation.
    control_busy_.store(true);
    std::function<void()> job;
    if (control_jobs_.try_pop(job)) {
      job();  // acquires the engine guard internally
      control_busy_.store(false);
      continue;
    }
    control_busy_.store(false);
    // Drain queued jobs even while stopping: a job may have been accepted
    // a moment before the stop flag was raised (checked after the pop
    // attempt above came up empty).
    if (stop_.load()) return;
    util::MutexLock lk(control_park_mu_);
    control_park_cv_.wait_for(control_park_mu_, std::chrono::milliseconds(2),
                              [&] {
                                return stop_.load() || !control_jobs_.empty();
                              });
  }
}

void ThreadedBackend::timer_main() {
  // The heap and callback map are thread-local to the timer loop; the rest
  // of the system only ever touches the inbox ring.
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerCompare> heap;
  std::unordered_map<std::uint64_t, std::function<void()>> fns;
  for (;;) {
    TimerMsg m;
    while (timer_inbox_.try_pop(m)) {
      if (m.fn) {
        heap.push({m.at, m.id});
        fns[m.id] = std::move(m.fn);
      } else {
        fns.erase(m.id);  // heap entry becomes a tombstone, skipped below
      }
    }
    if (stop_.load()) return;
    while (!heap.empty() && fns.find(heap.top().id) == fns.end()) heap.pop();
    if (heap.empty()) {
      util::MutexLock lk(timer_park_mu_);
      timer_park_cv_.wait_for(timer_park_mu_, std::chrono::milliseconds(2));
      continue;
    }
    const double due = heap.top().at;
    const double now = clock_.now();
    if (due <= now) {
      const std::uint64_t id = heap.top().id;
      heap.pop();
      auto it = fns.find(id);
      std::function<void()> fn = std::move(it->second);
      fns.erase(it);
      // Raised before invocation so stop()'s quiesce sees the callback as
      // in flight (it may be about to dispatch a batch).
      timer_busy_.store(true);
      fn();  // acquires the engine guard internally
      timer_busy_.store(false);
      continue;
    }
    // Park until the due time, capped so stop/new-timer are noticed.
    util::MutexLock lk(timer_park_mu_);
    timer_park_cv_.wait_for(timer_park_mu_,
                            std::min<std::chrono::duration<double>>(
                                clock_.wall_duration(due - now),
                                std::chrono::milliseconds(2)));
  }
}

void ThreadedBackend::executor_main(Executor& ex, int index) {
  if (pin_executors_) maybe_pin_to_cpu(index);
  for (;;) {
    // busy is raised *before* the pop attempt: stop()'s quiesce checks
    // `ring.empty() && !busy`, and this ordering guarantees a popped job
    // is never invisible to it.
    ex.busy.store(true);
    ExecJob job;
    if (ex.ring.try_pop(job)) {
      clock_.sleep_until(job.due);
      job.done();  // acquires the engine guard internally
      ex.busy.store(false);
      continue;
    }
    ex.busy.store(false);
    if (stop_.load()) return;  // ring drained; jobs-before-stop already ran
    // Spin briefly before parking: under flood the next batch lands within
    // microseconds, and a condition-variable round-trip would dominate the
    // per-batch cost the ring exists to remove.
    bool got = false;
    for (int spin = 0; spin < 2048; ++spin) {
      if (!ex.ring.empty()) {
        got = true;
        break;
      }
      if (stop_.load()) break;
      if ((spin & 63) == 63) std::this_thread::yield();
    }
    if (got) continue;
    util::MutexLock lk(ex.park_mu);
    ex.park_cv.wait_for(ex.park_mu, std::chrono::milliseconds(2),
                        [&] { return stop_.load() || !ex.ring.empty(); });
  }
}

core::RunReport run_threaded(const core::CascadeEnvironment& env,
                             control::Allocator& allocator,
                             const trace::RateTrace& trace,
                             const RuntimeConfig& cfg) {
  DS_REQUIRE(cfg.total_workers >= 2, "need at least two workers");
  const double slo =
      cfg.slo_seconds > 0.0 ? cfg.slo_seconds : env.default_slo();

  util::TraceClock clock(cfg.time_scale);
  ThreadedBackend backend(clock, cfg.total_workers);

  engine::EngineConfig ecfg;
  ecfg.total_workers = cfg.total_workers;
  ecfg.slo_seconds = slo;
  ecfg.model_load_delay = cfg.model_load_delay;
  // Wall-clock timer jitter scales with the time compression; absorb it so
  // deadline-boundary batches launch in time (the DES needs no slack).
  ecfg.launch_slack_seconds = kLaunchSlackWallSeconds * cfg.time_scale;
  ecfg.record_terminal_events = cfg.record_terminal_events;
  ecfg.cache = cfg.cache;
  ecfg.prompt_mix = cfg.prompt_mix;
  ecfg.slo_classes = cfg.slo_classes;
  engine::CascadeEngine eng(backend, env.workload(), env.repository(),
                            env.cascade(), env.discs(), env.scorer(), ecfg);

  control::ControllerConfig ccfg;
  ccfg.period_seconds = cfg.control_period;
  ccfg.over_provision = cfg.over_provision;
  ccfg.max_deferral_fraction = cfg.max_deferral_fraction;
  ccfg.initial_demand_guess = trace.qps_at(0.0);
  control::Controller controller(
      eng, std::make_unique<control::BorrowedAllocator>(allocator),
      env.offline_profiles(), ccfg);

  util::Rng rng(cfg.arrival_seed);
  const auto arrivals = trace::generate_arrivals(trace, rng, cfg.arrivals);
  eng.sink_reserve(arrivals.size());

  backend.start();
  controller.start();

  // The client: replay arrivals in compressed wall time.
  for (const double t : arrivals) {
    clock.sleep_until(t);
    eng.submit_next();
  }

  // Drain: give in-flight queries until trace end + SLO + margin.
  clock.sleep_until(trace.duration() + slo + 5.0);
  controller.stop();
  backend.stop();

  return core::make_run_report(eng.sink(), eng.submitted(), {&eng},
                               trace.duration(), controller.history());
}

}  // namespace diffserve::runtime
