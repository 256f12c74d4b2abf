#include "engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace diffserve::engine {

namespace {

/// Stage-i reserve = this factor * sum of downstream stages' batch
/// execution times: the time kept in the stage deadline for the rest of
/// the chain should the query be deferred (generalizes the two-stage heavy
/// reserve e_heavy(b2)).
constexpr double kReserveFactor = 1.25;

}  // namespace

CascadeEngine::CascadeEngine(
    ExecutionBackend& backend, const quality::Workload& workload,
    const models::ModelRepository& repo, const models::CascadeSpec& cascade,
    std::vector<const discriminator::Discriminator*> discs,
    const quality::FidScorer& scorer, EngineConfig cfg)
    : backend_(backend),
      workload_(workload),
      repo_(repo),
      cascade_(cascade),
      discs_(std::move(discs)),
      cfg_(cfg),
      sink_(workload, scorer),
      rng_(cfg.seed),
      prompt_sampler_(workload.size(), cfg.prompt_mix) {
  DS_REQUIRE(cfg_.total_workers >= 1, "need at least one worker");
  sink_.set_record_terminal_events(cfg_.record_terminal_events);
  chain_ = cascade_.chain;
  disc_models_ = cascade_.discriminators;
  DS_REQUIRE(!chain_.empty(), "cascade chain must not be empty");
  if (cfg_.cache.enabled) {
    // The cache's controller-facing step-fraction accounting weighs a
    // donor's stage coverage against the chain depth.
    cache::CacheConfig ccfg = cfg_.cache;
    ccfg.chain_stages = chain_.size();
    cache_ = std::make_unique<cache::ApproxCache>(ccfg);
  }
  stage_tiers_.reserve(chain_.size());
  for (const auto& m : chain_)
    stage_tiers_.push_back(repo_.model(m).quality_tier);
  DS_REQUIRE(discs_.size() == boundary_count(),
             "need one discriminator per cascade boundary");
  plan_ = AllocationPlan::for_stages(chain_.size());
  reserve_.assign(chain_.size(), 0.0);
  workers_.resize(static_cast<std::size_t>(cfg_.total_workers));
  for (std::size_t i = 0; i < workers_.size(); ++i)
    workers_[i].id = static_cast<int>(i);
}

double CascadeEngine::stage_exec_latency(std::size_t s, int batch) const {
  double e = repo_.model(chain_[s]).latency.execution_latency(batch);
  if (s + 1 < chain_.size())
    e += repo_.model(disc_models_[s]).latency.execution_latency(batch);
  return e;
}

double CascadeEngine::exec_seconds(const WorkerSlot& w) const {
  return w.profile.execution_latency(w.batch_size) +
         (w.has_extra ? w.extra_profile.execution_latency(w.batch_size)
                      : 0.0);
}

void CascadeEngine::disarm_timer_locked(WorkerSlot& w) {
  if (!w.timer_armed) return;
  backend_.cancel(w.timer);
  w.timer_armed = false;
  // The epoch bump keeps a concurrently in-flight timer callback (which a
  // concurrent backend may still deliver) from disarming a newer timer.
  ++w.timer_epoch;
}

// ---- reconfiguration ------------------------------------------------------

void CascadeEngine::apply(const AllocationPlan& plan) {
  auto g = backend_.guard();
  const std::size_t n = chain_.size();
  DS_REQUIRE(plan.workers.size() == n && plan.batches.size() == n,
             "plan stage vectors must match the cascade chain length");
  DS_REQUIRE(plan.thresholds.size() == n - 1,
             "plan needs one threshold per cascade boundary");
  std::vector<int> quota = plan.workers;
  int used = 0;
  for (const int q : quota) {
    DS_REQUIRE(q >= 0, "negative worker counts");
    used += q;
  }
  DS_REQUIRE(used <= cfg_.total_workers, "plan exceeds cluster size");

  // Spare workers join the first stage the plan populates (stage 0 when the
  // plan is empty) — the resource manager never idles a GPU.
  std::size_t spare_stage = 0;
  for (std::size_t s = 0; s < n; ++s)
    if (quota[s] > 0) {
      spare_stage = s;
      break;
    }
  quota[spare_stage] += cfg_.total_workers - used;

  // Stable role assignment: workers already hosting a stage keep it while
  // the quota allows, minimizing model reloads.
  std::vector<int> desired(workers_.size(), kNoStage);
  std::vector<int> remaining = quota;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const int st = workers_[i].stage;
    if (st != kNoStage && remaining[static_cast<std::size_t>(st)] > 0) {
      desired[i] = st;
      --remaining[static_cast<std::size_t>(st)];
    }
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (desired[i] != kNoStage) continue;
    for (std::size_t s = 0; s < n; ++s)
      if (remaining[s] > 0) {
        desired[i] = static_cast<int>(s);
        --remaining[s];
        break;
      }
  }

  // Validate before mutating any engine state so a bad plan leaves the
  // previous configuration intact.
  for (std::size_t s = 0; s < n; ++s) {
    DS_REQUIRE(plan.batches[s] >= 1, "batch size must be >= 1");
    if (quota[s] > 0)
      DS_REQUIRE(repo_.model(chain_[s]).latency.supports(plan.batches[s]),
                 "stage batch size not in latency profile");
  }

  plan_ = plan;
  // Downstream reserves: the SLO time stage s keeps for the rest of the
  // chain. A stage the plan leaves unstaffed contributes nothing (nothing
  // will be deferred to it).
  reserve_.assign(n, 0.0);
  if (plan.mode == RoutingMode::kCascade) {
    for (std::size_t s = n - 1; s-- > 0;) {
      reserve_[s] = reserve_[s + 1];
      if (quota[s + 1] > 0)
        reserve_[s] += kReserveFactor *
                       stage_exec_latency(s + 1, plan.batches[s + 1]);
    }
  }

  std::vector<Query> evicted;
  bool model_changed = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (desired[i] == kNoStage) continue;
    const std::string before = workers_[i].model_name;
    const bool was_configured = workers_[i].configured;
    auto out = configure_locked(workers_[i], desired[i]);
    if (!was_configured || workers_[i].model_name != before)
      model_changed = true;
    for (auto& q : out) evicted.push_back(std::move(q));
  }
  if (model_changed) ++reconfigurations_;
  if (!evicted.empty()) resubmit_locked(std::move(evicted));

  DS_LOG_DEBUG("engine") << "applied plan: stages=" << n
                         << " x0=" << quota.front()
                         << " x_last=" << quota.back()
                         << " b0=" << plan.batches.front()
                         << " b_last=" << plan.batches.back();
}

std::vector<Query> CascadeEngine::configure_locked(WorkerSlot& w, int stage) {
  const std::size_t s = static_cast<std::size_t>(stage);
  const auto& model = repo_.model(chain_[s]);
  const int batch = plan_.batches[s];
  DS_REQUIRE(batch >= 1, "batch size must be >= 1");
  DS_REQUIRE(model.latency.supports(batch),
             "batch size not in latency profile");

  const bool model_change = !w.configured || model.name != w.model_name;
  // A chain may list the same model at two stages; moving a worker between
  // them swaps no weights but still invalidates its queue (queries would
  // be scored against the wrong boundary threshold and tier).
  const bool stage_change = w.configured && w.stage != stage;
  w.model_name = model.name;
  w.profile = model.latency;
  w.quality_tier = model.quality_tier;
  // Non-final cascade stages run the boundary discriminator after every
  // batch.
  w.has_extra =
      s + 1 < chain_.size() && plan_.mode == RoutingMode::kCascade;
  if (w.has_extra) w.extra_profile = repo_.model(disc_models_[s]).latency;
  w.batch_size = batch;
  w.stage = stage;
  w.configured = true;

  const std::size_t i = static_cast<std::size_t>(w.id);
  std::vector<Query> evicted;
  if (model_change || stage_change) {
    // Queued work targeted the old model/stage; hand it back for
    // re-routing. Class rings drain in priority order so re-routing
    // preserves the class-ordered arrival sequence within the worker.
    evicted.reserve(w.queue_size());
    for (auto& ring : w.queues) {
      for (std::size_t k = 0; k < ring.size(); ++k)
        evicted.push_back(std::move(ring[k].query));
      ring.clear();
    }
    disarm_timer_locked(w);
  }
  if (model_change) {
    // Loading starts once any in-flight batch finishes; if idle, now.
    const double now = backend_.now();
    const double start = w.busy ? w.ready_at : now;
    w.ready_at = std::max(w.ready_at, start + cfg_.model_load_delay);
    // Wake up when the load completes in case work arrives meanwhile.
    // Scheduled even for a busy worker: its batch-completion callback runs
    // before ready_at and would otherwise leave queued queries stranded
    // with no timer armed.
    backend_.defer(w.ready_at - now, [this, i] {
      auto g = backend_.guard();
      maybe_start_batch_locked(i);
    });
  } else {
    // Same model: batch-size change applies immediately.
    maybe_start_batch_locked(i);
  }
  return evicted;
}

AllocationPlan CascadeEngine::plan() const {
  auto g = backend_.guard();
  return plan_;
}

// ---- admission & routing --------------------------------------------------

Query admit_query(std::uint64_t seq, double now, trace::PromptSampler& sampler,
                  double slo_seconds, const SloClassConfig& slo_classes) {
  Query q;
  q.seq = seq;
  // Round-robin (the default) reproduces the historical seq % size
  // cycling exactly; kZipf draws from the popularity model.
  q.prompt_id = static_cast<quality::QueryId>(sampler.next());
  q.arrival_time = now;
  q.deadline = now + slo_seconds;
  if (slo_classes.enabled) {
    // The class stream rides the sampler's dedicated class RNG, never the
    // engine rng_ (whose draw sequence the kDirect bernoulli depends on).
    q.query_class = static_cast<QueryClass>(sampler.next_class());
    q.deadline = now + slo_seconds * slo_classes.multiplier(q.query_class);
  }
  return q;
}

Query CascadeEngine::submit_next() {
  auto g = backend_.guard();
  Query q = admit_query(next_seq_++, backend_.now(), prompt_sampler_,
                        cfg_.slo_seconds, cfg_.slo_classes);
  submit_locked(q);
  return q;
}

void CascadeEngine::submit(Query q) {
  auto g = backend_.guard();
  submit_locked(std::move(q));
}

void CascadeEngine::submit_locked(Query q) {
  ++submitted_;
  demand_.add(backend_.now());
  if (cfg_.slo_classes.enabled)
    class_demand_[static_cast<std::size_t>(q.query_class)].add(backend_.now());
  if (cache_ != nullptr) {
    const auto hit = cache_->lookup(workload_.style(q.prompt_id),
                                    backend_.now());
    if (hit.level == cache::HitLevel::kExact) {
      // Serve the donor's image as-is after the lookup/decode latency;
      // the query never enters a stage pool. Completion goes through a
      // deferred callback so sink timestamps stay monotone.
      q.cache_hit = hit.level;
      q.cache_donor = hit.donor_prompt;
      q.cache_distance = hit.distance;
      q.cache_step_fraction = 0.0;
      q.image_tier = hit.donor_tier;
      q.image_stage = hit.donor_stage;
      const int tier = hit.donor_tier;
      backend_.defer(cfg_.cache.hit_latency, [this, q, tier] {
        auto g = backend_.guard();
        const double t = backend_.now();
        sink_.complete(q, tier, t);
        notify_terminal_locked(q, tier, t, false);
      });
      return;
    }
    if (hit.level != cache::HitLevel::kMiss) {
      // Approximate hit: the donor's intermediate result seeds the
      // generation, which resumes from the donor's stage and runs only
      // step_fraction of its diffusion steps there.
      q.cache_hit = hit.level;
      q.cache_donor = hit.donor_prompt;
      q.cache_distance = hit.distance;
      q.cache_step_fraction = hit.step_fraction;
      if (cfg_.cache.latent_levels) {
        // Per-stage resumption: only stages the donor recorded a latent
        // (or its terminal image) at can skip steps; deeper stages the
        // donor never reached run in full. Without latent levels the
        // fraction applies chain-wide (the terminal-image behaviour) and
        // the mask keeps its all-ones default.
        q.cache_level_mask = hit.level_mask;
        q.cache_resume_depth =
            chain_.size() > 1 && hit.donor_stage > 0
                ? static_cast<double>(hit.donor_stage) /
                      static_cast<double>(chain_.size() - 1)
                : 0.0;
      }
    }
  }
  if (plan_.mode == RoutingMode::kDirect && rng_.bernoulli(plan_.p_heavy)) {
    q.stage = chain_.size() - 1;
    q.stage_deadline = q.deadline;
    route_locked(std::move(q));
    return;
  }
  q.stage = 0;
  // In cascade mode, leave room for the rest of the chain.
  q.stage_deadline =
      plan_.mode == RoutingMode::kCascade
          ? std::max(q.deadline - reserve_.front(), q.arrival_time)
          : q.deadline;
  route_locked(std::move(q));
}

void CascadeEngine::resubmit_locked(std::vector<Query>&& queries) {
  for (auto& q : queries) route_locked(std::move(q));
}

CascadeEngine::WorkerSlot* CascadeEngine::shortest_queue_locked(int stage) {
  WorkerSlot* best = nullptr;
  std::size_t best_len = 0;
  for (auto& w : workers_) {
    if (w.stage != stage || !w.configured) continue;
    const std::size_t len = w.queue_size() + (w.busy ? 1 : 0);
    if (best == nullptr || len < best_len) {
      best = &w;
      best_len = len;
    }
  }
  return best;
}

void CascadeEngine::route_locked(Query q) {
  const std::size_t target = q.stage;
  // Forward: the target stage, else the nearest deeper stage with capacity
  // (e.g. Clipper-Heavy has no light pool; a shrunken chain may have lost a
  // middle stage).
  for (std::size_t s = target; s < chain_.size(); ++s) {
    WorkerSlot* w = shortest_queue_locked(static_cast<int>(s));
    if (w == nullptr) continue;
    if (s != target) {
      q.stage = s;
      q.stage_deadline = std::max(q.deadline - reserve_[s], q.arrival_time);
    }
    enqueue_locked(*w, std::move(q));
    return;
  }
  // Nothing at or below the target. A deferred query already has an image —
  // serve it best-effort rather than discarding work.
  if (q.image_tier > 0) {
    complete_locked(q, q.image_tier);
    return;
  }
  // A direct-mode query aimed at the last stage falls back up the chain.
  for (std::size_t s = target; s-- > 0;) {
    WorkerSlot* w = shortest_queue_locked(static_cast<int>(s));
    if (w == nullptr) continue;
    q.stage = s;
    q.stage_deadline = q.deadline;
    enqueue_locked(*w, std::move(q));
    return;
  }
  const double t = backend_.now();
  sink_.drop(q, t);
  notify_terminal_locked(q, -1, t, true);
}

void CascadeEngine::enqueue_locked(WorkerSlot& w, Query q) {
  DS_REQUIRE(w.configured, "enqueue on unconfigured worker");
  const double now = backend_.now();
  w.arrivals.add(now);
  // With class-aware scheduling off (or classes disabled entirely) every
  // query lives in the kStandard ring — the historical single FIFO.
  std::size_t cls = static_cast<std::size_t>(QueryClass::kStandard);
  if (cfg_.slo_classes.scheduling_active()) {
    cls = static_cast<std::size_t>(q.query_class);
    const std::size_t cap = cfg_.slo_classes.queue_capacity[cls];
    if (cap > 0 && w.queues[cls].size() >= cap) {
      // Per-class overflow:
      //   interactive — drop the oldest queued query: the freshest
      //     request wins (a stale interactive query is already worthless
      //     to its user);
      //   standard — admission backpressure: a data-path queue cannot
      //     block the DES, so the arriving query is rejected at the door;
      //   batch — reject the arrival, but work already admitted to the
      //     batch queue is never shed.
      ++class_admission_drops_[cls];
      if (q.query_class == QueryClass::kInteractive) {
        Query oldest = std::move(w.queues[cls].front().query);
        w.queues[cls].pop_front();
        ++w.dropped;
        sink_.drop(oldest, now);
        notify_terminal_locked(oldest, -1, now, true);
      } else {
        ++w.dropped;
        sink_.drop(q, now);
        notify_terminal_locked(q, -1, now, true);
        return;
      }
    }
  }
  w.queues[cls].push_back({std::move(q), now});
  maybe_start_batch_locked(static_cast<std::size_t>(w.id));
}

// ---- batch formation ------------------------------------------------------

void CascadeEngine::maybe_start_batch_locked(std::size_t i) {
  WorkerSlot& w = workers_[i];
  if (!w.configured || w.busy || w.queue_empty()) return;
  const double now = backend_.now();
  if (now < w.ready_at) return;  // model still loading

  const int b = w.batch_size;
  if (w.queue_size() >= static_cast<std::size_t>(b)) {
    disarm_timer_locked(w);
    start_batch_locked(i);
    return;
  }

  // Under-filled: lazy batching, capped. Launch at the earlier of (a) the
  // latest time that still meets the tightest stage deadline and (b) one
  // execution period after the oldest enqueue (so early-stage queries are
  // not held to the edge of their deadline just to fill a batch). Scans
  // cover every class ring; with classes disabled only the kStandard ring
  // is populated and this is the historical single-queue scan.
  const double exec = exec_seconds(w);
  double tightest = 0.0;
  double oldest = 0.0;
  bool first = true;
  for (const auto& ring : w.queues) {
    for (std::size_t k = 0; k < ring.size(); ++k) {
      const Enqueued& e = ring[k];
      if (first) {
        tightest = e.query.stage_deadline;
        oldest = e.at;
        first = false;
        continue;
      }
      tightest = std::min(tightest, e.query.stage_deadline);
      oldest = std::min(oldest, e.at);
    }
  }
  const double launch_at =
      std::min(tightest - exec - cfg_.launch_slack_seconds, oldest + exec);

  if (launch_at <= now) {
    disarm_timer_locked(w);
    start_batch_locked(i);
    return;
  }
  if (w.timer_armed && w.timer_at <= launch_at + 1e-12) return;  // already set
  disarm_timer_locked(w);
  w.timer_at = launch_at;
  w.timer_armed = true;
  const std::uint64_t epoch = ++w.timer_epoch;
  w.timer = backend_.defer(launch_at - now, [this, i, epoch] {
    auto g = backend_.guard();
    WorkerSlot& slot = workers_[i];
    // A concurrent backend may deliver a timer the engine cancelled (or
    // superseded) a moment ago; re-evaluating the batch is harmless, but
    // only the matching epoch may disarm.
    if (slot.timer_epoch == epoch) slot.timer_armed = false;
    maybe_start_batch_locked(i);
  });
}

CascadeEngine::Enqueued CascadeEngine::pop_next_locked(WorkerSlot& w) {
  for (auto& ring : w.queues) {
    if (ring.empty()) continue;
    Enqueued e = std::move(ring.front());
    ring.pop_front();
    return e;
  }
  DS_CHECK(false, "pop_next_locked on empty worker queue");
  return {};
}

void CascadeEngine::start_batch_locked(std::size_t i) {
  WorkerSlot& w = workers_[i];
  DS_CHECK(!w.busy && !w.queue_empty(), "start_batch preconditions");
  const int b = w.batch_size;
  const double exec = exec_seconds(w);
  const double now = backend_.now();
  const std::size_t stage = static_cast<std::size_t>(w.stage);
  // Class-aware policies (batch-fill priority is free — it falls out of
  // pop_next_locked's enum-ordered scan): batch-class work is never
  // deadline-dropped, and in the cache-scaled pass 2 a batch member is
  // *deferred* back to its ring rather than letting its full-fraction
  // execution push an interactive (or standard) member past its deadline.
  const bool class_aware = cfg_.slo_classes.scheduling_active();

  // Approximate cache hits skip a fraction of their diffusion steps, so a
  // batch runs for the mean per-stage step fraction of its members (misses
  // count 1.0) — and the drop decisions must use that *scaled* time, or a
  // hit-heavy batch near the deadline is dropped for an execution it would
  // never pay. Membership and the scaled time are interdependent (the mean
  // moves when a member is dropped), so selection is two-pass:
  //
  //   pass 1 — provisional membership against the most optimistic finish
  //            (exec scaled by the smallest queued fraction; 1.0 with the
  //            cache off, which keeps this pass byte-identical to the
  //            unscaled check);
  //   pass 2 — re-check members against the finish time of the selected
  //            batch, dropping at most one violator per round and
  //            recomputing: each drop moves the mean, so checking further
  //            members against the pre-drop finish time would over-drop.
  //            The victim is the *slowest* violator (highest step
  //            fraction) — its removal lowers the mean the most, giving
  //            every other member the best chance — and its freed slot is
  //            refilled from the queue before the next round, exactly as
  //            the one-pass fill loop freed slots for queued queries.
  //            Each round drops someone, so the rounds are bounded.
  //
  // Victim removal is a bitmask (drop_mask_), not an erase: dropping marks
  // the member and later scans skip it, so rounds shift no Query objects
  // and the selection sequence — hence every serving decision — is
  // identical to the erase formulation (stable member order, refills
  // append at the end either way).
  double min_fraction = 1.0;
  if (cache_ != nullptr)
    for (const auto& ring : w.queues)
      for (std::size_t k = 0; k < ring.size(); ++k)
        min_fraction =
            std::min(min_fraction, ring[k].query.step_fraction_at(stage));
  const double optimistic_done_at = now + exec * min_fraction;

  std::vector<Query> batch = acquire_batch_locked(static_cast<std::size_t>(b));
  drop_mask_.clear();
  std::size_t alive = 0;
  double run_exec = exec;
  // Batch-class members evicted by pass 2 on behalf of a tighter class.
  // Held aside (not re-queued inline) so the refill loop cannot pull them
  // straight back into the batch it just deferred them from.
  std::vector<Query> deferred_batch_class;
  for (;;) {
    while (!w.queue_empty() && alive < static_cast<std::size_t>(b)) {
      Query q = pop_next_locked(w).query;
      // Batch-class work is only ever deferred, never deadline-dropped:
      // its members skip the optimistic pass-1 drop (their multiplied
      // deadlines make violation a quality signal, not a shedding one).
      const bool droppable =
          !(class_aware && q.query_class == QueryClass::kBatch);
      if (droppable && optimistic_done_at > q.stage_deadline) {
        ++w.dropped;
        sink_.drop(q, now);
        notify_terminal_locked(q, -1, now, true);
        continue;
      }
      batch.push_back(std::move(q));
      drop_mask_.push_back(0);
      ++alive;
    }
    if (cache_ == nullptr || alive == 0) break;
    double fraction_sum = 0.0;
    for (std::size_t k = 0; k < batch.size(); ++k)
      if (!drop_mask_[k]) fraction_sum += batch[k].step_fraction_at(stage);
    run_exec = exec * fraction_sum / static_cast<double>(alive);
    const double done_at = now + run_exec;
    std::size_t victim = batch.size();
    bool victim_is_batch_class = false;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (drop_mask_[k]) continue;
      // Batch-class members never violate their way out of the batch.
      if (class_aware && batch[k].query_class == QueryClass::kBatch) continue;
      if (done_at > batch[k].stage_deadline &&
          (victim == batch.size() ||
           batch[k].step_fraction_at(stage) >
               batch[victim].step_fraction_at(stage)))
        victim = k;
    }
    if (victim != batch.size() && class_aware) {
      // A tighter-class member is pushed past its deadline by this batch's
      // scaled execution. Before dropping it, shed the *slowest*
      // batch-class member instead (highest step fraction — its removal
      // lowers the mean the most): batch work can never cost an
      // interactive or standard query its deadline. The shed member is
      // deferred back to its ring, not dropped.
      std::size_t shed = batch.size();
      for (std::size_t k = 0; k < batch.size(); ++k) {
        if (drop_mask_[k]) continue;
        if (batch[k].query_class != QueryClass::kBatch) continue;
        if (shed == batch.size() ||
            batch[k].step_fraction_at(stage) >
                batch[shed].step_fraction_at(stage))
          shed = k;
      }
      if (shed != batch.size()) {
        victim = shed;
        victim_is_batch_class = true;
      }
    }
    if (victim == batch.size()) break;
    if (victim_is_batch_class) {
      deferred_batch_class.push_back(std::move(batch[victim]));
    } else {
      ++w.dropped;
      sink_.drop(batch[victim], now);
      notify_terminal_locked(batch[victim], -1, now, true);
    }
    drop_mask_[victim] = 1;
    --alive;
  }
  // Deferred batch-class members rejoin their ring (at the tail — they
  // yielded once already) for a later, less-contended batch.
  for (auto& q : deferred_batch_class)
    w.queues[static_cast<std::size_t>(QueryClass::kBatch)].push_back(
        {std::move(q), now});
  if (alive == 0) {
    recycle_batch_locked(std::move(batch));
    // Everything at the head was overdue; try again with what remains.
    if (!w.queue_empty()) maybe_start_batch_locked(i);
    return;
  }
  if (alive != batch.size()) {
    // Compact the survivors (stable) so the execute closure carries only
    // live members.
    std::size_t out = 0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (drop_mask_[k]) continue;
      if (out != k) batch[out] = std::move(batch[k]);
      ++out;
    }
    batch.resize(out);
  }

  w.busy = true;
  w.ready_at = std::max(w.ready_at, now + run_exec);
  ++w.batches;
  w.processed += batch.size();

  // Capture the tier at launch (stage was captured above): a
  // reconfiguration during the batch's execution must not change what
  // this batch produced.
  const int tier = w.quality_tier;
  backend_.execute(
      w.id, run_exec,
      [this, i, tier, stage, batch = std::move(batch)]() mutable {
        auto g = backend_.guard();
        finish_batch_locked(i, batch, tier, stage);
      });
}

void CascadeEngine::finish_batch_locked(std::size_t i,
                                        std::vector<Query>& batch,
                                        int served_tier, std::size_t stage) {
  WorkerSlot& w = workers_[i];
  w.busy = false;
  const bool terminal =
      plan_.mode == RoutingMode::kDirect || stage + 1 >= chain_.size();
  // Timestamps are read per completion, not cached across the loop: a
  // deferred query that completes best-effort inside route_locked() writes
  // a fresh (later) wall-clock time into the sink, so a cached `now` on
  // the next iteration would move the sink's clock backwards on a
  // wall-clock backend. (On the DES time is frozen for the whole
  // callback, so every read returns the same instant.)
  if (terminal) {
    for (auto& q : batch) {
      q.image_tier = served_tier;
      q.image_stage = static_cast<int>(stage);
      complete_locked(q, served_tier);
    }
  } else {
    // Cascade: score the stage's image with the boundary discriminator.
    const double threshold = plan_.thresholds[stage];
    for (auto& q : batch) {
      // Score the image the stage actually produced: for an approx cache
      // hit that is the donor's image plus reuse noise, so a degraded
      // reuse naturally scores lower and defers down the chain.
      q.confidence = scoring_confidence_locked(q, stage, served_tier);
      q.image_tier = served_tier;
      q.image_stage = static_cast<int>(stage);
      if (confidence_observer_) confidence_observer_(stage, q.confidence);
      if (q.confidence >= threshold) {
        complete_locked(q, served_tier);
      } else {
        q.deferred = true;
        ++q.deferrals;
        q.stage = stage + 1;
        q.stage_deadline = q.deadline - reserve_[stage + 1];
        // Boundary crossing: the stage's output is exactly the
        // intermediate latent a future similar prompt can resume from.
        // Only fully generated work is recorded (an approx hit's latent is
        // already donor-contaminated).
        if (cache_ != nullptr && cfg_.cache.latent_levels &&
            q.cache_hit == cache::HitLevel::kMiss)
          cache_->insert_latent(q.prompt_id, served_tier,
                                static_cast<int>(stage),
                                workload_.style(q.prompt_id), backend_.now());
        route_locked(std::move(q));
      }
    }
  }
  // The closure's vector is done; recycle its storage before the next
  // batch forms so it can be reused immediately.
  recycle_batch_locked(std::move(batch));
  maybe_start_batch_locked(i);
}

double CascadeEngine::scoring_confidence_locked(const Query& q,
                                                std::size_t stage, int tier) {
  const discriminator::Discriminator* disc = discs_[stage];
  DS_CHECK(disc != nullptr, "cascade boundary requires a discriminator");
  if (q.cache_hit == cache::HitLevel::kMiss) {
    // generated_feature reseeds its RNG stream from (prompt, tier) on
    // every call — a pure function — and the discriminator is stateless,
    // so the memoized score is bit-identical to a fresh forward pass.
    const std::uint64_t key = (static_cast<std::uint64_t>(q.prompt_id) << 16) |
                              (static_cast<std::uint64_t>(stage & 0xFF) << 8) |
                              static_cast<std::uint64_t>(tier & 0xFF);
    auto it = miss_confidence_memo_.find(key);
    if (it == miss_confidence_memo_.end())
      it = miss_confidence_memo_
               .emplace(key, disc->confidence(workload_.generated_feature(
                                 q.prompt_id, tier)))
               .first;
    return it->second;
  }
  return disc->confidence(served_image_feature(workload_, q, tier));
}

std::vector<Query> CascadeEngine::acquire_batch_locked(std::size_t reserve) {
  std::vector<Query> batch;
  if (!batch_pool_.empty()) {
    batch = std::move(batch_pool_.back());
    batch_pool_.pop_back();
  }
  batch.reserve(reserve);
  return batch;
}

void CascadeEngine::recycle_batch_locked(std::vector<Query>&& batch) {
  batch.clear();
  // Bounded: one vector per plausible in-flight batch is plenty; beyond
  // that, let the allocator have it back.
  if (batch_pool_.size() < workers_.size() + 4)
    batch_pool_.push_back(std::move(batch));
}

void CascadeEngine::complete_locked(const Query& q, int served_tier) {
  const double t = backend_.now();
  sink_.complete(q, served_tier, t);
  notify_terminal_locked(q, served_tier, t, false);
  // Only fully generated images enter the cache: an approx-hit result is
  // already donor-contaminated, and re-caching it would compound reuse
  // error over hit chains.
  if (cache_ != nullptr && q.cache_hit == cache::HitLevel::kMiss)
    cache_->insert(q.prompt_id, served_tier,
                   q.image_stage >= 0 ? q.image_stage
                                      : static_cast<int>(q.stage),
                   workload_.style(q.prompt_id), backend_.now());
}

// ---- observers & statistics -----------------------------------------------

void CascadeEngine::set_confidence_observer(
    std::function<void(std::size_t, double)> observer) {
  auto g = backend_.guard();
  confidence_observer_ = std::move(observer);
}

void CascadeEngine::set_terminal_observer(
    std::function<void(const Query&, int, double, bool)> observer) {
  auto g = backend_.guard();
  terminal_observer_ = std::move(observer);
}

double CascadeEngine::demand_rate() const {
  auto g = backend_.guard();
  return demand_.rate(backend_.now());
}

std::array<double, kQueryClassCount> CascadeEngine::class_demand_rates()
    const {
  auto g = backend_.guard();
  std::array<double, kQueryClassCount> out{};
  if (!cfg_.slo_classes.enabled) return out;
  const double now = backend_.now();
  for (std::size_t c = 0; c < kQueryClassCount; ++c)
    out[c] = class_demand_[c].rate(now);
  return out;
}

std::array<std::uint64_t, kQueryClassCount>
CascadeEngine::class_admission_drops() const {
  auto g = backend_.guard();
  return class_admission_drops_;
}

PoolStats CascadeEngine::pool_stats_locked(int stage) const {
  PoolStats s;
  const double now = backend_.now();
  for (const auto& w : workers_) {
    if (w.stage != stage) continue;
    s.total_queue_length += static_cast<double>(w.queue_size());
    s.arrival_rate += w.arrivals.rate(now);
    ++s.workers;
  }
  return s;
}

PoolStats CascadeEngine::stage_stats(std::size_t s) const {
  auto g = backend_.guard();
  return pool_stats_locked(static_cast<int>(s));
}

std::uint64_t CascadeEngine::submitted() const {
  auto g = backend_.guard();
  return submitted_;
}

std::size_t CascadeEngine::reconfigurations() const {
  auto g = backend_.guard();
  return reconfigurations_;
}

double CascadeEngine::recent_violation_ratio() const {
  auto g = backend_.guard();
  return sink_.recent_violation_ratio(backend_.now());
}

void CascadeEngine::sink_reserve(std::size_t expected_terminals) {
  auto g = backend_.guard();
  sink_.reserve(expected_terminals);
}

cache::CacheStats CascadeEngine::cache_stats() const {
  auto g = backend_.guard();
  return cache_ != nullptr ? cache_->stats() : cache::CacheStats{};
}

CascadeEngine::WorkerInfo CascadeEngine::worker_info(std::size_t i) const {
  auto g = backend_.guard();
  const WorkerSlot& w = workers_[i];
  WorkerInfo info;
  info.configured = w.configured;
  info.stage = w.stage;
  info.busy = w.busy;
  info.batch_size = w.batch_size;
  info.queue_length = w.queue_size();
  for (std::size_t c = 0; c < kQueryClassCount; ++c)
    info.class_queue_lengths[c] = w.queues[c].size();
  info.batches = w.batches;
  info.processed = w.processed;
  info.dropped = w.dropped;
  return info;
}

}  // namespace diffserve::engine
