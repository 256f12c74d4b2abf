#include "net/messages.hpp"

#include <cstring>

namespace diffserve::net {

namespace {

// ---- primitive writers (big-endian) ----------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

// ---- primitive readers ------------------------------------------------------

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : p_(buf.data()), n_(buf.size()) {}

  bool u8(std::uint8_t* v) {
    if (pos_ + 1 > n_) return false;
    *v = p_[pos_++];
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (pos_ + 4 > n_) return false;
    *v = (std::uint32_t{p_[pos_]} << 24) | (std::uint32_t{p_[pos_ + 1]} << 16) |
         (std::uint32_t{p_[pos_ + 2]} << 8) | std::uint32_t{p_[pos_ + 3]};
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    std::uint32_t hi = 0, lo = 0;
    if (!u32(&hi) || !u32(&lo)) return false;
    *v = (std::uint64_t{hi} << 32) | std::uint64_t{lo};
    return true;
  }
  bool i32(std::int32_t* v) {
    std::uint32_t raw = 0;
    if (!u32(&raw)) return false;
    *v = static_cast<std::int32_t>(raw);
    return true;
  }
  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool boolean(bool* v) {
    std::uint8_t raw = 0;
    if (!u8(&raw) || raw > 1) return false;
    *v = raw != 0;
    return true;
  }
  /// Element count for a vector field, sanity-capped so a corrupt count
  /// can't drive a giant allocation before the per-element reads fail.
  bool count(std::size_t* v, std::size_t cap = 4096) {
    std::uint32_t raw = 0;
    if (!u32(&raw) || raw > cap) return false;
    *v = raw;
    return true;
  }
  bool done() const { return pos_ == n_; }

 private:
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

// ---- shared sub-records ------------------------------------------------------

void write_query(Writer& w, const engine::Query& q) {
  w.u64(q.seq);
  w.u32(q.prompt_id);
  w.f64(q.arrival_time);
  w.f64(q.deadline);
  w.u32(static_cast<std::uint32_t>(q.stage));
  w.f64(q.stage_deadline);
  w.f64(q.confidence);
  w.boolean(q.deferred);
  w.i32(q.deferrals);
  w.i32(q.image_tier);
  w.i32(q.image_stage);
  w.u8(static_cast<std::uint8_t>(q.cache_hit));
  w.u32(q.cache_donor);
  w.f64(q.cache_distance);
  w.f64(q.cache_step_fraction);
  w.u32(q.cache_level_mask);
  w.f64(q.cache_resume_depth);
  w.u8(static_cast<std::uint8_t>(q.query_class));
}

bool read_query(Reader& r, engine::Query* q) {
  std::uint32_t stage = 0;
  std::uint8_t hit = 0;
  std::uint8_t cls = 0;
  const bool ok = r.u64(&q->seq) && r.u32(&q->prompt_id) &&
                  r.f64(&q->arrival_time) && r.f64(&q->deadline) &&
                  r.u32(&stage) && r.f64(&q->stage_deadline) &&
                  r.f64(&q->confidence) && r.boolean(&q->deferred) &&
                  r.i32(&q->deferrals) && r.i32(&q->image_tier) &&
                  r.i32(&q->image_stage) && r.u8(&hit) &&
                  r.u32(&q->cache_donor) && r.f64(&q->cache_distance) &&
                  r.f64(&q->cache_step_fraction) &&
                  r.u32(&q->cache_level_mask) &&
                  r.f64(&q->cache_resume_depth) && r.u8(&cls);
  if (!ok || hit > static_cast<std::uint8_t>(cache::HitLevel::kApproxFar) ||
      cls >= engine::kQueryClassCount)
    return false;
  q->stage = stage;
  q->cache_hit = static_cast<cache::HitLevel>(hit);
  q->query_class = static_cast<engine::QueryClass>(cls);
  return true;
}

void write_cache_stats(Writer& w, const cache::CacheStats& s) {
  w.u64(s.lookups);
  w.u64(s.exact_hits);
  w.u64(s.near_hits);
  w.u64(s.far_hits);
  w.u64(s.insertions);
  w.u64(s.latent_insertions);
  w.u64(s.evictions);
  w.f64(s.step_fraction_sum);
  w.f64(s.near_step_fraction_sum);
  w.f64(s.far_step_fraction_sum);
  w.u64(s.lsh_probed_cells);
  w.u64(s.lsh_probe_candidates);
  w.u64(s.heap_compactions);
  w.u64(s.heap_stale_pops);
}

bool read_cache_stats(Reader& r, cache::CacheStats* s) {
  return r.u64(&s->lookups) && r.u64(&s->exact_hits) && r.u64(&s->near_hits) &&
         r.u64(&s->far_hits) && r.u64(&s->insertions) &&
         r.u64(&s->latent_insertions) && r.u64(&s->evictions) &&
         r.f64(&s->step_fraction_sum) && r.f64(&s->near_step_fraction_sum) &&
         r.f64(&s->far_step_fraction_sum) && r.u64(&s->lsh_probed_cells) &&
         r.u64(&s->lsh_probe_candidates) && r.u64(&s->heap_compactions) &&
         r.u64(&s->heap_stale_pops);
}

void write_plan(Writer& w, const engine::AllocationPlan& p) {
  w.u8(static_cast<std::uint8_t>(p.mode));
  w.u32(static_cast<std::uint32_t>(p.workers.size()));
  for (int x : p.workers) w.i32(x);
  w.u32(static_cast<std::uint32_t>(p.batches.size()));
  for (int b : p.batches) w.i32(b);
  w.u32(static_cast<std::uint32_t>(p.thresholds.size()));
  for (double t : p.thresholds) w.f64(t);
  w.f64(p.p_heavy);
}

bool read_plan(Reader& r, engine::AllocationPlan* p) {
  std::uint8_t mode = 0;
  std::size_t n = 0;
  if (!r.u8(&mode) || mode > 1) return false;
  p->mode = static_cast<engine::RoutingMode>(mode);
  if (!r.count(&n)) return false;
  p->workers.resize(n);
  for (auto& x : p->workers)
    if (!r.i32(&x)) return false;
  if (!r.count(&n)) return false;
  p->batches.resize(n);
  for (auto& b : p->batches)
    if (!r.i32(&b)) return false;
  if (!r.count(&n)) return false;
  p->thresholds.resize(n);
  for (auto& t : p->thresholds)
    if (!r.f64(&t)) return false;
  return r.f64(&p->p_heavy);
}

Frame make_frame(const char* topic, Priority prio, Writer&& w) {
  Frame f;
  f.priority = static_cast<std::uint8_t>(prio);
  f.topic = topic;
  f.payload = w.take();
  return f;
}

bool topic_is(const Frame& f, const char* topic) { return f.topic == topic; }

}  // namespace

// ---- query/submit -----------------------------------------------------------

Frame encode(const QueryMsg& m) {
  Writer w;
  w.u32(m.shard);
  write_query(w, m.query);
  return make_frame(kTopicQuery, Priority::kHigh, std::move(w));
}

bool decode(const Frame& f, QueryMsg* out) {
  if (!topic_is(f, kTopicQuery)) return false;
  Reader r(f.payload);
  return r.u32(&out->shard) && read_query(r, &out->query) && r.done();
}

// ---- query/terminal ----------------------------------------------------------

Frame encode(const TerminalMsg& m) {
  Writer w;
  w.u32(m.shard);
  write_query(w, m.query);
  w.f64(m.time);
  w.i32(m.served_tier);
  w.boolean(m.dropped);
  return make_frame(kTopicTerminal, Priority::kMedium, std::move(w));
}

bool decode(const Frame& f, TerminalMsg* out) {
  if (!topic_is(f, kTopicTerminal)) return false;
  Reader r(f.payload);
  return r.u32(&out->shard) && read_query(r, &out->query) &&
         r.f64(&out->time) && r.i32(&out->served_tier) &&
         r.boolean(&out->dropped) && r.done();
}

// ---- shard/stats_request -------------------------------------------------------

Frame encode(const StatsRequestMsg& m) {
  Writer w;
  w.u32(m.shard);
  w.u64(m.token);
  return make_frame(kTopicStatsRequest, Priority::kCritical, std::move(w));
}

bool decode(const Frame& f, StatsRequestMsg* out) {
  if (!topic_is(f, kTopicStatsRequest)) return false;
  Reader r(f.payload);
  return r.u32(&out->shard) && r.u64(&out->token) && r.done();
}

// ---- shard/stats ---------------------------------------------------------------

Frame encode(const ShardStatsMsg& m) {
  Writer w;
  w.u32(m.shard);
  w.u64(m.token);
  w.f64(m.time);
  w.f64(m.demand_rate);
  w.f64(m.recent_violation_ratio);
  w.u64(m.submitted);
  w.boolean(m.cache_enabled);
  write_cache_stats(w, m.cache);
  w.u32(static_cast<std::uint32_t>(m.stages.size()));
  for (const auto& s : m.stages) {
    w.f64(s.queue_length);
    w.f64(s.arrival_rate);
    w.i32(s.workers);
  }
  w.u32(static_cast<std::uint32_t>(m.class_demand.size()));
  for (double d : m.class_demand) w.f64(d);
  return make_frame(kTopicStats, Priority::kCritical, std::move(w));
}

bool decode(const Frame& f, ShardStatsMsg* out) {
  if (!topic_is(f, kTopicStats)) return false;
  Reader r(f.payload);
  std::size_t n = 0;
  if (!(r.u32(&out->shard) && r.u64(&out->token) && r.f64(&out->time) &&
        r.f64(&out->demand_rate) && r.f64(&out->recent_violation_ratio) &&
        r.u64(&out->submitted) && r.boolean(&out->cache_enabled) &&
        read_cache_stats(r, &out->cache) && r.count(&n)))
    return false;
  out->stages.resize(n);
  for (auto& s : out->stages)
    if (!(r.f64(&s.queue_length) && r.f64(&s.arrival_rate) &&
          r.i32(&s.workers)))
      return false;
  if (!r.count(&n)) return false;
  out->class_demand.resize(n);
  for (auto& d : out->class_demand)
    if (!r.f64(&d)) return false;
  return r.done();
}

// ---- cluster/plan ----------------------------------------------------------------

Frame encode(const PlanMsg& m) {
  Writer w;
  w.u32(m.shard);
  write_plan(w, m.plan);
  return make_frame(kTopicPlan, Priority::kCritical, std::move(w));
}

bool decode(const Frame& f, PlanMsg* out) {
  if (!topic_is(f, kTopicPlan)) return false;
  Reader r(f.payload);
  return r.u32(&out->shard) && read_plan(r, &out->plan) && r.done();
}

}  // namespace diffserve::net
