#include "cluster/shard_frontend.hpp"

#include <algorithm>

#include "engine/engine.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace diffserve::cluster {

namespace {

/// Virtual nodes per shard on the hash ring; more = smoother key spread,
/// marginally slower ring build (lookups stay O(log ring)).
constexpr std::size_t kVirtualNodes = 64;
constexpr std::uint64_t kHashSeed = 0x5ca1ab1edeadbeefULL;

/// splitmix64 finalizer — the ring's point hash. Strong avalanche from a
/// few mixing rounds; deterministic across platforms.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardFrontend::ShardFrontend(const quality::Workload& workload,
                             const quality::FidScorer& scorer,
                             FrontendConfig cfg)
    : cfg_(cfg),
      sampler_(workload.size(), cfg.prompt_mix),
      sink_(workload, scorer) {
  sink_.set_record_terminal_events(cfg_.record_terminal_events);
}

void ShardFrontend::attach_shard(std::unique_ptr<net::Endpoint> endpoint) {
  const std::size_t shard = shards_.size();
  endpoint->set_receiver(
      [this, shard](net::Frame f) { on_frame(shard, std::move(f)); });
  shards_.push_back(std::move(endpoint));
  // Setup is single-threaded (attach-all-then-serve), but the guarded
  // members still take the lock so the discipline is uniform.
  util::MutexLock lock(mu_);
  inflight_.push_back(0);
  // Rebuild the ring: kVirtualNodes points per shard, keyed by
  // (shard, replica) under the seed. Deterministic for a given shard
  // count, independent of attach interleaving with traffic (attach-all-
  // then-serve is the contract).
  ring_.clear();
  ring_.reserve(shards_.size() * kVirtualNodes);
  // Vnode points live in the upper-half input domain ((s+1) << 32 is
  // always nonzero) while prompt keys hash from the 32-bit pid domain —
  // disjoint inputs, so no key ever lands exactly on a point (an exact
  // collision would pin that key to the colliding shard forever).
  for (std::uint32_t s = 0; s < shards_.size(); ++s)
    for (std::size_t v = 0; v < kVirtualNodes; ++v)
      ring_.emplace_back(
          mix64(kHashSeed ^ (std::uint64_t{s + 1} << 32) ^
                static_cast<std::uint64_t>(v)),
          s);
  std::sort(ring_.begin(), ring_.end());
}

void ShardFrontend::start_transports() {
  for (auto& ep : shards_) ep->start();
}

void ShardFrontend::stop_transports() {
  for (auto& ep : shards_) ep->stop();
}

std::size_t ShardFrontend::hash_shard_locked(
    quality::QueryId prompt_id) const {
  DS_REQUIRE(!ring_.empty(), "route before any shard was attached");
  const std::uint64_t h = mix64(kHashSeed ^ prompt_id);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::uint32_t>& e, std::uint64_t v) {
        return e.first < v;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the circle
  return it->second;
}

std::size_t ShardFrontend::route_locked(quality::QueryId prompt_id) const {
  const std::size_t owner = hash_shard_locked(prompt_id);
  if (shards_.size() == 1) return owner;
  // Least-loaded fallback: divert only when the owner is far ahead of the
  // least loaded shard — hash affinity (and with it cache locality) wins
  // in the steady state, load wins under pathological skew.
  const std::uint64_t own_load = inflight_[owner];
  if (own_load < kImbalanceMinInflight) return owner;
  std::size_t least = 0;
  for (std::size_t s = 1; s < inflight_.size(); ++s)
    if (inflight_[s] < inflight_[least]) least = s;
  if (static_cast<double>(own_load) >
      kImbalanceFactor * static_cast<double>(inflight_[least] + 1))
    return least;
  return owner;
}

std::size_t ShardFrontend::hash_shard(quality::QueryId prompt_id) const {
  util::MutexLock lock(mu_);
  return hash_shard_locked(prompt_id);
}

std::size_t ShardFrontend::route(quality::QueryId prompt_id) const {
  util::MutexLock lock(mu_);
  return route_locked(prompt_id);
}

engine::Query ShardFrontend::submit_next(double now) {
  engine::Query q;
  std::size_t shard = 0;
  {
    util::MutexLock lock(mu_);
    // The engine's own admission — the 1-shard equivalence contract
    // depends on this.
    q = engine::admit_query(next_seq_++, now, sampler_, cfg_.slo_seconds,
                            cfg_.slo_classes);
    shard = route_locked(q.prompt_id);
    ++inflight_[shard];
    ++submitted_;
  }
  shards_[shard]->send(net::encode(
      net::QueryMsg{static_cast<std::uint32_t>(shard), q}));
  return q;
}

void ShardFrontend::submit(engine::Query q) {
  std::size_t shard = 0;
  {
    util::MutexLock lock(mu_);
    shard = route_locked(q.prompt_id);
    ++inflight_[shard];
    ++submitted_;
  }
  shards_[shard]->send(net::encode(
      net::QueryMsg{static_cast<std::uint32_t>(shard), std::move(q)}));
}

void ShardFrontend::send_to_shard(std::size_t shard, const net::Frame& f) {
  DS_REQUIRE(shard < shards_.size(), "send_to_shard out of range");
  shards_[shard]->send(f);
}

void ShardFrontend::set_stats_listener(
    std::function<void(const net::ShardStatsMsg&)> fn) {
  util::MutexLock lock(mu_);
  stats_listener_ = std::move(fn);
}

void ShardFrontend::on_frame(std::size_t shard, net::Frame f) {
  if (f.topic == net::kTopicTerminal) {
    net::TerminalMsg m;
    if (!decode(f, &m)) {
      DS_LOG_WARN("cluster") << "undecodable terminal frame from shard "
                             << shard;
      return;
    }
    util::MutexLock lock(mu_);
    // Cross-shard socket delivery can reorder by microseconds; the sink's
    // sliding windows require non-decreasing timestamps. Clamping is a
    // no-op on the DES (delivery order is event order).
    const double t = std::max(m.time, last_sink_time_);
    last_sink_time_ = t;
    if (m.dropped)
      sink_.drop(m.query, t);
    else
      sink_.complete(m.query, m.served_tier, t);
    DS_REQUIRE(inflight_[shard] > 0, "terminal without a matching submit");
    --inflight_[shard];
    ++terminated_;
    return;
  }
  if (f.topic == net::kTopicStats) {
    net::ShardStatsMsg m;
    if (!decode(f, &m)) {
      DS_LOG_WARN("cluster") << "undecodable stats frame from shard "
                             << shard;
      return;
    }
    std::function<void(const net::ShardStatsMsg&)> listener;
    {
      util::MutexLock lock(mu_);
      listener = stats_listener_;
    }
    if (listener) listener(m);
    return;
  }
  DS_LOG_WARN("cluster") << "unexpected topic '" << f.topic
                         << "' from shard " << shard;
}

std::uint64_t ShardFrontend::submitted() const {
  util::MutexLock lock(mu_);
  return submitted_;
}

std::uint64_t ShardFrontend::terminated() const {
  util::MutexLock lock(mu_);
  return terminated_;
}

bool ShardFrontend::drained() const {
  util::MutexLock lock(mu_);
  return terminated_ == submitted_;
}

std::uint64_t ShardFrontend::inflight(std::size_t shard) const {
  util::MutexLock lock(mu_);
  return inflight_[shard];
}

}  // namespace diffserve::cluster
