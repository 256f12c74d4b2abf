// cluster_tcp_zipf: two engine shards of six workers each on threaded
// backends, behind a ShardFrontend over one TCP connection per shard on
// 127.0.0.1, driven by a ClusterController. Assembled from public
// classes, mirroring cluster::run_cluster_threaded, so every seam — the
// backends, the allocator, both ends of each link — can be wrapped.
//
// Time runs 300x compressed: a constant 20 qps of trace time is about
// 6,000 queries per wall second from one generator thread. Prompts follow
// a Zipf mix with locality, each shard runs the approximate prompt cache
// at capacity 128, and SLO classes are on (20/60/20 interactive /
// standard / batch, deadline multipliers 0.7 / 1 / 8, as in fig13).
//
// The same topology and configs built on a simulator with loopback links
// must equal cluster::run_cluster_des bit for bit, which ties this copy
// of the runner's settings to the library.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cache/approx_cache.hpp"
#include "cluster/cluster_controller.hpp"
#include "cluster/cluster_run.hpp"
#include "cluster/shard_frontend.hpp"
#include "cluster/shard_node.hpp"
#include "control/exhaustive_allocator.hpp"
#include "ledger.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"
#include "runtime/threaded_runtime.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"
#include "util/trace_clock.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr double kTimeScale = 300.0;
constexpr int kShards = 2;
constexpr int kWorkersPerShard = 6;
constexpr double kQps = 20.0;
// Controller and engine settings: cluster::ClusterRunConfig's defaults.
constexpr double kControlPeriod = 5.0;
constexpr double kOverProvision = 1.05;
constexpr double kMaxDeferralFraction = 0.55;
constexpr double kModelLoadDelay = 1.0;
/// Trace seconds per realization: 2 wall seconds, about 12,000 queries.
constexpr double kIterationTraceSeconds = 600.0;
/// Run seconds per realization (realization_count()); a realization
/// takes about 2.2 s, drain included, plus its environment rebuild.
constexpr double kSecondsPerRealization = 2.5;

engine::SloClassConfig slo_classes() {
  engine::SloClassConfig c;
  c.enabled = true;
  c.deadline_multiplier = {0.7, 1.0, 8.0};
  return c;
}

cache::CacheConfig cache_config() {
  cache::CacheConfig c;
  c.enabled = true;
  c.capacity = 128;
  return c;
}

trace::PromptMixConfig prompt_mix(std::uint64_t seed) {
  trace::PromptMixConfig m;
  m.kind = trace::PromptMixConfig::Kind::kZipf;
  m.zipf_exponent = 1.05;
  m.locality = 0.3;
  m.seed = 0x5eedULL ^ (seed * 0x9e3779b97f4a7c15ULL);
  m.interactive_share = 0.2;
  m.batch_share = 0.2;
  m.class_seed = 0xc1a55ULL ^ (seed * 0xbf58476d1ce4e5b9ULL);
  return m;
}

/// Shard-side engine config, as cluster::run_cluster_threaded builds it:
/// shard sinks run without records (the frontend's sink keeps them).
engine::EngineConfig shard_config(double slo, int shard) {
  engine::EngineConfig e;
  e.total_workers = kWorkersPerShard;
  e.slo_seconds = slo;
  e.model_load_delay = kModelLoadDelay;
  e.launch_slack_seconds = 0.004 * kTimeScale;
  e.seed = 1 + static_cast<std::uint64_t>(shard);
  e.record_terminal_events = false;
  e.cache = cache_config();
  e.slo_classes = slo_classes();
  return e;
}

cluster::FrontendConfig frontend_config(double slo, std::uint64_t seed) {
  cluster::FrontendConfig f;
  f.slo_seconds = slo;
  f.prompt_mix = prompt_mix(seed);
  f.record_terminal_events = true;
  f.slo_classes = slo_classes();
  return f;
}

cluster::ClusterControllerConfig controller_config() {
  cluster::ClusterControllerConfig c;
  c.control.period_seconds = kControlPeriod;
  c.control.over_provision = kOverProvision;
  c.control.max_deferral_fraction = kMaxDeferralFraction;
  c.control.initial_demand_guess = kQps;
  return c;
}

/// The library's runner settings that describe the same topology, for
/// the cross-check against cluster::run_cluster_des.
cluster::ClusterRunConfig run_config(std::uint64_t seed) {
  cluster::ClusterRunConfig c;
  c.shards = kShards;
  c.workers_per_shard = kWorkersPerShard;
  c.control_period = kControlPeriod;
  c.over_provision = kOverProvision;
  c.max_deferral_fraction = kMaxDeferralFraction;
  c.initial_demand_guess = kQps;
  c.model_load_delay = kModelLoadDelay;
  c.arrival_seed = seed;
  c.cache = cache_config();
  c.prompt_mix = prompt_mix(seed);
  c.slo_classes = slo_classes();
  return c;
}

struct TwinResult {
  double fid = 0.0;
  double violation_ratio = 0.0;
  std::size_t submitted = 0, completed = 0, dropped = 0;
};

/// The benchmark's topology and configs on a simulator with loopback
/// links instead of threads and sockets: what cluster::run_cluster_des
/// runs, so the two must agree bit for bit. It ties the configs the
/// threaded assembly below uses to the library's own runner.
TwinResult serve_des_twin(const core::CascadeEnvironment& env,
                          std::uint64_t seed) {
  const double slo = env.default_slo();
  const auto tr = trace::RateTrace::constant(kQps, kIterationTraceSeconds);
  sim::Simulation sim;
  serving::SimulationBackend backend(sim);
  std::vector<std::unique_ptr<engine::CascadeEngine>> engines;
  for (int s = 0; s < kShards; ++s) {
    engine::EngineConfig e = shard_config(slo, s);
    e.launch_slack_seconds = 0.0;  // no dispatch lag to absorb in a DES
    engines.push_back(std::make_unique<engine::CascadeEngine>(
        backend, env.workload(), env.repository(), env.cascade(), env.discs(),
        env.scorer(), e));
  }
  cluster::ShardFrontend frontend(env.workload(), env.scorer(),
                                  frontend_config(slo, seed));
  const net::DeferFn defer = [&sim](double delay, std::function<void()> fn) {
    sim.schedule_in(delay, std::move(fn));
  };
  std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
  for (int s = 0; s < kShards; ++s) {
    auto link = net::make_loopback_link(0.0, defer);
    nodes.push_back(std::make_unique<cluster::ShardNode>(
        static_cast<std::uint32_t>(s), *engines[static_cast<std::size_t>(s)],
        std::move(link.second)));
    frontend.attach_shard(std::move(link.first));
  }
  cluster::ClusterController cc(
      frontend, *engines.front(), kWorkersPerShard, slo,
      std::make_unique<control::ExhaustiveAllocator>(),
      env.offline_profiles(), controller_config());
  for (auto& eng : engines)
    eng->set_confidence_observer(
        [&cc](std::size_t b, double c) { cc.observe_confidence(b, c); });
  util::Rng rng(seed);
  const auto arrivals = trace::generate_arrivals(tr, rng);
  frontend.sink().reserve(arrivals.size());
  for (const double t : arrivals)
    sim.schedule_at(t, [&frontend, &sim] { frontend.submit_next(sim.now()); });
  cc.start();
  sim.run_until(tr.duration() + slo + run_config(seed).drain_seconds);
  cc.stop();
  sim.run_all();
  const auto& sink = frontend.sink();
  return {sink.overall_fid(), sink.violation_ratio(), frontend.submitted(),
          sink.completed(), sink.dropped()};
}

/// Fails the run unless the DES twin of realization `seed` equals
/// cluster::run_cluster_des on the same settings.
void check_against_library(const core::CascadeEnvironment& env,
                           std::uint64_t seed, Report& report) {
  const TwinResult twin = serve_des_twin(env, seed);
  control::ExhaustiveAllocator alloc;
  const auto r = cluster::run_cluster_des(
      env, alloc, trace::RateTrace::constant(kQps, kIterationTraceSeconds),
      run_config(seed));
  std::printf("run_cluster_des: fid %.17g violation %.17g submitted %zu "
              "completed %zu dropped %zu; benchmark topology on the DES: "
              "fid %.17g violation %.17g submitted %zu completed %zu "
              "dropped %zu\n",
              r.overall_fid, r.violation_ratio, r.submitted, r.completed,
              r.dropped, twin.fid, twin.violation_ratio, twin.submitted,
              twin.completed, twin.dropped);
  if (r.overall_fid != twin.fid || r.violation_ratio != twin.violation_ratio ||
      r.submitted != twin.submitted || r.completed != twin.completed ||
      r.dropped != twin.dropped)
    report.fail("benchmark cluster topology differs from "
                "cluster::run_cluster_des");
}

void add_cache_layers(MetricMap& m,
                      const std::vector<const engine::CascadeEngine*>& engines,
                      const core::CascadeEnvironment& env,
                      std::uint64_t seed, std::size_t queries) {
  cache::CacheStats sum;
  for (const auto* eng : engines) {
    const auto s = eng->cache_stats();
    sum.lookups += s.lookups;
    sum.exact_hits += s.exact_hits;
    sum.near_hits += s.near_hits;
    sum.far_hits += s.far_hits;
    sum.insertions += s.insertions;
    sum.evictions += s.evictions;
    sum.lsh_probed_cells += s.lsh_probed_cells;
  }
  m["cache.lookups"] = static_cast<double>(sum.lookups);
  m["cache.hit_ratio"] = sum.hit_ratio();
  m["cache.exact_hit_ratio"] = sum.exact_hit_ratio();
  m["cache.insertions"] = static_cast<double>(sum.insertions);
  m["cache.evictions"] = static_cast<double>(sum.evictions);
  m["cache.probed_cells_per_lookup"] = sum.mean_probed_cells();

  // Replay the workload's prompt stream into one cache of the same
  // config: every lookup timed, and an insert after every miss, as the
  // engine does when a fully generated image completes.
  cache::CacheConfig cfg = cache_config();
  cfg.chain_stages = env.stage_count();
  cache::ApproxCache replay(cfg);
  trace::PromptSampler sampler(env.workload().size(), prompt_mix(seed));
  std::int64_t lookup_ns = 0, insert_ns = 0;
  std::size_t inserts = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    const auto prompt = sampler.next();
    const auto& key = env.workload().style(prompt);
    const double now = static_cast<double>(i) / kQps;
    const std::int64_t t0 = now_ns();
    const auto hit = replay.lookup(key, now);
    const std::int64_t t1 = now_ns();
    lookup_ns += t1 - t0;
    if (hit.level == cache::HitLevel::kMiss) {
      const std::int64_t t2 = now_ns();
      replay.insert(prompt, env.heavy_tier(),
                    static_cast<int>(env.stage_count()) - 1, key, now);
      insert_ns += now_ns() - t2;
      ++inserts;
    }
  }
  m["cache.lookup_ns"] =
      queries > 0 ? static_cast<double>(lookup_ns) /
                        static_cast<double>(queries)
                  : 0.0;
  m["cache.insert_ns"] =
      inserts > 0 ? static_cast<double>(insert_ns) /
                        static_cast<double>(inserts)
                  : 0.0;
}

void add_net_layers(MetricMap& m,
                    const std::vector<std::unique_ptr<Direction>>& dirs,
                    FrameCapture& capture, cluster::ShardFrontend& frontend,
                    double sent_queries) {
  std::uint64_t frames = 0, bytes = 0;
  std::vector<double> hops;
  for (const auto& d : dirs) {
    frames += d->frames;
    bytes += d->bytes;
    // Links are ordered: the i-th frame sent is the i-th received.
    const std::size_t n = std::min(d->sent_ns.size(), d->recv_ns.size());
    for (std::size_t i = 0; i < n; ++i)
      hops.push_back(static_cast<double>(d->recv_ns[i] - d->sent_ns[i]) /
                     1e3);
  }
  m["net.frames_per_query"] = static_cast<double>(frames) / sent_queries;
  m["net.bytes_per_query"] = static_cast<double>(bytes) / sent_queries;
  m["net.hop_us_p50"] = supported_percentile(hops, 50.0).value;
  m["net.hop_us_p99"] = supported_percentile(hops, 99.0).value;

  // Codec replay over the captured submit and terminal frames.
  std::vector<net::QueryMsg> queries;
  std::vector<net::TerminalMsg> terminals;
  std::size_t errors = 0;
  for (const auto& f : capture.queries) {
    net::QueryMsg q;
    if (decode(f, &q))
      queries.push_back(q);
    else
      ++errors;
  }
  for (const auto& f : capture.terminals) {
    net::TerminalMsg t;
    if (decode(f, &t))
      terminals.push_back(t);
    else
      ++errors;
  }
  m["net.decode_errors"] = static_cast<double>(errors);
  const std::size_t messages = queries.size() + terminals.size();
  if (messages > 0) {
    constexpr int kPasses = 3;
    double bytes_out = 0.0;
    const std::int64_t t0 = now_ns();
    for (int p = 0; p < kPasses; ++p) {
      for (const auto& q : queries) bytes_out += net::encode(q).payload.size();
      for (const auto& t : terminals)
        bytes_out += net::encode(t).payload.size();
    }
    const std::int64_t t1 = now_ns();
    double decoded = 0.0;
    for (int p = 0; p < kPasses; ++p) {
      net::QueryMsg q;
      net::TerminalMsg t;
      for (const auto& f : capture.queries) decoded += decode(f, &q);
      for (const auto& f : capture.terminals) decoded += decode(f, &t);
    }
    const std::int64_t t2 = now_ns();
    const double n = static_cast<double>(messages * kPasses);
    m["net.encode_ns"] = static_cast<double>(t1 - t0) / n;
    m["net.decode_ns"] = static_cast<double>(t2 - t1) / n;
    keep(bytes_out + decoded);
  }

  // Routing: the frontend's own route() over the captured prompts (the
  // run is drained, so this is the hash path), and the share of queries
  // the run actually sent to their ring owner.
  if (!queries.empty()) {
    std::size_t owner = 0;
    double routed = 0.0;
    const std::int64_t t0 = now_ns();
    for (const auto& q : queries)
      routed += static_cast<double>(frontend.route(q.query.prompt_id));
    const std::int64_t t1 = now_ns();
    for (const auto& q : queries)
      owner += q.shard == frontend.hash_shard(q.query.prompt_id);
    m["cluster.route_ns"] = static_cast<double>(t1 - t0) /
                            static_cast<double>(queries.size());
    m["cluster.hash_owner_ratio"] = static_cast<double>(owner) /
                                    static_cast<double>(queries.size());
    keep(routed);
  }
}

Iteration serve(const core::CascadeEnvironment& env, std::uint64_t seed,
                bool traced) {
  auto& rec = Recorder::instance();
  rec.reset();
  rec.enable(traced);
  const double slo = env.default_slo();
  const auto tr = trace::RateTrace::constant(kQps, kIterationTraceSeconds);

  util::TraceClock clock(kTimeScale);
  std::vector<std::unique_ptr<runtime::ThreadedBackend>> backends;
  std::vector<std::unique_ptr<TimedBackend>> timed;
  std::vector<std::unique_ptr<engine::CascadeEngine>> engines;
  for (int s = 0; s < kShards; ++s) {
    backends.push_back(
        std::make_unique<runtime::ThreadedBackend>(clock, kWorkersPerShard));
    engine::ExecutionBackend* backend = backends.back().get();
    if (traced) {
      timed.push_back(std::make_unique<TimedBackend>(
          *backends.back(), kTimeScale, /*tick_applies_plan=*/false));
      backend = timed.back().get();
    }
    engines.push_back(std::make_unique<engine::CascadeEngine>(
        *backend, env.workload(), env.repository(), env.cascade(),
        env.discs(), env.scorer(), shard_config(slo, s)));
  }

  cluster::ShardFrontend frontend(env.workload(), env.scorer(),
                                 frontend_config(slo, seed));

  util::Rng rng(seed);
  const auto arrivals = trace::generate_arrivals(tr, rng);
  TerminalLedger ledger(arrivals.size());
  std::vector<std::unique_ptr<Direction>> dirs;
  FrameCapture capture;
  std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
  for (int s = 0; s < kShards; ++s) {
    auto link = net::make_tcp_link();
    dirs.push_back(std::make_unique<Direction>());  // frontend -> shard
    Direction& down = *dirs.back();
    dirs.push_back(std::make_unique<Direction>());  // shard -> frontend
    Direction& up = *dirs.back();
    auto front = std::make_unique<TimedEndpoint>(
        std::move(link.first), TimedEndpoint::Side::kFrontend, down, up,
        &capture, &ledger, [&clock] { return clock.now(); });
    std::unique_ptr<net::Endpoint> back = std::move(link.second);
    if (traced)
      back = std::make_unique<TimedEndpoint>(
          std::move(back), TimedEndpoint::Side::kShard, up, down, &capture,
          nullptr, nullptr);
    nodes.push_back(std::make_unique<cluster::ShardNode>(
        static_cast<std::uint32_t>(s), *engines[static_cast<std::size_t>(s)],
        std::move(back)));
    frontend.attach_shard(std::move(front));
  }

  std::unique_ptr<control::Allocator> allocator =
      std::make_unique<control::ExhaustiveAllocator>();
  if (traced) allocator = std::make_unique<TimedAllocator>(std::move(allocator));
  cluster::ClusterController cc(frontend, *engines.front(), kWorkersPerShard,
                                slo, std::move(allocator),
                                env.offline_profiles(), controller_config());
  std::atomic<std::uint64_t> confidence_calls{0};
  for (auto& eng : engines)
    eng->set_confidence_observer([&cc, &confidence_calls](std::size_t b,
                                                          double c) {
      confidence_calls.fetch_add(1, std::memory_order_relaxed);
      cc.observe_confidence(b, c);
    });
  frontend.sink().reserve(arrivals.size());

  Iteration it;
  std::vector<double> gen_late_us;
  gen_late_us.reserve(arrivals.size());
  reset_peak_rss();
  const double w0 = wall_seconds();
  const double c0 = cpu_seconds();
  frontend.start_transports();
  for (auto& node : nodes) node->start();
  for (auto& backend : backends) backend->start();
  run_control_tick([&cc] { cc.start(); }, /*applies_plan=*/false);

  // The open-loop generator: each query goes out at its scheduled time,
  // however far behind the system is.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double due = arrivals[i];
    clock.sleep_until(due);
    const double now = clock.now();
    gen_late_us.push_back((now - due) / kTimeScale * 1e6);
    engine::Query q;
    {
      Span span(SpanKind::kClusterSubmit, i + 1);
      q = frontend.submit_next(now);
    }
    ledger.sent(q.seq, due);
  }

  // Drain exactly as cluster::run_cluster_threaded does.
  clock.sleep_until(tr.duration() + slo + 5.0);
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto wait_drained = [&] {
    while (!frontend.drained() &&
           std::chrono::steady_clock::now() < wall_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  wait_drained();
  cc.stop();
  for (auto& backend : backends) backend->stop();
  wait_drained();
  for (auto& node : nodes) node->stop();
  frontend.stop_transports();

  const auto& sink = frontend.sink();
  {
    Span span(SpanKind::kSinkFid);
    it.fid = sink.completed() >= 2 ? sink.overall_fid() : 0.0;
  }
  {
    Span span(SpanKind::kSinkTimeline);
    keep(static_cast<double>(sink.timeline(10.0).size()));
  }
  {
    Span span(SpanKind::kSinkPercentile);
    keep(sink.latency_percentile(50.0) + sink.latency_percentile(99.0));
  }
  it.wall_seconds = wall_seconds() - w0;
  it.cpu_seconds = cpu_seconds() - c0;
  it.peak_rss_mb = peak_rss_mb();
  rec.enable(false);

  set_terminals(it, ledger.summarize());
  it.trace_seconds = tr.duration();
  it.sink_completed = sink.completed();
  it.sink_dropped = sink.dropped();
  it.sink_violation_ratio = sink.violation_ratio();
  if (traced) {
    MetricMap& m = it.layers;
    std::vector<const engine::CascadeEngine*> shard_engines;
    for (const auto& e : engines) shard_engines.push_back(e.get());
    add_span_layers(m);
    add_engine_layers(m, shard_engines, sink);
    add_cache_layers(m, shard_engines, env, seed, arrivals.size());
    add_net_layers(m, dirs, capture, frontend,
                   static_cast<double>(it.terminals.sent));
    m["net.decode_errors"] += static_cast<double>(it.terminals.decode_errors);
    double most = 0.0, total = 0.0;
    for (const auto* e : shard_engines) {
      most = std::max(most, static_cast<double>(e->submitted()));
      total += static_cast<double>(e->submitted());
    }
    m["cluster.shard_imbalance"] =
        total > 0.0 ? most / (total / static_cast<double>(kShards)) : 0.0;
    m["gen.late_us_p99"] = supported_percentile(gen_late_us, 99.0).value;
    m["cluster.latency_samples"] = static_cast<double>(it.latency.samples);
    m["cluster.latency_p50_s"] = it.latency.p50;
    m["cluster.latency_p99_s"] = it.latency.p99;
    m["disc.confidence_calls"] =
        static_cast<double>(confidence_calls.load());
    std::printf("disc.confidence_calls: observer %llu, derived from records "
                "%.0f\n",
                static_cast<unsigned long long>(confidence_calls.load()),
                derived_confidence_calls(sink));
    m["disc.confidence_ns"] = replay_confidence_ns(env, sink);
  }
  return it;
}

}  // namespace

Report run_cluster_workload(const Options& opt, Setup& setup) {
  const auto seeds = realization_seeds(
      opt.seed, realization_count(opt.seconds, kSecondsPerRealization));
  Report report;
  // With tracing on, the first few realizations are also served untraced,
  // each just before its traced twin: the tracing-overhead pairs. The
  // environment is rebuilt before each realization (set-up time is
  // sampled across the run).
  std::vector<Iteration> its, untraced;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    setup.rebuild();
    if (opt.trace && k < kOverheadPairs)
      untraced.push_back(serve(setup.env(), seeds[k], false));
    const Calibration before = calibrate();
    its.push_back(serve(setup.env(), seeds[k], opt.trace));
    const Calibration after = calibrate();
    its.back().calibration = {(before.wall + after.wall) / 2.0,
                              (before.cpu + after.cpu) / 2.0};
  }
  const std::string kind = opt.trace ? "traced" : "untraced";
  for (std::size_t i = 0; i < its.size(); ++i)
    check_iteration(its[i], report, kind + "#" + std::to_string(i));
  for (std::size_t i = 0; i < untraced.size(); ++i)
    check_iteration(untraced[i], report, "untraced#" + std::to_string(i));
  check_against_library(setup.env(), seeds[0], report);
  // wall_qps is pinned by the trace clock here, so only the CPU cost is
  // scaled to the reference host speed: the threads' CPU time per query
  // grows with the host's load much as the calibration job's does.
  report.metrics =
      opt.trace ? per_layer(its, untraced, setup, /*cpu_cost=*/true)
                : end_to_end(its, setup, /*pooled_rates=*/false,
                             /*scale_wall=*/false, /*scale_cpu=*/true);
  return report;
}

}  // namespace perfbench
