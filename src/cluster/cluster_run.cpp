#include "cluster/cluster_run.hpp"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster_controller.hpp"
#include "cluster/shard_node.hpp"
#include "engine/engine.hpp"
#include "net/transport.hpp"
#include "runtime/threaded_runtime.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/trace_clock.hpp"

namespace diffserve::cluster {

namespace {

engine::EngineConfig shard_engine_config(const ClusterRunConfig& cfg,
                                         double slo, double launch_slack,
                                         std::size_t shard) {
  engine::EngineConfig ecfg;
  ecfg.total_workers = cfg.workers_per_shard;
  ecfg.slo_seconds = slo;
  ecfg.model_load_delay = cfg.model_load_delay;
  ecfg.launch_slack_seconds = launch_slack;
  ecfg.seed = 1 + static_cast<std::uint64_t>(shard);
  // Shard sinks run in fast mode: the frontend's sink holds the cluster's
  // terminal records (recomputed bit-identically from the terminal
  // frames), so per-shard record logs would only duplicate memory.
  // Aggregate counters stay exact.
  ecfg.record_terminal_events = false;
  ecfg.cache = cfg.cache;
  ecfg.slo_classes = cfg.slo_classes;
  return ecfg;
}

ClusterControllerConfig cluster_controller_config(
    const ClusterRunConfig& cfg, const trace::RateTrace& trace) {
  ClusterControllerConfig ccfg;
  ccfg.control.period_seconds = cfg.control_period;
  ccfg.control.over_provision = cfg.over_provision;
  ccfg.control.max_deferral_fraction = cfg.max_deferral_fraction;
  ccfg.control.initial_demand_guess = cfg.initial_demand_guess > 0.0
                                          ? cfg.initial_demand_guess
                                          : trace.qps_at(0.0);
  ccfg.gather_delay_seconds = cfg.gather_delay_seconds;
  return ccfg;
}

FrontendConfig frontend_config(const ClusterRunConfig& cfg, double slo) {
  FrontendConfig fcfg;
  fcfg.slo_seconds = slo;
  fcfg.prompt_mix = cfg.prompt_mix;
  fcfg.record_terminal_events = cfg.record_terminal_events;
  fcfg.slo_classes = cfg.slo_classes;
  return fcfg;
}

core::RunReport report(
    const ShardFrontend& frontend,
    const std::vector<std::unique_ptr<engine::CascadeEngine>>& engines,
    const ClusterController& cc, const trace::RateTrace& trace) {
  std::vector<const engine::CascadeEngine*> shards;
  for (const auto& eng : engines) shards.push_back(eng.get());
  return core::make_run_report(frontend.sink(), frontend.submitted(), shards,
                               trace.duration(), cc.history());
}

}  // namespace

core::RunReport run_cluster_des(const core::CascadeEnvironment& env,
                                control::Allocator& allocator,
                                const trace::RateTrace& trace,
                                const ClusterRunConfig& cfg) {
  DS_REQUIRE(cfg.shards >= 1, "need at least one shard");
  DS_REQUIRE(trace.samples().size() >= 2, "run needs a trace");
  const double slo =
      cfg.slo_seconds > 0.0 ? cfg.slo_seconds : env.default_slo();

  sim::Simulation sim;
  serving::SimulationBackend backend(sim);

  std::vector<std::unique_ptr<engine::CascadeEngine>> engines;
  engines.reserve(static_cast<std::size_t>(cfg.shards));
  for (int s = 0; s < cfg.shards; ++s)
    engines.push_back(std::make_unique<engine::CascadeEngine>(
        backend, env.workload(), env.repository(), env.cascade(), env.discs(),
        env.scorer(),
        shard_engine_config(cfg, slo, /*launch_slack=*/0.0,
                            static_cast<std::size_t>(s))));

  ShardFrontend frontend(env.workload(), env.scorer(),
                         frontend_config(cfg, slo));
  net::DeferFn defer = [&sim](double delay, std::function<void()> fn) {
    sim.schedule_in(delay, std::move(fn));
  };
  std::vector<std::unique_ptr<ShardNode>> nodes;
  nodes.reserve(engines.size());
  for (std::size_t s = 0; s < engines.size(); ++s) {
    auto link = net::make_loopback_link(cfg.hop_latency_seconds, defer);
    nodes.push_back(std::make_unique<ShardNode>(
        static_cast<std::uint32_t>(s), *engines[s], std::move(link.second)));
    frontend.attach_shard(std::move(link.first));
  }

  ClusterController cc(frontend, *engines.front(), cfg.workers_per_shard, slo,
                       std::make_unique<control::BorrowedAllocator>(allocator),
                       env.offline_profiles(),
                       cluster_controller_config(cfg, trace));
  for (auto& eng : engines)
    eng->set_confidence_observer([&cc](std::size_t b, double c) {
      cc.observe_confidence(b, c);
    });

  util::Rng arrival_rng(cfg.arrival_seed);
  const auto arrivals =
      trace::generate_arrivals(trace, arrival_rng, cfg.arrivals);
  if (cfg.record_terminal_events) frontend.sink().reserve(arrivals.size());
  for (const double t : arrivals)
    sim.schedule_at(t, [&frontend, &sim] { frontend.submit_next(sim.now()); });

  cc.start();
  sim.run_until(trace.duration() + slo + cfg.drain_seconds);
  cc.stop();
  sim.run_all();  // drain stragglers (batches launched at the horizon)

  return report(frontend, engines, cc, trace);
}

core::RunReport run_cluster_threaded(const core::CascadeEnvironment& env,
                                     control::Allocator& allocator,
                                     const trace::RateTrace& trace,
                                     const ClusterRunConfig& cfg) {
  DS_REQUIRE(cfg.shards >= 1, "need at least one shard");
  DS_REQUIRE(trace.samples().size() >= 2, "run needs a trace");
  const double slo =
      cfg.slo_seconds > 0.0 ? cfg.slo_seconds : env.default_slo();
  const double launch_slack =
      runtime::kLaunchSlackWallSeconds * cfg.time_scale;

  util::TraceClock clock(cfg.time_scale);
  std::vector<std::unique_ptr<runtime::ThreadedBackend>> backends;
  std::vector<std::unique_ptr<engine::CascadeEngine>> engines;
  backends.reserve(static_cast<std::size_t>(cfg.shards));
  engines.reserve(static_cast<std::size_t>(cfg.shards));
  for (int s = 0; s < cfg.shards; ++s) {
    backends.push_back(std::make_unique<runtime::ThreadedBackend>(
        clock, cfg.workers_per_shard));
    engines.push_back(std::make_unique<engine::CascadeEngine>(
        *backends.back(), env.workload(), env.repository(), env.cascade(),
        env.discs(), env.scorer(),
        shard_engine_config(cfg, slo, launch_slack,
                            static_cast<std::size_t>(s))));
  }

  ShardFrontend frontend(env.workload(), env.scorer(),
                         frontend_config(cfg, slo));
  std::vector<std::unique_ptr<ShardNode>> nodes;
  nodes.reserve(engines.size());
  for (std::size_t s = 0; s < engines.size(); ++s) {
    auto link = net::make_socketpair_link();
    nodes.push_back(std::make_unique<ShardNode>(
        static_cast<std::uint32_t>(s), *engines[s], std::move(link.second)));
    frontend.attach_shard(std::move(link.first));
  }

  ClusterController cc(frontend, *engines.front(), cfg.workers_per_shard, slo,
                       std::make_unique<control::BorrowedAllocator>(allocator),
                       env.offline_profiles(),
                       cluster_controller_config(cfg, trace));
  for (auto& eng : engines)
    eng->set_confidence_observer([&cc](std::size_t b, double c) {
      cc.observe_confidence(b, c);
    });

  util::Rng arrival_rng(cfg.arrival_seed);
  const auto arrivals =
      trace::generate_arrivals(trace, arrival_rng, cfg.arrivals);
  if (cfg.record_terminal_events) frontend.sink().reserve(arrivals.size());

  // Bring the wire up before any engine thread can emit a terminal.
  frontend.start_transports();
  for (auto& node : nodes) node->start();
  for (auto& backend : backends) backend->start();
  cc.start();

  // The client: replay arrivals in compressed wall time.
  for (const double t : arrivals) {
    clock.sleep_until(t);
    frontend.submit_next(clock.now());
  }

  // Drain: in-flight queries get until trace end + SLO + margin, then
  // wait for every terminal frame to cross the wire.
  clock.sleep_until(trace.duration() + slo + 5.0);
  const auto wall_deadline =
      // ds-lint: allow(wall-clock): drain watchdog bounds shutdown wall
      // time only; every serving decision already happened on trace time.
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!frontend.drained() &&
         // ds-lint: allow(wall-clock): same drain watchdog
         std::chrono::steady_clock::now() < wall_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  cc.stop();
  // Quiesce engines first (their terminal observers still send over live
  // endpoints), then give the last frames a moment to cross, then tear
  // the transports down.
  for (auto& backend : backends) backend->stop();
  while (!frontend.drained() &&
         // ds-lint: allow(wall-clock): same drain watchdog
         std::chrono::steady_clock::now() < wall_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (auto& node : nodes) node->stop();
  frontend.stop_transports();

  return report(frontend, engines, cc, trace);
}

}  // namespace diffserve::cluster
