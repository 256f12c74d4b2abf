// Discrete-event execution backend.
//
// This module is the DES side of the engine/backend split: a
// SimulationBackend that maps the ExecutionBackend interface onto the
// event queue of sim::Simulation, plus the ServingSystem facade that
// assembles a CascadeEngine over it and schedules trace arrivals. All
// serving *policy* (routing, deferral, batching, reconfiguration,
// metrics) lives in src/engine/; this file only supplies the substrate.
#pragma once

#include <functional>
#include <vector>

#include "discriminator/discriminator.hpp"
#include "engine/engine.hpp"
#include "models/model_repository.hpp"
#include "quality/fid.hpp"
#include "quality/workload.hpp"
#include "sim/simulation.hpp"

namespace diffserve::serving {

// Shared policy types, re-exported for the DES-facing API.
using engine::AllocationPlan;
using engine::Query;
using engine::QueryClass;
using engine::RoutingMode;
using SystemConfig = engine::EngineConfig;

/// ExecutionBackend over the discrete-event simulator. Single-threaded:
/// the guard is an empty lock, defer/execute are event-queue entries.
class SimulationBackend final : public engine::ExecutionBackend {
 public:
  explicit SimulationBackend(sim::Simulation& sim) : sim_(sim) {}

  double now() const override { return sim_.now(); }
  engine::TimerHandle defer(double delay_seconds,
                            std::function<void()> fn) override {
    const auto h = sim_.schedule_in(std::max(delay_seconds, 0.0),
                                    std::move(fn));
    return {h.id};
  }
  bool cancel(engine::TimerHandle h) override { return sim_.cancel({h.id}); }
  void execute(int /*worker_id*/, double exec_seconds,
               std::function<void()> done) override {
    sim_.schedule_in(exec_seconds, std::move(done));
  }
  std::unique_lock<std::mutex> guard() override { return {}; }

 private:
  sim::Simulation& sim_;
};

/// End-to-end DES serving assembly: one CascadeEngine on a
/// SimulationBackend. The controller (src/control) reconfigures it through
/// the engine; baselines reuse the same machinery with different plans and
/// routing modes.
class ServingSystem {
 public:
  /// Per-boundary discriminators (discs[b] gates stage b -> b+1).
  ServingSystem(sim::Simulation& sim, const quality::Workload& workload,
                const models::ModelRepository& repo,
                const models::CascadeSpec& cascade,
                std::vector<const discriminator::Discriminator*> discs,
                const quality::FidScorer& scorer, SystemConfig cfg);

  engine::CascadeEngine& engine() { return engine_; }
  const engine::CascadeEngine& engine() const { return engine_; }

  /// Reconfigure the cluster; evicted queries are re-routed automatically.
  void apply(const AllocationPlan& plan) { engine_.apply(plan); }
  AllocationPlan plan() const { return engine_.plan(); }

  /// Schedule query submissions at the given arrival times. Prompts cycle
  /// through the workload deterministically.
  void inject_arrivals(const std::vector<double>& times);

  engine::MetricsSink& sink() { return engine_.sink(); }
  const engine::MetricsSink& sink() const { return engine_.sink(); }
  const SystemConfig& config() const { return engine_.config(); }

  double stage_exec_latency(std::size_t s, int batch) const {
    return engine_.stage_exec_latency(s, batch);
  }
  std::size_t stage_count() const { return engine_.stage_count(); }
  const models::CascadeSpec& cascade() const { return engine_.cascade(); }
  std::size_t worker_count() const { return engine_.worker_count(); }

 private:
  sim::Simulation& sim_;
  SimulationBackend backend_;
  engine::CascadeEngine engine_;
};

}  // namespace diffserve::serving
