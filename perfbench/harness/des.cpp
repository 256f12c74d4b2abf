// The two discrete-event workloads, assembled from public classes:
// sim::Simulation + serving::SimulationBackend (wrapped by TimedBackend
// when traced) + engine::CascadeEngine + control::Controller.
//
//   paper_azure_milp  the paper's Fig. 5 run: Azure-like 4 -> 32 qps trace
//                     over 360 s, DiffServe with the MILP allocator.
//   des_steady        a constant 100 qps flood over 4000 s with the
//                     exhaustive allocator: engine, simulator, sink, and
//                     quality scoring do nearly all the work.
//
// A run serves several seeded arrival realizations. A DES is
// deterministic, so serving a realization again — traced or not — must
// reach the same FID, goodput, and counts bit for bit.
#include <cstdio>
#include <memory>
#include <vector>

#include "control/controller.hpp"
#include "control/exhaustive_allocator.hpp"
#include "control/milp_allocator.hpp"
#include "core/experiment.hpp"
#include "ledger.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct DesSpec {
  trace::RateTrace trace;
  bool milp = false;
  /// Run seconds per realization (realization_count()).
  double seconds_per_realization = 0.0;
};

DesSpec spec_for(const std::string& name) {
  if (name == "paper_azure_milp")
    return {trace::RateTrace::azure_like(4.0, 32.0, 360.0, 3), true, 3.0};
  return {trace::RateTrace::constant(100.0, 4000.0), false, 3.0};
}

/// Untraced realizations time this many calibration slices of
/// kSliceRounds rounds, evenly over the trace, so the host speed they
/// are scaled by is the speed while they served (it changes within
/// seconds), not at one instant before.
constexpr int kSpeedSlices = 40;
constexpr int kSliceRounds = 4;

std::unique_ptr<control::Allocator> make_allocator(bool milp, bool traced) {
  std::unique_ptr<control::Allocator> a;
  if (milp)
    a = std::make_unique<control::MilpAllocator>();
  else
    a = std::make_unique<control::ExhaustiveAllocator>();
  if (traced) a = std::make_unique<TimedAllocator>(std::move(a));
  return a;
}

/// One pass over the trace. Mirrors core::run_experiment step for step
/// (same configs, same event order), so with the MILP allocator it must
/// reproduce Approach::kDiffServe exactly.
Iteration serve(const core::CascadeEnvironment& env,
                const trace::RateTrace& tr, bool milp, std::uint64_t seed,
                bool traced) {
  auto& rec = Recorder::instance();
  rec.reset();
  rec.enable(traced);

  sim::Simulation sim;
  serving::SimulationBackend sim_backend(sim);
  TimedBackend timed(sim_backend, 0.0, /*tick_applies_plan=*/true);
  engine::ExecutionBackend& backend =
      traced ? static_cast<engine::ExecutionBackend&>(timed) : sim_backend;

  engine::EngineConfig cfg;
  cfg.total_workers = 16;
  cfg.slo_seconds = env.default_slo();
  engine::CascadeEngine eng(backend, env.workload(), env.repository(),
                            env.cascade(), env.discs(), env.scorer(), cfg);
  control::ControllerConfig ccfg;
  ccfg.over_provision = 1.05;
  control::Controller controller(eng, make_allocator(milp, traced),
                                 env.offline_profiles(), ccfg);

  util::Rng rng(seed);
  const auto arrivals = trace::generate_arrivals(tr, rng);
  TerminalLedger ledger(arrivals.size());
  eng.set_terminal_observer(
      [&ledger](const engine::Query& q, int, double t, bool dropped) {
        Span span(SpanKind::kTerminalObserver, q.seq + 1);
        ledger.terminal(q, t, dropped);
      });
  eng.sink_reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double t = arrivals[i];
    sim.schedule_at(t, [&eng, &ledger, i, t] {
      engine::Query q;
      {
        Span span(SpanKind::kEngineSubmit, i + 1);
        q = eng.submit_next();
      }
      ledger.sent(q.seq, t);
    });
  }

  // The slices are simulator events that touch nothing the engine sees
  // (serving with and without them must match bit for bit: the traced
  // twins and core::run_experiment have none). Their own time is taken
  // out of the realization's.
  std::vector<Calibration> slices;
  double slice_wall = 0.0, slice_cpu = 0.0;
  const auto take_slice = [&slices, &slice_wall, &slice_cpu] {
    const double w = wall_seconds();
    const double c = cpu_seconds();
    slices.push_back(calibrate(kSliceRounds));
    slice_wall += wall_seconds() - w;
    slice_cpu += cpu_seconds() - c;
  };
  if (!traced)
    for (int k = 0; k < kSpeedSlices; ++k)
      sim.schedule_at(tr.duration() * (k + 0.5) / kSpeedSlices, take_slice);

  Iteration it;
  reset_peak_rss();
  const double w0 = wall_seconds();
  const double c0 = cpu_seconds();
  {
    Span run(SpanKind::kSimRun);
    run_control_tick([&controller] { controller.start(); },
                     /*applies_plan=*/true);
    sim.run_until(tr.duration() + cfg.slo_seconds + 20.0);
    controller.stop();
    sim.run_all();
  }
  if (!traced) take_slice();  // before the sink's reports
  const auto& sink = eng.sink();
  {
    Span span(SpanKind::kSinkFid);
    it.fid = sink.overall_fid();
  }
  {
    Span span(SpanKind::kSinkTimeline);
    keep(static_cast<double>(sink.timeline(10.0).size()));
  }
  {
    Span span(SpanKind::kSinkPercentile);
    keep(sink.latency_percentile(50.0) + sink.latency_percentile(99.0));
  }
  it.wall_seconds = wall_seconds() - w0 - slice_wall;
  it.cpu_seconds = cpu_seconds() - c0 - slice_cpu;
  it.peak_rss_mb = peak_rss_mb();
  for (const Calibration& c : slices) {
    it.calibration.wall += c.wall / static_cast<double>(slices.size());
    it.calibration.cpu += c.cpu / static_cast<double>(slices.size());
  }
  rec.enable(false);

  set_terminals(it, ledger.summarize());
  it.trace_seconds = tr.duration();
  it.sink_completed = sink.completed();
  it.sink_dropped = sink.dropped();
  it.sink_violation_ratio = sink.violation_ratio();
  if (traced) {
    MetricMap& m = it.layers;
    add_span_layers(m);
    add_engine_layers(m, {&eng}, sink);
    // Simulator work: run_until/run_all minus the callbacks it fired,
    // plus the queue operations those callbacks made through the backend.
    const KindTotals run = rec.totals(SpanKind::kSimRun);
    const KindTotals calls = rec.totals(SpanKind::kBackendCall);
    const auto events = static_cast<double>(sim.executed());
    m["sim.events"] = events;
    m["sim.self_ns_per_event"] =
        events > 0.0
            ? static_cast<double>(run.self_ns + calls.total_ns) / events
            : 0.0;
    // The controller owns the engine's confidence observer, so the count
    // comes from the records (see derived_confidence_calls).
    m["disc.confidence_calls"] = derived_confidence_calls(sink);
    m["disc.confidence_ns"] = replay_confidence_ns(env, sink);
  }
  return it;
}

bool same_decisions(const Iteration& a, const Iteration& b) {
  return a.fid == b.fid && a.terminals.on_time == b.terminals.on_time &&
         a.terminals.completed == b.terminals.completed &&
         a.terminals.dropped == b.terminals.dropped &&
         a.sink_violation_ratio == b.sink_violation_ratio;
}

/// The first minute of `tr`.
trace::RateTrace prefix(const trace::RateTrace& tr, std::size_t seconds) {
  const auto& s = tr.samples();
  return trace::RateTrace(std::vector<double>(
      s.begin(), s.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(seconds, s.size()))));
}

}  // namespace

Report run_des_workload(const Options& opt, Setup& setup) {
  const DesSpec spec = spec_for(opt.workload);
  const auto seeds = realization_seeds(
      opt.seed, realization_count(opt.seconds, spec.seconds_per_realization));
  Report report;

  // The seed must reach the generator: the next run seed serves a
  // different arrival stream, so the quality figures must differ.
  const auto probe_trace = prefix(spec.trace, 60);
  const std::uint64_t other = realization_seeds(opt.seed + 1, 1).front();
  const Iteration probe_a =
      serve(setup.env(), probe_trace, spec.milp, seeds[0], false);
  const Iteration probe_b =
      serve(setup.env(), probe_trace, spec.milp, other, false);
  std::printf("seed probe (first 60 s): fid %.17g at arrival seed %llu, "
              "%.17g at %llu\n",
              probe_a.fid, static_cast<unsigned long long>(seeds[0]),
              probe_b.fid, static_cast<unsigned long long>(other));
  if (probe_a.fid == probe_b.fid)
    report.fail("seed probe: two seeds gave the same FID");

  // `untraced` holds realizations served again without tracing: with
  // tracing on, the first few, each just before its traced twin (the
  // tracing-overhead pairs); otherwise a repeat of realization 0, except
  // on the paper trace, whose repeat is core::run_experiment below. Each
  // must serve exactly like its measured twin. The environment is rebuilt
  // before each realization (set-up time is sampled across the run).
  std::vector<Iteration> its, untraced;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    setup.rebuild();
    const core::CascadeEnvironment& env = setup.env();
    if (opt.trace && k < kOverheadPairs)
      untraced.push_back(serve(env, spec.trace, spec.milp, seeds[k], false));
    its.push_back(serve(env, spec.trace, spec.milp, seeds[k], opt.trace));
  }
  if (!opt.trace && !spec.milp)
    untraced.push_back(
        serve(setup.env(), spec.trace, spec.milp, seeds[0], false));

  const std::string kind = opt.trace ? "traced" : "untraced";
  for (std::size_t i = 0; i < its.size(); ++i)
    check_iteration(its[i], report, kind + "#" + std::to_string(i));
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    check_iteration(untraced[i], report,
                    (opt.trace ? "untraced#" : "repeat#") + std::to_string(i));
    if (!same_decisions(its[i], untraced[i]))
      report.fail(opt.trace ? "traced run served differently from untraced"
                            : "repeated run served differently");
  }

  if (spec.milp) {
    // The assembly above must be exactly what the library's experiment
    // runner runs for the paper's approach: realization 0 served again,
    // so also the repeat that must match bit for bit (equal violation
    // ratio, completed and dropped imply equal goodput).
    core::RunConfig rc;
    rc.approach = core::Approach::kDiffServe;
    rc.total_workers = 16;
    rc.trace = spec.trace;
    rc.arrival_seed = seeds[0];
    const auto r = core::run_experiment(setup.env(), rc);
    std::printf("run_experiment(DiffServe): fid %.17g violation %.17g "
                "completed %zu dropped %zu\n",
                r.overall_fid, r.violation_ratio, r.completed, r.dropped);
    const Iteration& first = its.front();
    if (r.overall_fid != first.fid ||
        r.violation_ratio != first.sink_violation_ratio ||
        r.completed != first.sink_completed ||
        r.dropped != first.sink_dropped)
      report.fail("benchmark assembly differs from core::run_experiment");
  }

  // Paper-trace realizations differ 3x in MILP work, so their rates are
  // pooled; des_steady's are equal work.
  report.metrics =
      opt.trace ? per_layer(its, untraced, setup, /*cpu_cost=*/false)
                : end_to_end(its, setup, /*pooled_rates=*/spec.milp,
                             /*scale_wall=*/true, /*scale_cpu=*/true);
  return report;
}

}  // namespace perfbench
