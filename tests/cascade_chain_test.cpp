// Randomized engine-invariant suite for N-stage cascade chains.
//
// On random traces, random plan sequences, and chain depths 1-3, the
// engine must uphold, on both execution backends:
//   * query conservation — every admitted query reaches exactly one
//     terminal outcome (served, dropped, or rejected at admission); no
//     query is lost or double-counted;
//   * non-negative, bounded queue state — worker introspection stays sane
//     at every sampled instant and every queue drains by quiescence;
//   * deferral-history consistency — no query is served by a stage earlier
//     than its deferral history implies (served stage >= deferral count).
// Plus deterministic N=3 reconfiguration-under-load tests: shrinking a
// middle stage with a non-empty queue must re-route or complete every
// queued query (mirroring the two-stage eviction tests in
// tests/serving_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cluster/shard_frontend.hpp"
#include "cluster/shard_node.hpp"
#include "discriminator/discriminator.hpp"
#include "engine/engine.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"
#include "models/model_repository.hpp"
#include "quality/fid.hpp"
#include "quality/workload.hpp"
#include "runtime/threaded_runtime.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/prompt_mix.hpp"
#include "util/rng.hpp"
#include "util/trace_clock.hpp"

namespace diffserve::engine {
namespace {

constexpr int kIterationsPerBackend = 100;

/// Cheap three-model chain with fast latencies plus shallower prefixes, so
/// a random iteration can pick depth 1, 2, or 3.
class ChainFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new quality::Workload(120);
    scorer_ = new quality::FidScorer(*workload_);
    repo_ = new models::ModelRepository();
    repo_->register_model({"tiny", models::ModelKind::kDiffusion,
                           models::LatencyProfile::affine(0.05), 1, 512});
    repo_->register_model({"base", models::ModelKind::kDiffusion,
                           models::LatencyProfile::affine(0.2), 2, 512});
    repo_->register_model({"large", models::ModelKind::kDiffusion,
                           models::LatencyProfile::affine(0.8), 5, 512});
    repo_->register_model({"disc", models::ModelKind::kDiscriminator,
                           models::LatencyProfile::affine(0.005, 0.1), 0,
                           512});
    for (std::size_t depth = 1; depth <= 3; ++depth) {
      models::CascadeSpec spec;
      spec.name = "chain" + std::to_string(depth);
      const std::vector<std::string> all = {"tiny", "base", "large"};
      spec.chain.assign(all.begin(), all.begin() + depth);
      if (depth > 1) spec.discriminators = {"disc"};
      spec.slo_seconds = 10.0;
      repo_->register_cascade(std::move(spec));
    }
    discriminator::DiscriminatorConfig dc;
    dc.train_queries = 120;
    dc.epochs = 2;
    disc_ = new discriminator::Discriminator(
        discriminator::train_discriminator(*workload_, 1, 5, dc));
  }
  static void TearDownTestSuite() {
    delete disc_;
    delete repo_;
    delete scorer_;
    delete workload_;
  }

  static const models::CascadeSpec& chain(std::size_t depth) {
    return repo_->cascade("chain" + std::to_string(depth));
  }
  /// The shared discriminator at every boundary of `spec`.
  static std::vector<const discriminator::Discriminator*> discs(
      const models::CascadeSpec& spec) {
    return std::vector<const discriminator::Discriminator*>(
        spec.boundary_count(), disc_);
  }

  /// A random plan for `depth` stages over `total` workers. May leave
  /// stages (or everything) unstaffed — the engine's spare rule and
  /// routing fallbacks must absorb that.
  static AllocationPlan random_plan(util::Rng& rng, std::size_t depth,
                                    int total) {
    AllocationPlan p = AllocationPlan::for_stages(depth);
    p.mode = depth >= 2 && rng.bernoulli(0.2) ? RoutingMode::kDirect
                                              : RoutingMode::kCascade;
    p.p_heavy = rng.uniform();
    int remaining = total;
    for (std::size_t s = 0; s < depth && remaining > 0; ++s) {
      p.workers[s] = static_cast<int>(rng.uniform_int(0, remaining));
      remaining -= p.workers[s];
    }
    const int batch_choices[] = {1, 2, 4};
    for (std::size_t s = 0; s < depth; ++s)
      p.batches[s] = batch_choices[rng.uniform_int(0, 2)];
    for (std::size_t b = 0; b + 1 < depth; ++b)
      p.thresholds[b] = rng.uniform();
    return p;
  }

  struct Scenario {
    std::size_t depth;
    int total_workers;
    double slo;
    double load_delay;
    std::vector<double> arrivals;                    // ascending
    std::vector<std::pair<double, AllocationPlan>> plans;  // by time
    double horizon;  ///< last event time (arrivals end)
  };

  static Scenario random_scenario(util::Rng& rng, double span) {
    Scenario sc;
    sc.depth = static_cast<std::size_t>(rng.uniform_int(1, 3));
    sc.total_workers = static_cast<int>(rng.uniform_int(2, 5));
    sc.slo = rng.uniform(3.0, 8.0);
    sc.load_delay = rng.bernoulli(0.5) ? 0.0 : 0.3;
    const int n = static_cast<int>(rng.uniform_int(25, 50));
    for (int i = 0; i < n; ++i) sc.arrivals.push_back(rng.uniform(0.0, span));
    std::sort(sc.arrivals.begin(), sc.arrivals.end());
    sc.plans.push_back({0.0, random_plan(rng, sc.depth, sc.total_workers)});
    const int extra = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < extra; ++i)
      sc.plans.push_back({rng.uniform(0.2, span * 0.8),
                          random_plan(rng, sc.depth, sc.total_workers)});
    std::sort(sc.plans.begin(), sc.plans.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    sc.horizon = span;
    return sc;
  }

  /// The invariants, checked after the backend has quiesced. `leftover`
  /// is the number of queries legitimately still queued (always 0 on the
  /// DES after run_all; the threaded backend may stop with stragglers).
  static void check_invariants(const CascadeEngine& eng,
                               std::size_t submitted, std::size_t seed) {
    const MetricsSink& sink = eng.sink();
    std::size_t leftover = 0;
    for (std::size_t i = 0; i < eng.worker_count(); ++i) {
      const auto info = eng.worker_info(i);
      EXPECT_FALSE(info.busy) << "seed " << seed;
      leftover += info.queue_length;
      EXPECT_GE(info.batch_size, 1) << "seed " << seed;
      EXPECT_LT(info.stage, static_cast<int>(eng.stage_count()))
          << "seed " << seed;
    }
    // Conservation: every admitted query is terminal (or still queued on a
    // backend stopped mid-flight) — nothing lost, nothing double-counted.
    EXPECT_EQ(sink.total() + leftover, submitted) << "seed " << seed;
    std::set<std::uint64_t> seen;
    for (const auto& r : sink.records()) {
      EXPECT_TRUE(seen.insert(r.seq).second)
          << "query " << r.seq << " terminated twice (seed " << seed << ")";
      EXPECT_LT(r.seq, submitted) << "seed " << seed;
      // Deferral history: a query deferred k times can only be served by
      // stage >= k (drops keep whatever stage they reached).
      EXPECT_GE(static_cast<int>(r.stage), r.deferrals)
          << "query " << r.seq << " served too early (seed " << seed << ")";
      EXPECT_LT(r.stage, eng.stage_count()) << "seed " << seed;
      if (!r.dropped) {
        EXPECT_GT(r.tier, 0) << "seed " << seed;
        EXPECT_GE(r.latency, 0.0) << "seed " << seed;
      }
    }
    EXPECT_EQ(seen.size(), sink.total()) << "seed " << seed;
  }

  static quality::Workload* workload_;
  static quality::FidScorer* scorer_;
  static models::ModelRepository* repo_;
  static discriminator::Discriminator* disc_;
};

quality::Workload* ChainFixture::workload_ = nullptr;
quality::FidScorer* ChainFixture::scorer_ = nullptr;
models::ModelRepository* ChainFixture::repo_ = nullptr;
discriminator::Discriminator* ChainFixture::disc_ = nullptr;

TEST_F(ChainFixture, RandomizedInvariantsOnDesBackend) {
  for (std::size_t seed = 1; seed <= kIterationsPerBackend; ++seed) {
    util::Rng rng(seed);
    const Scenario sc = random_scenario(rng, /*span=*/8.0);

    sim::Simulation sim;
    serving::SystemConfig cfg;
    cfg.total_workers = sc.total_workers;
    cfg.slo_seconds = sc.slo;
    cfg.model_load_delay = sc.load_delay;
    cfg.seed = seed;
    serving::ServingSystem system(sim, *workload_, *repo_, chain(sc.depth),
                                  discs(chain(sc.depth)), *scorer_, cfg);

    for (const auto& timed_plan : sc.plans)
      sim.schedule_at(timed_plan.first, [&system, p = timed_plan.second] {
        system.apply(p);
      });
    system.inject_arrivals(sc.arrivals);
    // Mid-run queue sanity samples: sizes bounded by what was admitted.
    for (double t : {sc.horizon * 0.3, sc.horizon * 0.7}) {
      sim.schedule_at(t, [&system, &sc] {
        for (std::size_t i = 0; i < system.worker_count(); ++i) {
          const auto info = system.engine().worker_info(i);
          EXPECT_LE(info.queue_length, sc.arrivals.size());
        }
      });
    }

    sim.run_until(sc.horizon + sc.slo + 30.0);
    sim.run_all();

    EXPECT_EQ(system.engine().submitted(), sc.arrivals.size());
    check_invariants(system.engine(), sc.arrivals.size(), seed);
    // The DES drains completely: conservation must be exact, no leftovers.
    EXPECT_EQ(system.sink().total(), sc.arrivals.size()) << "seed " << seed;
  }
}

TEST_F(ChainFixture, RandomizedInvariantsOnThreadedBackend) {
  for (std::size_t seed = 1; seed <= kIterationsPerBackend; ++seed) {
    util::Rng rng(10'000 + seed);
    Scenario sc = random_scenario(rng, /*span=*/1.5);
    sc.slo = rng.uniform(1.5, 3.0);

    util::TraceClock clock(/*time_scale=*/200.0);
    runtime::ThreadedBackend backend(clock, sc.total_workers);
    EngineConfig cfg;
    cfg.total_workers = sc.total_workers;
    cfg.slo_seconds = sc.slo;
    cfg.model_load_delay = sc.load_delay;
    cfg.launch_slack_seconds = 0.004 * 200.0;
    cfg.seed = seed;
    CascadeEngine eng(backend, *workload_, *repo_, chain(sc.depth),
                      discs(chain(sc.depth)), *scorer_, cfg);
    backend.start();

    // Replay the merged (plan, arrival) timeline in compressed wall time.
    std::size_t ai = 0, pi = 0;
    while (ai < sc.arrivals.size() || pi < sc.plans.size()) {
      const bool plan_next =
          pi < sc.plans.size() &&
          (ai >= sc.arrivals.size() ||
           sc.plans[pi].first <= sc.arrivals[ai]);
      if (plan_next) {
        clock.sleep_until(sc.plans[pi].first);
        eng.apply(sc.plans[pi].second);
        ++pi;
      } else {
        clock.sleep_until(sc.arrivals[ai]);
        eng.submit_next();
        ++ai;
      }
    }
    clock.sleep_until(sc.horizon + sc.slo + 2.0);
    backend.stop();

    EXPECT_EQ(eng.submitted(), sc.arrivals.size());
    check_invariants(eng, sc.arrivals.size(), seed);
  }
}

// --- mixed-SLO-class traffic ------------------------------------------------

/// Random class setup: classes on, random interactive/standard admission
/// caps (0 = unbounded), batch always unbounded so zero batch drops is an
/// assertable invariant (admission is the only sanctioned batch drop).
SloClassConfig random_classes(util::Rng& rng) {
  SloClassConfig c;
  c.enabled = true;
  c.queue_capacity = {static_cast<std::size_t>(rng.uniform_int(0, 6)),
                      static_cast<std::size_t>(rng.uniform_int(0, 8)), 0};
  return c;
}

trace::PromptMixConfig random_class_mix(util::Rng& rng) {
  trace::PromptMixConfig mix;
  mix.interactive_share = rng.uniform(0.1, 0.4);
  mix.batch_share = rng.uniform(0.1, 0.4);
  return mix;
}

/// Keep stage 0 staffed so no class is ever dropped for want of *any*
/// capacity — the classed invariants isolate the per-class policies.
AllocationPlan staffed(AllocationPlan p) {
  int total = 0;
  for (int x : p.workers) total += x;
  if (total == 0) p.workers[0] = 1;
  return p;
}

/// Per-class conservation + policy invariants on any quiesced sink:
/// class rows sum to the totals, every record carries a valid class, and
/// admitted batch-class work is never dropped.
void check_class_invariants(const MetricsSink& sink, std::size_t seed) {
  std::size_t completed = 0, dropped = 0;
  std::array<std::size_t, kQueryClassCount> rec_terminals{};
  for (std::size_t c = 0; c < kQueryClassCount; ++c) {
    completed += sink.class_completed(static_cast<QueryClass>(c));
    dropped += sink.class_dropped(static_cast<QueryClass>(c));
  }
  EXPECT_EQ(completed, sink.completed()) << "seed " << seed;
  EXPECT_EQ(dropped, sink.dropped()) << "seed " << seed;
  for (const auto& r : sink.records()) {
    const auto cidx = static_cast<std::size_t>(r.query_class);
    ASSERT_LT(cidx, kQueryClassCount) << "seed " << seed;
    ++rec_terminals[cidx];
  }
  for (std::size_t c = 0; c < kQueryClassCount; ++c)
    EXPECT_EQ(rec_terminals[c],
              sink.class_total(static_cast<QueryClass>(c)))
        << "seed " << seed;
  // Starvation-freedom: batch work is deferred, never shed (its admission
  // queue is unbounded in these scenarios).
  EXPECT_EQ(sink.class_dropped(QueryClass::kBatch), 0u) << "seed " << seed;
}

TEST_F(ChainFixture, RandomizedClassedInvariantsOnDesBackend) {
  for (std::size_t seed = 1; seed <= kIterationsPerBackend; ++seed) {
    util::Rng rng(40'000 + seed);
    const Scenario sc = random_scenario(rng, /*span=*/8.0);
    const SloClassConfig classes = random_classes(rng);

    sim::Simulation sim;
    serving::SystemConfig cfg;
    cfg.total_workers = sc.total_workers;
    cfg.slo_seconds = sc.slo;
    cfg.model_load_delay = sc.load_delay;
    cfg.seed = seed;
    cfg.slo_classes = classes;
    cfg.prompt_mix = random_class_mix(rng);
    serving::ServingSystem system(sim, *workload_, *repo_, chain(sc.depth),
                                  discs(chain(sc.depth)), *scorer_, cfg);

    for (const auto& timed_plan : sc.plans)
      sim.schedule_at(timed_plan.first,
                      [&system, p = staffed(timed_plan.second)] {
                        system.apply(p);
                      });
    system.inject_arrivals(sc.arrivals);
    // Mid-run: per-class rings respect their admission caps and sum to the
    // worker's queue length.
    for (double t : {sc.horizon * 0.3, sc.horizon * 0.7}) {
      sim.schedule_at(t, [&system, &classes] {
        for (std::size_t i = 0; i < system.worker_count(); ++i) {
          const auto info = system.engine().worker_info(i);
          std::size_t sum = 0;
          for (std::size_t c = 0; c < kQueryClassCount; ++c) {
            sum += info.class_queue_lengths[c];
            if (classes.queue_capacity[c] > 0)
              EXPECT_LE(info.class_queue_lengths[c],
                        classes.queue_capacity[c]);
          }
          EXPECT_EQ(sum, info.queue_length);
        }
      });
    }

    sim.run_until(sc.horizon + sc.slo + 30.0);
    sim.run_all();

    EXPECT_EQ(system.engine().submitted(), sc.arrivals.size());
    check_invariants(system.engine(), sc.arrivals.size(), seed);
    EXPECT_EQ(system.sink().total(), sc.arrivals.size()) << "seed " << seed;
    check_class_invariants(system.sink(), seed);
    // Every admitted batch-class query completed — nothing starved.
    EXPECT_EQ(system.sink().class_completed(QueryClass::kBatch),
              system.sink().class_total(QueryClass::kBatch))
        << "seed " << seed;
  }
}

TEST_F(ChainFixture, RandomizedClassedInvariantsOnThreadedBackend) {
  for (std::size_t seed = 1; seed <= kIterationsPerBackend; ++seed) {
    util::Rng rng(50'000 + seed);
    Scenario sc = random_scenario(rng, /*span=*/1.5);
    sc.slo = rng.uniform(1.5, 3.0);

    util::TraceClock clock(/*time_scale=*/200.0);
    runtime::ThreadedBackend backend(clock, sc.total_workers);
    EngineConfig cfg;
    cfg.total_workers = sc.total_workers;
    cfg.slo_seconds = sc.slo;
    cfg.model_load_delay = sc.load_delay;
    cfg.launch_slack_seconds = 0.004 * 200.0;
    cfg.seed = seed;
    cfg.slo_classes = random_classes(rng);
    cfg.prompt_mix = random_class_mix(rng);
    CascadeEngine eng(backend, *workload_, *repo_, chain(sc.depth),
                      discs(chain(sc.depth)), *scorer_, cfg);
    backend.start();

    std::size_t ai = 0, pi = 0;
    while (ai < sc.arrivals.size() || pi < sc.plans.size()) {
      const bool plan_next =
          pi < sc.plans.size() &&
          (ai >= sc.arrivals.size() ||
           sc.plans[pi].first <= sc.arrivals[ai]);
      if (plan_next) {
        clock.sleep_until(sc.plans[pi].first);
        eng.apply(staffed(sc.plans[pi].second));
        ++pi;
      } else {
        clock.sleep_until(sc.arrivals[ai]);
        eng.submit_next();
        ++ai;
      }
    }
    clock.sleep_until(sc.horizon + sc.slo + 2.0);
    backend.stop();

    EXPECT_EQ(eng.submitted(), sc.arrivals.size());
    check_invariants(eng, sc.arrivals.size(), seed);
    // Stragglers may remain queued at stop; the class rows must still sum
    // to what terminated, and no admitted batch-class work was dropped.
    check_class_invariants(eng.sink(), seed);
  }
}

void check_frontend_records(const cluster::ShardFrontend& frontend,
                            std::size_t submitted, std::size_t seed);

TEST_F(ChainFixture, RandomizedShardedClassPreservedAcrossWire) {
  // Classed traffic through the sharded topology: the frontend draws each
  // query's class; the class byte must survive query/submit to the shard
  // (whose per-class queues act on it) and ride query/terminal back into
  // the cluster sink. Per-class counts must agree between the shard
  // engines' own sinks and the frontend's wire-fed sink.
  std::array<std::size_t, kQueryClassCount> seen_totals{};
  for (std::size_t seed = 1; seed <= kIterationsPerBackend; ++seed) {
    util::Rng rng(60'000 + seed);
    const Scenario sc = random_scenario(rng, /*span=*/8.0);
    const SloClassConfig classes = random_classes(rng);
    const trace::PromptMixConfig mix = random_class_mix(rng);
    const int shards = static_cast<int>(rng.uniform_int(2, 3));
    const double hop = rng.bernoulli(0.5) ? 0.0 : 0.02;

    sim::Simulation sim;
    serving::SimulationBackend backend(sim);
    std::vector<std::unique_ptr<CascadeEngine>> engines;
    for (int s = 0; s < shards; ++s) {
      EngineConfig cfg;
      cfg.total_workers = sc.total_workers;
      cfg.slo_seconds = sc.slo;
      cfg.model_load_delay = sc.load_delay;
      cfg.seed = seed * 16 + static_cast<std::size_t>(s);
      cfg.slo_classes = classes;
      engines.push_back(std::make_unique<CascadeEngine>(
          backend, *workload_, *repo_, chain(sc.depth),
          discs(chain(sc.depth)), *scorer_, cfg));
    }

    cluster::FrontendConfig fcfg;
    fcfg.slo_seconds = sc.slo;
    fcfg.slo_classes = classes;
    fcfg.prompt_mix = mix;
    cluster::ShardFrontend frontend(*workload_, *scorer_, fcfg);
    net::DeferFn defer = [&sim](double d, std::function<void()> fn) {
      sim.schedule_in(d, std::move(fn));
    };
    std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
    for (int s = 0; s < shards; ++s) {
      auto link = net::make_loopback_link(hop, defer);
      nodes.push_back(std::make_unique<cluster::ShardNode>(
          static_cast<std::uint32_t>(s), *engines[s],
          std::move(link.second)));
      frontend.attach_shard(std::move(link.first));
    }

    for (const auto& timed_plan : sc.plans) {
      for (int s = 0; s < shards; ++s) {
        net::PlanMsg m;
        m.shard = static_cast<std::uint32_t>(s);
        m.plan = staffed(random_plan(rng, sc.depth, sc.total_workers));
        sim.schedule_at(timed_plan.first, [&frontend, m] {
          frontend.send_to_shard(m.shard, net::encode(m));
        });
      }
    }
    for (const double t : sc.arrivals)
      sim.schedule_at(t, [&frontend, &sim] {
        frontend.submit_next(sim.now());
      });

    sim.run_until(sc.horizon + sc.slo + 30.0);
    sim.run_all();

    EXPECT_EQ(frontend.submitted(), sc.arrivals.size());
    EXPECT_TRUE(frontend.drained()) << "seed " << seed;
    EXPECT_EQ(frontend.sink().total(), sc.arrivals.size()) << "seed " << seed;
    check_frontend_records(frontend, sc.arrivals.size(), seed);
    check_class_invariants(frontend.sink(), seed);
    // Wire preservation: the shard engines only ever learned a query's
    // class from the submit frame, and the frontend sink only from the
    // terminal frame — their per-class ledgers must agree exactly.
    for (std::size_t c = 0; c < kQueryClassCount; ++c) {
      const auto cls = static_cast<QueryClass>(c);
      std::size_t shard_total = 0;
      for (const auto& eng : engines)
        shard_total += eng->sink().class_total(cls);
      EXPECT_EQ(shard_total, frontend.sink().class_total(cls))
          << "seed " << seed << " class " << c;
      seen_totals[c] += shard_total;
    }
  }
  // The random mixes actually exercised all three classes.
  for (std::size_t c = 0; c < kQueryClassCount; ++c)
    EXPECT_GT(seen_totals[c], 0u);
}

// --- sharded topology invariants -------------------------------------------

/// Per-shard conservation: each shard engine's own sink plus whatever is
/// legitimately still queued accounts for exactly the queries routed to it.
void check_shard_conservation(const CascadeEngine& eng, std::size_t seed) {
  std::size_t leftover = 0;
  for (std::size_t i = 0; i < eng.worker_count(); ++i) {
    const auto info = eng.worker_info(i);
    EXPECT_FALSE(info.busy) << "seed " << seed;
    leftover += info.queue_length;
  }
  EXPECT_EQ(eng.sink().total() + leftover, eng.submitted()) << "seed " << seed;
}

/// Cluster-level conservation on the frontend's wire-fed sink: unique
/// sequence numbers, valid deferral histories, nothing double-counted.
void check_frontend_records(const cluster::ShardFrontend& frontend,
                            std::size_t submitted, std::size_t seed) {
  std::set<std::uint64_t> seen;
  for (const auto& r : frontend.sink().records()) {
    EXPECT_TRUE(seen.insert(r.seq).second)
        << "query " << r.seq << " terminated twice (seed " << seed << ")";
    EXPECT_LT(r.seq, submitted) << "seed " << seed;
    EXPECT_GE(static_cast<int>(r.stage), r.deferrals) << "seed " << seed;
    if (!r.dropped) EXPECT_GT(r.tier, 0) << "seed " << seed;
  }
  EXPECT_EQ(seen.size(), frontend.sink().total()) << "seed " << seed;
}

TEST_F(ChainFixture, RandomizedShardedInvariantsOnDesBackend) {
  // The engine invariants must survive the wire: N shards behind a
  // ShardFrontend over loopback links (randomly with hop latency), random
  // per-shard plans pushed mid-run as cluster/plan frames — resizing
  // shards while their queues are non-empty — and every terminal crossing
  // back as a frame before it reaches the cluster sink.
  for (std::size_t seed = 1; seed <= kIterationsPerBackend; ++seed) {
    util::Rng rng(20'000 + seed);
    const Scenario sc = random_scenario(rng, /*span=*/8.0);
    const int shards = static_cast<int>(rng.uniform_int(2, 3));
    const double hop = rng.bernoulli(0.5) ? 0.0 : 0.02;

    sim::Simulation sim;
    serving::SimulationBackend backend(sim);
    std::vector<std::unique_ptr<CascadeEngine>> engines;
    for (int s = 0; s < shards; ++s) {
      EngineConfig cfg;
      cfg.total_workers = sc.total_workers;
      cfg.slo_seconds = sc.slo;
      cfg.model_load_delay = sc.load_delay;
      cfg.seed = seed * 16 + static_cast<std::size_t>(s);
      engines.push_back(std::make_unique<CascadeEngine>(
          backend, *workload_, *repo_, chain(sc.depth),
          discs(chain(sc.depth)), *scorer_, cfg));
    }

    cluster::FrontendConfig fcfg;
    fcfg.slo_seconds = sc.slo;
    cluster::ShardFrontend frontend(*workload_, *scorer_, fcfg);
    net::DeferFn defer = [&sim](double d, std::function<void()> fn) {
      sim.schedule_in(d, std::move(fn));
    };
    std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
    for (int s = 0; s < shards; ++s) {
      auto link = net::make_loopback_link(hop, defer);
      nodes.push_back(std::make_unique<cluster::ShardNode>(
          static_cast<std::uint32_t>(s), *engines[s],
          std::move(link.second)));
      frontend.attach_shard(std::move(link.first));
    }

    // Independent random plan pushes per shard at the scenario's plan
    // times: each lands as a cluster/plan frame and resizes that shard
    // while traffic is in flight.
    for (const auto& timed_plan : sc.plans) {
      for (int s = 0; s < shards; ++s) {
        net::PlanMsg m;
        m.shard = static_cast<std::uint32_t>(s);
        m.plan = random_plan(rng, sc.depth, sc.total_workers);
        sim.schedule_at(timed_plan.first, [&frontend, m] {
          frontend.send_to_shard(m.shard, net::encode(m));
        });
      }
    }
    for (const double t : sc.arrivals)
      sim.schedule_at(t, [&frontend, &sim] {
        frontend.submit_next(sim.now());
      });
    // Mid-run queue sanity: bounded by what was admitted, on every shard.
    for (double t : {sc.horizon * 0.3, sc.horizon * 0.7}) {
      sim.schedule_at(t, [&engines, &sc] {
        for (const auto& eng : engines)
          for (std::size_t i = 0; i < eng->worker_count(); ++i)
            EXPECT_LE(eng->worker_info(i).queue_length, sc.arrivals.size());
      });
    }

    sim.run_until(sc.horizon + sc.slo + 30.0);
    sim.run_all();

    // Routing fan-out conserves: every admitted query went to exactly one
    // shard, and the DES drains every terminal back over the wire.
    EXPECT_EQ(frontend.submitted(), sc.arrivals.size());
    std::size_t routed = 0;
    for (const auto& eng : engines) {
      routed += eng->submitted();
      check_shard_conservation(*eng, seed);
    }
    EXPECT_EQ(routed, sc.arrivals.size()) << "seed " << seed;
    EXPECT_TRUE(frontend.drained()) << "seed " << seed;
    EXPECT_EQ(frontend.sink().total(), sc.arrivals.size()) << "seed " << seed;
    check_frontend_records(frontend, sc.arrivals.size(), seed);
  }
}

TEST_F(ChainFixture, RandomizedShardedInvariantsOnThreadedBackend) {
  // The same invariants with real socketpair transports and reader
  // threads (this test rides in the TSan CI job): smaller seed count,
  // compressed wall time, and tolerance for stragglers left queued when
  // the backends stop.
  constexpr std::size_t kSeeds = 12;
  for (std::size_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(30'000 + seed);
    Scenario sc = random_scenario(rng, /*span=*/1.5);
    sc.slo = rng.uniform(1.5, 3.0);
    const int shards = 2;
    const double time_scale = 200.0;

    util::TraceClock clock(time_scale);
    std::vector<std::unique_ptr<runtime::ThreadedBackend>> backends;
    std::vector<std::unique_ptr<CascadeEngine>> engines;
    for (int s = 0; s < shards; ++s) {
      backends.push_back(std::make_unique<runtime::ThreadedBackend>(
          clock, sc.total_workers));
      EngineConfig cfg;
      cfg.total_workers = sc.total_workers;
      cfg.slo_seconds = sc.slo;
      cfg.model_load_delay = sc.load_delay;
      cfg.launch_slack_seconds = 0.004 * time_scale;
      cfg.seed = seed * 16 + static_cast<std::size_t>(s);
      engines.push_back(std::make_unique<CascadeEngine>(
          *backends.back(), *workload_, *repo_, chain(sc.depth),
          discs(chain(sc.depth)), *scorer_, cfg));
    }

    cluster::FrontendConfig fcfg;
    fcfg.slo_seconds = sc.slo;
    cluster::ShardFrontend frontend(*workload_, *scorer_, fcfg);
    std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
    for (int s = 0; s < shards; ++s) {
      auto link = net::make_socketpair_link();
      nodes.push_back(std::make_unique<cluster::ShardNode>(
          static_cast<std::uint32_t>(s), *engines[s],
          std::move(link.second)));
      frontend.attach_shard(std::move(link.first));
    }
    frontend.start_transports();
    for (auto& node : nodes) node->start();
    for (auto& backend : backends) backend->start();

    // Merged (plan, arrival) timeline in compressed wall time; plan pushes
    // go over the wire and resize shards under live traffic.
    std::size_t ai = 0, pi = 0;
    while (ai < sc.arrivals.size() || pi < sc.plans.size()) {
      const bool plan_next =
          pi < sc.plans.size() &&
          (ai >= sc.arrivals.size() ||
           sc.plans[pi].first <= sc.arrivals[ai]);
      if (plan_next) {
        clock.sleep_until(sc.plans[pi].first);
        for (int s = 0; s < shards; ++s) {
          net::PlanMsg m;
          m.shard = static_cast<std::uint32_t>(s);
          m.plan = random_plan(rng, sc.depth, sc.total_workers);
          frontend.send_to_shard(static_cast<std::size_t>(s),
                                 net::encode(m));
        }
        ++pi;
      } else {
        clock.sleep_until(sc.arrivals[ai]);
        frontend.submit_next(clock.now());
        ++ai;
      }
    }
    clock.sleep_until(sc.horizon + sc.slo + 2.0);
    const auto wall_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!frontend.drained() &&
           std::chrono::steady_clock::now() < wall_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (auto& backend : backends) backend->stop();
    while (!frontend.drained() &&
           std::chrono::steady_clock::now() < wall_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (auto& node : nodes) node->stop();
    frontend.stop_transports();

    EXPECT_EQ(frontend.submitted(), sc.arrivals.size());
    std::size_t routed = 0;
    for (const auto& eng : engines) {
      routed += eng->submitted();
      check_shard_conservation(*eng, seed);
    }
    EXPECT_EQ(routed, sc.arrivals.size()) << "seed " << seed;
    // Terminals that crossed the wire are exactly what the sink holds;
    // stragglers stopped mid-queue are the only legitimate gap.
    EXPECT_EQ(frontend.sink().total(), frontend.terminated())
        << "seed " << seed;
    EXPECT_LE(frontend.terminated(), frontend.submitted()) << "seed " << seed;
    check_frontend_records(frontend, sc.arrivals.size(), seed);
  }
}

// --- N=3 reconfiguration under load ---------------------------------------

TEST_F(ChainFixture, ShrinkingMiddleStageReroutesItsQueue) {
  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 4;
  cfg.slo_seconds = 30.0;
  cfg.model_load_delay = 0.5;
  serving::ServingSystem system(sim, *workload_, *repo_, chain(3),
                                discs(chain(3)), *scorer_, cfg);

  AllocationPlan a = AllocationPlan::for_stages(3);
  a.workers = {2, 1, 1};
  // Threshold 1.0 at the first boundary: everything defers to the middle
  // stage, guaranteeing its queue is non-empty when the shrink lands.
  a.thresholds = {1.0, 0.0};
  system.apply(a);
  EXPECT_EQ(system.engine().reconfigurations(), 1u);

  std::vector<double> arrivals;
  for (int i = 0; i < 24; ++i) arrivals.push_back(0.6 + 0.05 * i);
  system.inject_arrivals(arrivals);

  // While the middle stage still has queued deferrals, remove it entirely.
  sim.schedule_at(2.5, [&] {
    std::size_t middle_queue = 0;
    for (std::size_t i = 0; i < system.worker_count(); ++i) {
      const auto info = system.engine().worker_info(i);
      if (info.stage == 1) middle_queue += info.queue_length;
    }
    EXPECT_GT(middle_queue, 0u) << "scenario must catch a non-empty queue";
    AllocationPlan b = a;
    b.workers = {2, 0, 2};
    system.apply(b);
  });

  sim.run_until(120.0);
  sim.run_all();

  // Every admitted query re-routed or completed — nothing vanished with
  // the evicted stage.
  EXPECT_EQ(system.engine().reconfigurations(), 2u);
  EXPECT_EQ(system.sink().total(), arrivals.size());
  EXPECT_EQ(system.sink().completed() + system.sink().dropped(),
            arrivals.size());
  // The deferred queries ended deeper than stage 0.
  bool deep_served = false;
  for (const auto& r : system.sink().records())
    if (!r.dropped && r.stage >= 1) deep_served = true;
  EXPECT_TRUE(deep_served);
}

TEST_F(ChainFixture, StageSwapWithSharedModelEvictsQueue) {
  // A chain may host the same model at two stages; re-staging a worker
  // swaps no weights, but its queued queries must still be evicted — a
  // stage-0 query served by the re-staged (now terminal) worker would
  // skip the boundary discriminator gate entirely.
  models::ModelRepository repo;
  repo.register_model({"m", models::ModelKind::kDiffusion,
                       models::LatencyProfile::affine(1.0), 2, 512});
  repo.register_model({"disc", models::ModelKind::kDiscriminator,
                       models::LatencyProfile::affine(0.005, 0.1), 0, 512});
  models::CascadeSpec spec;
  spec.name = "self";
  spec.chain = {"m", "m"};
  spec.discriminators = {"disc"};
  spec.slo_seconds = 60.0;
  repo.register_cascade(std::move(spec));

  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 2;
  cfg.slo_seconds = 60.0;
  cfg.model_load_delay = 0.0;
  serving::ServingSystem system(sim, *workload_, repo, repo.cascade("self"),
                                discs(repo.cascade("self")), *scorer_, cfg);

  AllocationPlan a = AllocationPlan::for_stages(2);
  a.workers = {2, 0};
  a.thresholds = {1.0};  // the gate defers every stage-0 output
  system.apply(a);

  std::vector<double> arrivals;
  for (int i = 0; i < 8; ++i) arrivals.push_back(0.05 * i);
  system.inject_arrivals(arrivals);
  // Flip one worker to stage 1 while queues are non-empty. Same model:
  // no reload, but the queued stage-0 queries must leave with it.
  sim.schedule_at(0.5, [&] {
    AllocationPlan b = a;
    b.workers = {1, 1};
    system.apply(b);
  });
  sim.run_until(120.0);
  sim.run_all();

  EXPECT_EQ(system.sink().total(), arrivals.size());
  // Every completion passed the boundary gate exactly once — none were
  // served terminal by the re-staged worker without a discriminator pass.
  for (const auto& r : system.sink().records())
    if (!r.dropped) EXPECT_EQ(r.deferrals, 1) << "query " << r.seq;
}

TEST_F(ChainFixture, ShrinkingTailStagesServesDeferralsBestEffort) {
  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 3;
  cfg.slo_seconds = 30.0;
  cfg.model_load_delay = 0.2;
  serving::ServingSystem system(sim, *workload_, *repo_, chain(3),
                                discs(chain(3)), *scorer_, cfg);

  AllocationPlan a = AllocationPlan::for_stages(3);
  a.workers = {1, 1, 1};
  a.thresholds = {1.0, 1.0};  // defer everything as deep as it can go
  system.apply(a);

  std::vector<double> arrivals;
  for (int i = 0; i < 12; ++i) arrivals.push_back(0.4 + 0.1 * i);
  system.inject_arrivals(arrivals);

  // Collapse the whole tail: only the light stage remains. In-flight
  // deferrals must either re-route into surviving pools or complete
  // best-effort with the image they already have — never disappear.
  sim.schedule_at(2.0, [&] {
    AllocationPlan b = a;
    b.workers = {3, 0, 0};
    system.apply(b);
  });

  sim.run_until(120.0);
  sim.run_all();

  EXPECT_EQ(system.sink().total(), arrivals.size());
  for (const auto& r : system.sink().records())
    EXPECT_GE(static_cast<int>(r.stage), r.deferrals);
}

}  // namespace
}  // namespace diffserve::engine
