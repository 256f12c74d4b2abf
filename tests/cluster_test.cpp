// Tests for the sharded serving layer (src/cluster): the 1-shard
// loopback cluster's exact equivalence to the bare engine, DES-vs-
// threaded sharded parity (the §4.3 fidelity methodology extended to the
// cluster), consistent-hash routing properties, least-loaded fallback,
// the frontend's wire-driven terminal accounting, and split_plan's
// apportionment invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "cluster/cluster_controller.hpp"
#include "cluster/cluster_run.hpp"
#include "cluster/shard_frontend.hpp"
#include "control/exhaustive_allocator.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"

namespace diffserve::cluster {
namespace {

const core::CascadeEnvironment& shared_env() {
  static const core::CascadeEnvironment env = [] {
    core::EnvironmentConfig cfg;
    cfg.workload_queries = 800;
    cfg.discriminator.train_queries = 500;
    cfg.profile_queries = 500;
    return core::CascadeEnvironment(cfg);
  }();
  return env;
}

// ---- the equivalence contract ---------------------------------------------------

TEST(ClusterEquivalence, OneShardLoopbackMatchesBareEngineExactly) {
  // The whole cluster layer — frontend admission, wire encode/decode,
  // shard node dispatch, cluster controller, plan split — must be
  // decision-invisible at N=1 over synchronous loopback: the report,
  // control history included, reproduces the bare-engine run *exactly*,
  // not approximately. Classless, with the reuse cache on (Zipf prompts),
  // and with SLO classes on.
  const auto tr = trace::RateTrace::azure_like(2.0, 8.0, 80.0, 7);

  struct Input {
    const char* name;
    cache::CacheConfig cache;
    trace::PromptMixConfig prompt_mix;
    engine::SloClassConfig slo_classes;
  };
  Input classless{"classless", {}, {}, {}};
  Input cached = classless;
  cached.name = "cache on";
  cached.cache.enabled = true;
  cached.cache.capacity = 128;
  cached.prompt_mix.kind = trace::PromptMixConfig::Kind::kZipf;
  Input classed = classless;
  classed.name = "classes on";
  classed.slo_classes.enabled = true;
  classed.prompt_mix.interactive_share = 0.2;
  classed.prompt_mix.batch_share = 0.2;

  for (const Input& in : {classless, cached, classed}) {
    SCOPED_TRACE(in.name);
    core::RunConfig rc;
    rc.approach = core::Approach::kDiffServeExhaustive;
    rc.total_workers = 6;
    rc.trace = tr;
    // The cluster controller derives its initial guess from the trace.
    rc.controller.initial_demand_guess = tr.qps_at(0.0);
    rc.system.cache = in.cache;
    rc.system.prompt_mix = in.prompt_mix;
    rc.system.slo_classes = in.slo_classes;
    const auto bare = core::run_experiment(shared_env(), rc);

    control::ExhaustiveAllocator alloc;
    ClusterRunConfig cc;
    cc.shards = 1;
    cc.workers_per_shard = 6;
    cc.hop_latency_seconds = 0.0;
    cc.gather_delay_seconds = 0.0;
    cc.cache = in.cache;
    cc.prompt_mix = in.prompt_mix;
    cc.slo_classes = in.slo_classes;
    const auto cluster = run_cluster_des(shared_env(), alloc, tr, cc);

    EXPECT_EQ(cluster, bare);
    EXPECT_EQ(cluster.reconfigurations, bare.reconfigurations);
    // Each input really drives its feature through the control loop.
    ASSERT_FALSE(bare.control_history.empty());
    const auto& last = bare.control_history.back();
    if (in.cache.enabled) EXPECT_GT(last.cache_exact_hit_ratio, 0.0);
    if (in.slo_classes.enabled)
      EXPECT_LT(last.effective_slo_seconds, shared_env().default_slo());
  }
}

TEST(ClusterEquivalence, DesRunsAreDeterministic) {
  const auto tr = trace::RateTrace::azure_like(2.0, 6.0, 40.0, 3);
  control::ExhaustiveAllocator alloc;
  ClusterRunConfig cc;
  cc.shards = 3;
  cc.workers_per_shard = 2;
  cc.hop_latency_seconds = 0.01;  // hop latency must not break determinism
  const auto a = run_cluster_des(shared_env(), alloc, tr, cc);
  const auto b = run_cluster_des(shared_env(), alloc, tr, cc);

  EXPECT_EQ(a, b);
}

// ---- §4.3 extended: sharded DES vs sharded testbed -------------------------------

TEST(ClusterParity, DesAndThreadedShardedTopologiesAgree) {
  // Same trace, same allocator, N=3 shards on both backends. The DES
  // models the wire with loopback links; the threaded run pushes every
  // frame through real AF_UNIX sockets with reader threads. Both use the
  // same stats-gather delay so the controller sees equally stale
  // snapshots, leaving scheduling jitter as the only divergence — the
  // FID / SLO-violation deltas must stay inside the paper's §4.3 margin.
  const auto tr = trace::RateTrace::azure_like(2.0, 8.0, 80.0, 7);

  control::ExhaustiveAllocator alloc;
  ClusterRunConfig cfg;
  cfg.shards = 3;
  cfg.workers_per_shard = 2;
  cfg.gather_delay_seconds = 0.5;
  cfg.hop_latency_seconds = 0.0;
  // Sanitizer instrumentation slows the threaded backend several-fold:
  // dispatch lag becomes a real timing divergence, not scheduling jitter.
  // Running closer to wall clock recovers most of it (0.10 -> ~0.05
  // relative FID diff), but a residue remains — a handful of queries
  // defer differently under the distorted scheduler, which on a ~400-query
  // trace moves FID a few percent no matter the compression. Scale the
  // margin like control_test scales its solve budget; the uninstrumented
  // build holds the paper's 5%.
  double margin = 0.05;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  cfg.time_scale = 8.0;
  margin *= 2.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  cfg.time_scale = 8.0;
  margin *= 2.0;
#endif
#endif
  const auto des = run_cluster_des(shared_env(), alloc, tr, cfg);
  const auto threaded = run_cluster_threaded(shared_env(), alloc, tr, cfg);

  ASSERT_GT(des.overall_fid, 0.0);
  ASSERT_GT(threaded.overall_fid, 0.0);
  const double fid_rel_diff =
      std::fabs(des.overall_fid - threaded.overall_fid) / des.overall_fid;
  EXPECT_LT(fid_rel_diff, margin);
  EXPECT_LT(std::fabs(des.violation_ratio - threaded.violation_ratio),
            margin);
  // Identical arrival streams on both backends.
  EXPECT_EQ(des.submitted, threaded.submitted);
  EXPECT_EQ(des.completed + des.dropped, threaded.completed + threaded.dropped);
}

// ---- routing -----------------------------------------------------------------------

/// A frontend with `n` absorbing loopback shards (queries go in, nothing
/// comes back) — enough to exercise routing and load accounting.
struct RoutingHarness {
  explicit RoutingHarness(int n)
      : frontend(shared_env().workload(), shared_env().scorer(), {}) {
    for (int s = 0; s < n; ++s) {
      auto link = net::make_loopback_link();
      link.second->set_receiver([](net::Frame) {});  // absorb
      shard_sides.push_back(std::move(link.second));
      frontend.attach_shard(std::move(link.first));
    }
  }
  ShardFrontend frontend;
  std::vector<std::unique_ptr<net::Endpoint>> shard_sides;
};

TEST(ConsistentHash, MappingIsDeterministicAcrossInstances) {
  RoutingHarness a(4), b(4);
  for (quality::QueryId pid = 0; pid < 200; ++pid)
    EXPECT_EQ(a.frontend.hash_shard(pid), b.frontend.hash_shard(pid)) << pid;
}

TEST(ConsistentHash, KeysSpreadReasonablyAcrossShards) {
  RoutingHarness h(4);
  std::vector<int> counts(4, 0);
  const int kKeys = 8000;
  for (quality::QueryId pid = 0; pid < kKeys; ++pid)
    ++counts[h.frontend.hash_shard(pid)];
  for (int s = 0; s < 4; ++s) {
    // Perfect balance is 25%; 64 vnodes/shard keeps every shard well
    // inside [10%, 45%].
    EXPECT_GT(counts[s], kKeys / 10) << "shard " << s;
    EXPECT_LT(counts[s], kKeys * 45 / 100) << "shard " << s;
  }
}

TEST(ConsistentHash, GrowingTheRingOnlyMovesKeysToTheNewShard) {
  // The property that makes consistent hashing worth its salt for the
  // prompt cache: adding shard N+1 never re-homes a key between two
  // pre-existing shards, so their cached prompts stay hot.
  RoutingHarness three(3), four(4);
  const int kKeys = 4000;
  int moved = 0;
  for (quality::QueryId pid = 0; pid < kKeys; ++pid) {
    const std::size_t before = three.frontend.hash_shard(pid);
    const std::size_t after = four.frontend.hash_shard(pid);
    if (before != after) {
      ++moved;
      EXPECT_EQ(after, 3u) << pid;  // only the new shard gains keys
    }
  }
  // Expected churn is ~1/4 of the keyspace; anything near 100% would mean
  // the ring rehashes wholesale.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(Routing, LeastLoadedFallbackDivertsOnlyUnderHeavySkew) {
  RoutingHarness h(3);
  const quality::QueryId pid = 11;  // all traffic on one key
  const std::size_t owner = h.frontend.hash_shard(pid);

  auto submit_one = [&](double t) {
    engine::Query q;
    q.prompt_id = pid;
    q.arrival_time = t;
    q.deadline = t + 5.0;
    h.frontend.submit(q);
  };
  const int kTotal = 40;
  for (int i = 0; i < kTotal; ++i) submit_one(0.1 * i);

  // Nothing terminates (absorbing shards), so in-flight = routed count.
  std::uint64_t sum = 0, owner_load = h.frontend.inflight(owner);
  for (std::size_t s = 0; s < 3; ++s) sum += h.frontend.inflight(s);
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kTotal));
  // Hash affinity holds until the floor, then the overflow diverts.
  EXPECT_GE(owner_load, kImbalanceMinInflight);
  std::uint64_t least_load = owner_load;
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(h.frontend.inflight(s), 0u) << "shard " << s;
    EXPECT_GE(owner_load, h.frontend.inflight(s));
    least_load = std::min(least_load, h.frontend.inflight(s));
  }
  // The owner took its last query while within the imbalance factor of
  // the least-loaded shard, so it is at most one query past that bound.
  EXPECT_LE(static_cast<double>(owner_load),
            kImbalanceFactor * static_cast<double>(least_load + 1) + 1.0);
}

TEST(Routing, NoDiversionBelowTheInflightFloor) {
  RoutingHarness h(3);
  const quality::QueryId pid = 11;
  const std::size_t owner = h.frontend.hash_shard(pid);
  for (std::uint64_t i = 0; i < kImbalanceMinInflight - 1; ++i) {
    engine::Query q;
    q.prompt_id = pid;
    q.arrival_time = 0.1 * static_cast<double>(i);
    q.deadline = q.arrival_time + 5.0;
    h.frontend.submit(q);
  }
  EXPECT_EQ(h.frontend.inflight(owner), kImbalanceMinInflight - 1);
}

// ---- wire-driven terminal accounting ----------------------------------------------

TEST(Frontend, TerminalFramesDriveSinkAndDrainState) {
  // Shards that echo a terminal for every query: the frontend's sink and
  // in-flight accounting must be fully wire-driven.
  ShardFrontend frontend(shared_env().workload(), shared_env().scorer(),
                         FrontendConfig{});
  std::vector<std::unique_ptr<net::Endpoint>> shard_sides;
  for (int s = 0; s < 2; ++s) {
    auto link = net::make_loopback_link();
    net::Endpoint* back = link.second.get();
    const auto shard = static_cast<std::uint32_t>(s);
    link.second->set_receiver([back, shard](net::Frame f) {
      net::QueryMsg q;
      ASSERT_TRUE(decode(f, &q));
      net::TerminalMsg t;
      t.shard = shard;
      t.query = q.query;
      t.time = q.query.arrival_time + 1.0;
      t.served_tier = 1;  // diffusion tiers are 1-based
      t.dropped = (q.query.seq % 5 == 0);
      back->send(net::encode(t));
    });
    shard_sides.push_back(std::move(link.second));
    frontend.attach_shard(std::move(link.first));
  }

  const int kQueries = 50;
  for (int i = 0; i < kQueries; ++i)
    frontend.submit_next(0.05 * i);

  EXPECT_EQ(frontend.submitted(), static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(frontend.terminated(), static_cast<std::uint64_t>(kQueries));
  EXPECT_TRUE(frontend.drained());
  EXPECT_EQ(frontend.inflight(0), 0u);
  EXPECT_EQ(frontend.inflight(1), 0u);
  const auto& sink = frontend.sink();
  EXPECT_EQ(sink.total(), static_cast<std::size_t>(kQueries));
  EXPECT_EQ(sink.dropped(), static_cast<std::size_t>(kQueries / 5));
  EXPECT_EQ(sink.completed(), static_cast<std::size_t>(kQueries - kQueries / 5));
}

// ---- split_plan --------------------------------------------------------------------

engine::AllocationPlan sample_plan() {
  engine::AllocationPlan p;
  p.workers = {6, 3};
  p.batches = {8, 2};
  p.thresholds = {0.7};
  return p;
}

// ---- wire-format drift guards: SLO class field -----------------------------------

net::QueryMsg classed_query_msg(engine::QueryClass cls) {
  net::QueryMsg m;
  m.shard = 1;
  m.query.seq = 7;
  m.query.prompt_id = 42;
  m.query.arrival_time = 1.5;
  m.query.deadline = 3.5;
  m.query.stage_deadline = 3.5;
  m.query.query_class = cls;
  return m;
}

TEST(Wire, QueryAndTerminalFramesPreserveSloClass) {
  for (std::size_t c = 0; c < engine::kQueryClassCount; ++c) {
    const auto cls = static_cast<engine::QueryClass>(c);
    const net::QueryMsg m = classed_query_msg(cls);
    net::QueryMsg out;
    ASSERT_TRUE(net::decode(net::encode(m), &out));
    EXPECT_EQ(out.query.query_class, cls);

    net::TerminalMsg t;
    t.shard = m.shard;
    t.query = m.query;
    t.time = 4.0;
    t.served_tier = 2;
    t.dropped = false;
    net::TerminalMsg tout;
    ASSERT_TRUE(net::decode(net::encode(t), &tout));
    EXPECT_EQ(tout.query.query_class, cls);
  }
}

TEST(Wire, FramesWithoutClassFieldsAreRejected) {
  // The class byte of the query record and the class-demand block of
  // shard/stats are required: a frame without them (the pre-class layout)
  // is malformed and must fail to decode rather than guess a class.
  const net::QueryMsg m = classed_query_msg(engine::QueryClass::kInteractive);
  net::Frame qf = net::encode(m);
  ASSERT_EQ(qf.payload.size(), 99u);  // 4 shard + 95 query record
  qf.payload.pop_back();              // class byte is the record's tail
  net::QueryMsg qout;
  EXPECT_FALSE(net::decode(qf, &qout));

  net::TerminalMsg t;
  t.shard = 2;
  t.query = m.query;
  t.time = 4.0;
  t.served_tier = 1;
  net::Frame tf = net::encode(t);
  ASSERT_EQ(tf.payload.size(), 112u);  // 4 + 95 + 8 time + 4 tier + 1 flag
  // The class byte rides inside the embedded query record, at offset
  // 4 (shard) + 94.
  tf.payload.erase(tf.payload.begin() + 98);
  net::TerminalMsg tout;
  EXPECT_FALSE(net::decode(tf, &tout));

  net::ShardStatsMsg stats;
  stats.shard = 2;
  stats.demand_rate = 7.25;
  stats.stages = {{3.0, 4.5, 4}};
  stats.class_demand = {1.5, 2.5, 0.25};
  net::ShardStatsMsg sout;
  ASSERT_TRUE(net::decode(net::encode(stats), &sout));
  EXPECT_EQ(sout.class_demand, stats.class_demand);
  // Drop the whole trailing block: count + three rates.
  net::Frame sf = net::encode(stats);
  sf.payload.resize(sf.payload.size() - (4 + 3 * 8));
  EXPECT_FALSE(net::decode(sf, &sout));
}

TEST(SplitPlan, SingleShardIsTheIdentity) {
  const auto global = sample_plan();
  const auto plans = split_plan(global, {5.0}, 16);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].workers, global.workers);
  EXPECT_EQ(plans[0].batches, global.batches);
  EXPECT_EQ(plans[0].thresholds, global.thresholds);
}

TEST(SplitPlan, ConservesWorkersAndRespectsCapacity) {
  const auto global = sample_plan();  // 9 workers total
  const std::vector<double> demand = {3.0, 2.0, 1.0};
  const int cap = 4;
  const auto plans = split_plan(global, demand, cap);
  ASSERT_EQ(plans.size(), 3u);
  for (std::size_t stage = 0; stage < global.workers.size(); ++stage) {
    int total = 0;
    for (const auto& p : plans) total += p.workers[stage];
    EXPECT_EQ(total, global.workers[stage]) << "stage " << stage;
  }
  for (const auto& p : plans) {
    int shard_total = 0;
    for (const int w : p.workers) shard_total += w;
    EXPECT_LE(shard_total, cap);
    // Batch sizes, thresholds, and mode replicate unchanged.
    EXPECT_EQ(p.batches, global.batches);
    EXPECT_EQ(p.thresholds, global.thresholds);
  }
}

TEST(SplitPlan, SkewedDemandShiftsWorkersButCapacityWins) {
  engine::AllocationPlan global = sample_plan();
  global.workers = {5, 3};  // total 8 == 2 shards x cap 4
  const auto plans = split_plan(global, {100.0, 0.0}, 4);
  ASSERT_EQ(plans.size(), 2u);
  // All demand on shard 0, but its 4-worker budget caps the grab; the
  // remainder must spill to shard 1 so the cluster total is conserved.
  for (std::size_t stage = 0; stage < 2; ++stage)
    EXPECT_EQ(plans[0].workers[stage] + plans[1].workers[stage],
              global.workers[stage]);
  EXPECT_EQ(plans[0].workers[0] + plans[0].workers[1], 4);
  EXPECT_EQ(plans[1].workers[0] + plans[1].workers[1], 4);
}

TEST(SplitPlan, ZeroDemandSplitsEqually) {
  engine::AllocationPlan global = sample_plan();
  global.workers = {4, 2};
  const auto plans = split_plan(global, {0.0, 0.0}, 8);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].workers[0], 2);
  EXPECT_EQ(plans[1].workers[0], 2);
  EXPECT_EQ(plans[0].workers[1], 1);
  EXPECT_EQ(plans[1].workers[1], 1);
}

TEST(SplitPlan, DeterministicForEqualShares) {
  const auto global = sample_plan();
  const std::vector<double> demand = {1.0, 1.0, 1.0};
  const auto a = split_plan(global, demand, 4);
  const auto b = split_plan(global, demand, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s)
    EXPECT_EQ(a[s].workers, b[s].workers) << "shard " << s;
}

}  // namespace
}  // namespace diffserve::cluster
