// Tests for SLO classes: per-class admission queues and their overflow
// policies (drop-oldest / backpressure / drop-newest), class-aware batch
// formation (interactive fills first, batch-class work is never
// deadline-dropped and never starves), and per-class metrics accounting —
// all over the DES unit cascade, where completion times expose every
// scheduling decision exactly.
#include <gtest/gtest.h>

#include <map>

#include "engine/engine.hpp"
#include "engine/metrics_sink.hpp"
#include "models/model_repository.hpp"
#include "quality/fid.hpp"
#include "quality/workload.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/prompt_mix.hpp"

namespace diffserve::serving {
namespace {

Query make_query(std::uint64_t seq, double arrival, double deadline,
                 QueryClass cls) {
  Query q;
  q.seq = seq;
  q.prompt_id = static_cast<quality::QueryId>(seq % 50);
  q.arrival_time = arrival;
  q.deadline = deadline;
  q.stage_deadline = deadline;
  q.query_class = cls;
  return q;
}

models::ModelRepository unit_repo() {
  models::ModelRepository repo;
  repo.register_model({"m", models::ModelKind::kDiffusion,
                       models::LatencyProfile(std::map<int, double>{
                           {1, 1.0}, {2, 1.5}, {4, 2.5}}),
                       /*tier=*/1, 512});
  repo.register_model({"h", models::ModelKind::kDiffusion,
                       models::LatencyProfile::affine(1.0), /*tier=*/2, 512});
  repo.register_model({"d", models::ModelKind::kDiscriminator,
                       models::LatencyProfile::affine(0.01), 0, 512});
  repo.register_cascade({"unit", {"m", "h"}, {"d"}, 100.0});
  return repo;
}

/// One light worker, direct mode, SLO classes enabled: queries submitted
/// through submit() carry caller-chosen classes and deadlines, so every
/// admission / batch decision is deterministic.
class ClassHarness {
 public:
  explicit ClassHarness(engine::SloClassConfig classes, int light_batch = 1)
      : repo_(unit_repo()) {
    SystemConfig cfg;
    cfg.total_workers = 1;
    cfg.slo_seconds = 100.0;
    cfg.model_load_delay = 0.0;
    cfg.slo_classes = classes;
    // Direct mode never defers: the one boundary needs no discriminator.
    system_ = std::make_unique<ServingSystem>(
        sim_, workload_, repo_, repo_.cascade("unit"),
        std::vector<const discriminator::Discriminator*>{nullptr}, scorer_,
        cfg);
    AllocationPlan plan;
    plan.mode = RoutingMode::kDirect;
    plan.workers[0] = 1;
    plan.workers[1] = 0;
    plan.batches[0] = light_batch;
    system_->apply(plan);
  }

  void submit_at(double t, Query q) {
    sim_.schedule_at(t, [this, q] { system_->engine().submit(q); });
  }

  const engine::MetricsSink::Record& record_for(std::uint64_t seq) const {
    for (const auto& r : system_->sink().records())
      if (r.seq == seq) return r;
    ADD_FAILURE() << "no terminal record for seq " << seq;
    static engine::MetricsSink::Record none{};
    return none;
  }

  sim::Simulation sim_;
  quality::Workload workload_{60};
  quality::FidScorer scorer_{workload_};
  models::ModelRepository repo_;
  std::unique_ptr<ServingSystem> system_;
};

engine::SloClassConfig tiny_queues() {
  engine::SloClassConfig c;
  c.enabled = true;
  c.queue_capacity = {2, 2, 2};
  return c;
}

TEST(SloClassAdmission, InteractiveOverflowDropsOldest) {
  // Worker busy with seq 0 (t in [0,1)); interactive ring capacity 2.
  // seq 1 and 2 queue; seq 3 overflows -> the *oldest* queued interactive
  // query (seq 1) is dropped and the freshest request is admitted.
  ClassHarness h(tiny_queues());
  h.submit_at(0.0, make_query(0, 0.0, 100.0, QueryClass::kStandard));
  h.submit_at(0.1, make_query(1, 0.1, 100.0, QueryClass::kInteractive));
  h.submit_at(0.2, make_query(2, 0.2, 100.0, QueryClass::kInteractive));
  h.submit_at(0.3, make_query(3, 0.3, 100.0, QueryClass::kInteractive));
  h.sim_.run_all();

  const auto& sink = h.system_->sink();
  EXPECT_EQ(sink.total(), 4u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_TRUE(h.record_for(1).dropped);
  EXPECT_FALSE(h.record_for(2).dropped);
  EXPECT_FALSE(h.record_for(3).dropped);
  EXPECT_EQ(sink.class_dropped(QueryClass::kInteractive), 1u);
  const auto drops = h.system_->engine().class_admission_drops();
  EXPECT_EQ(drops[static_cast<std::size_t>(QueryClass::kInteractive)], 1u);
}

TEST(SloClassAdmission, BatchOverflowDropsNewest) {
  // Same shape, batch class: the arriving query (seq 3) is rejected at
  // the door; work already admitted to the batch ring is never shed.
  ClassHarness h(tiny_queues());
  h.submit_at(0.0, make_query(0, 0.0, 100.0, QueryClass::kStandard));
  h.submit_at(0.1, make_query(1, 0.1, 100.0, QueryClass::kBatch));
  h.submit_at(0.2, make_query(2, 0.2, 100.0, QueryClass::kBatch));
  h.submit_at(0.3, make_query(3, 0.3, 100.0, QueryClass::kBatch));
  h.sim_.run_all();

  const auto& sink = h.system_->sink();
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_FALSE(h.record_for(1).dropped);
  EXPECT_FALSE(h.record_for(2).dropped);
  EXPECT_TRUE(h.record_for(3).dropped);
  EXPECT_EQ(sink.class_dropped(QueryClass::kBatch), 1u);
}

TEST(SloClassAdmission, StandardOverflowIsBackpressure) {
  // Standard renders kBlock as admission rejection: the arrival bounces,
  // the queue is untouched.
  ClassHarness h(tiny_queues());
  h.submit_at(0.0, make_query(0, 0.0, 100.0, QueryClass::kBatch));
  h.submit_at(0.1, make_query(1, 0.1, 100.0, QueryClass::kStandard));
  h.submit_at(0.2, make_query(2, 0.2, 100.0, QueryClass::kStandard));
  h.submit_at(0.3, make_query(3, 0.3, 100.0, QueryClass::kStandard));
  h.sim_.run_all();

  const auto& sink = h.system_->sink();
  EXPECT_FALSE(h.record_for(1).dropped);
  EXPECT_FALSE(h.record_for(2).dropped);
  EXPECT_TRUE(h.record_for(3).dropped);
  const auto drops = h.system_->engine().class_admission_drops();
  EXPECT_EQ(drops[static_cast<std::size_t>(QueryClass::kStandard)], 1u);
}

TEST(SloClassAdmission, CapacityZeroIsUnbounded) {
  engine::SloClassConfig c;
  c.enabled = true;
  c.queue_capacity = {0, 0, 0};
  ClassHarness h(c);
  h.submit_at(0.0, make_query(0, 0.0, 100.0, QueryClass::kStandard));
  for (std::uint64_t s = 1; s <= 8; ++s)
    h.submit_at(0.1, make_query(s, 0.1, 100.0, QueryClass::kInteractive));
  h.sim_.run_all();
  EXPECT_EQ(h.system_->sink().completed(), 9u);
  EXPECT_EQ(h.system_->sink().dropped(), 0u);
}

TEST(SloClassBatching, InteractiveFillsFirst) {
  // Worker busy; a batch-class query is enqueued *before* an interactive
  // one. When the worker frees, the interactive query runs first (enum
  // order = fill priority), the batch-class one after.
  ClassHarness h(tiny_queues());
  h.submit_at(0.0, make_query(0, 0.0, 100.0, QueryClass::kStandard));
  h.submit_at(0.1, make_query(1, 0.1, 100.0, QueryClass::kBatch));
  h.submit_at(0.2, make_query(2, 0.2, 100.0, QueryClass::kInteractive));
  h.sim_.run_all();

  // e(1)=1: seq 0 done at 1, seq 2 (interactive) at 2, seq 1 at 3.
  EXPECT_NEAR(h.record_for(2).time, 2.0, 1e-9);
  EXPECT_NEAR(h.record_for(1).time, 3.0, 1e-9);
}

TEST(SloClassBatching, BatchClassIsNeverDeadlineDropped) {
  // Both queries are hopeless against their deadlines when the batch
  // forms. The standard one is shed at batch start (the historical drop
  // policy); the batch-class one executes anyway and completes late —
  // deadline violation is a quality signal for batch work, not a
  // shedding trigger.
  ClassHarness h(tiny_queues());
  h.submit_at(0.0, make_query(0, 0.0, 100.0, QueryClass::kStandard));
  h.submit_at(0.1, make_query(1, 0.1, 0.5, QueryClass::kStandard));
  h.submit_at(0.2, make_query(2, 0.2, 0.5, QueryClass::kBatch));
  h.sim_.run_all();

  EXPECT_TRUE(h.record_for(1).dropped);
  const auto& batch_rec = h.record_for(2);
  EXPECT_FALSE(batch_rec.dropped);
  EXPECT_TRUE(batch_rec.violated);
  EXPECT_EQ(h.system_->sink().class_dropped(QueryClass::kBatch), 0u);
}

TEST(SloClassBatching, MixedOverloadStarvesNoBatchWork) {
  // Sustained 3-class pressure on one worker: interactive work keeps
  // preempting the fill order, but every admitted batch-class query still
  // terminates as a completion — starvation-freedom under overload.
  engine::SloClassConfig c;
  c.enabled = true;
  c.queue_capacity = {4, 0, 0};
  ClassHarness h(c, /*light_batch=*/2);
  std::uint64_t seq = 0;
  for (int wave = 0; wave < 10; ++wave) {
    const double t = 0.4 * wave;
    h.submit_at(t, make_query(seq++, t, t + 2.0, QueryClass::kInteractive));
    h.submit_at(t, make_query(seq++, t, t + 5.0, QueryClass::kStandard));
    h.submit_at(t, make_query(seq++, t, t + 40.0, QueryClass::kBatch));
  }
  h.sim_.run_all();

  const auto& sink = h.system_->sink();
  EXPECT_EQ(sink.total(), 30u);
  EXPECT_EQ(sink.class_dropped(QueryClass::kBatch), 0u);
  EXPECT_EQ(sink.class_completed(QueryClass::kBatch), 10u);
}

TEST(SloClassMetrics, PerClassRowsSumToTotals) {
  ClassHarness h(tiny_queues());
  h.submit_at(0.0, make_query(0, 0.0, 100.0, QueryClass::kStandard));
  h.submit_at(0.1, make_query(1, 0.1, 100.0, QueryClass::kInteractive));
  h.submit_at(0.2, make_query(2, 0.2, 0.5, QueryClass::kStandard));
  h.submit_at(0.3, make_query(3, 0.3, 100.0, QueryClass::kBatch));
  h.sim_.run_all();

  const auto& sink = h.system_->sink();
  std::size_t completed = 0, dropped = 0;
  for (std::size_t cidx = 0; cidx < engine::kQueryClassCount; ++cidx) {
    const auto cls = static_cast<QueryClass>(cidx);
    completed += sink.class_completed(cls);
    dropped += sink.class_dropped(cls);
  }
  EXPECT_EQ(completed, sink.completed());
  EXPECT_EQ(dropped, sink.dropped());
  // The late standard query (seq 2, dropped or late) counts against the
  // standard row only.
  EXPECT_GT(sink.class_violation_ratio(QueryClass::kStandard), 0.0);
  EXPECT_EQ(sink.class_violation_ratio(QueryClass::kInteractive), 0.0);
  EXPECT_EQ(sink.class_violation_ratio(QueryClass::kBatch), 0.0);
  EXPECT_GT(sink.class_mean_latency(QueryClass::kInteractive), 0.0);
}

TEST(SloClassMetrics, SamplerClassMixMatchesShares) {
  // The trace-side class axis: a 0.3/0.5/0.2 mix over many draws lands
  // near its shares, and the degenerate default mix draws nothing.
  trace::PromptMixConfig mix;
  mix.interactive_share = 0.3;
  mix.batch_share = 0.2;
  trace::PromptSampler sampler(50, mix);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[sampler.next_class()];
  EXPECT_NEAR(counts[0] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.5, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.2, 0.02);

  trace::PromptSampler plain(50, trace::PromptMixConfig{});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(plain.next_class(), 1);
}

}  // namespace
}  // namespace diffserve::serving
