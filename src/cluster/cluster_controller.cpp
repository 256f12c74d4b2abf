#include "cluster/cluster_controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "net/messages.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"

namespace diffserve::cluster {

namespace {

/// The cluster side of the control loop: observations are the sum of the
/// shards' stats snapshots, plans are split across the shards.
class ShardPlane final : public control::ServingPlane {
 public:
  ShardPlane(ShardFrontend& frontend, const engine::CascadeEngine& reference,
             int workers_per_shard, double slo_seconds,
             double gather_delay_seconds)
      : frontend_(frontend),
        reference_(reference),
        workers_per_shard_(workers_per_shard),
        slo_seconds_(slo_seconds),
        gather_delay_seconds_(gather_delay_seconds),
        snapshots_(frontend.shard_count()) {
    DS_REQUIRE(frontend_.shard_count() > 0,
               "construct the cluster controller after attaching shards");
    frontend_.set_stats_listener([this](const net::ShardStatsMsg& m) {
      util::MutexLock lock(snap_mu_);
      if (m.shard < snapshots_.size()) snapshots_[m.shard] = m;
    });
  }

  const engine::CascadeEngine& reference() const override {
    return reference_;
  }
  int total_workers() const override {
    return workers_per_shard_ * static_cast<int>(frontend_.shard_count());
  }
  double slo_seconds() const override { return slo_seconds_; }

  double request_observation() override {
    const std::uint64_t token = ++token_;
    for (std::size_t s = 0; s < frontend_.shard_count(); ++s)
      frontend_.send_to_shard(
          s, net::encode(net::StatsRequestMsg{static_cast<std::uint32_t>(s),
                                              token}));
    return gather_delay_seconds_;
  }

  control::Observation observe() override {
    std::vector<std::optional<net::ShardStatsMsg>> snaps;
    {
      util::MutexLock lock(snap_mu_);
      snaps = snapshots_;
    }
    control::Observation obs;
    obs.stages.assign(reference_.stage_count(), {});
    shard_demand_.assign(snaps.size(), 0.0);
    double violation_sum = 0.0;
    std::size_t replied = 0;
    for (std::size_t s = 0; s < snaps.size(); ++s) {
      if (!snaps[s]) continue;
      const auto& m = *snaps[s];
      obs.demand_rate += m.demand_rate;
      shard_demand_[s] = m.demand_rate;
      for (std::size_t c = 0; c < m.class_demand.size() &&
                              c < engine::kQueryClassCount;
           ++c)
        obs.class_demand[c] += m.class_demand[c];
      violation_sum += m.recent_violation_ratio;
      ++replied;
      obs.cache_enabled = obs.cache_enabled || m.cache_enabled;
      obs.cache += m.cache;
      for (std::size_t st = 0; st < m.stages.size() && st < obs.stages.size();
           ++st) {
        obs.stages[st].total_queue_length += m.stages[st].queue_length;
        obs.stages[st].arrival_rate += m.stages[st].arrival_rate;
      }
    }
    if (replied > 0)
      obs.recent_violation_ratio =
          violation_sum / static_cast<double>(replied);
    return obs;
  }

  void apply(const engine::AllocationPlan& plan) override {
    const std::vector<engine::AllocationPlan> plans =
        split_plan(plan, shard_demand_, workers_per_shard_);
    for (std::size_t s = 0; s < plans.size(); ++s)
      frontend_.send_to_shard(
          s,
          net::encode(net::PlanMsg{static_cast<std::uint32_t>(s), plans[s]}));
  }

 private:
  ShardFrontend& frontend_;
  const engine::CascadeEngine& reference_;
  const int workers_per_shard_;
  const double slo_seconds_;
  const double gather_delay_seconds_;

  /// Latest snapshot per shard, written by the frontend's stats listener
  /// (transport thread), read by observe() on the control thread.
  util::Mutex snap_mu_;
  std::vector<std::optional<net::ShardStatsMsg>> snapshots_
      DS_GUARDED_BY(snap_mu_);

  /// Confined to the control flow: the request token and the per-shard
  /// demand of the latest observation, which apply() splits the plan by.
  std::uint64_t token_ = 0;
  std::vector<double> shard_demand_;
};

}  // namespace

ClusterController::ClusterController(
    ShardFrontend& frontend, const engine::CascadeEngine& reference,
    int workers_per_shard, double slo_seconds,
    std::unique_ptr<control::Allocator> allocator,
    std::vector<discriminator::DeferralProfile> offline_profiles,
    ClusterControllerConfig cfg)
    : loop_(std::make_unique<ShardPlane>(frontend, reference,
                                         workers_per_shard, slo_seconds,
                                         cfg.gather_delay_seconds),
            std::move(allocator), std::move(offline_profiles), cfg.control) {}

std::vector<engine::AllocationPlan> split_plan(
    const engine::AllocationPlan& plan,
    const std::vector<double>& shard_demand, int workers_per_shard) {
  const std::size_t n = shard_demand.size();
  DS_REQUIRE(n > 0, "split_plan over zero shards");
  const std::size_t n_stages = plan.workers.size();

  std::vector<engine::AllocationPlan> plans(n, plan);
  for (auto& p : plans) p.workers.assign(n_stages, 0);

  // Demand shares; a demand-free cluster (first tick) splits evenly.
  std::vector<double> w = shard_demand;
  double total = 0.0;
  for (double x : w) total += x;
  if (total <= 0.0) {
    w.assign(n, 1.0);
    total = static_cast<double>(n);
  }
  std::vector<int> capacity(n, workers_per_shard);

  // Deepest stage first: the scarce downstream pools get apportioned
  // before entry pools eat shard capacity.
  for (std::size_t s = n_stages; s-- > 0;) {
    const int x = plan.workers[s];
    if (x <= 0) continue;
    std::vector<int> give(n, 0);
    std::vector<double> frac(n, 0.0);
    int assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double target = static_cast<double>(x) * w[i] / total;
      const double fl = std::floor(target + 1e-9);
      give[i] = std::min(static_cast<int>(fl), capacity[i]);
      frac[i] = target - fl;
      assigned += give[i];
    }
    // Largest-remainder distribution of the leftovers, ties and repeat
    // passes resolved by shard index — fully deterministic.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (frac[a] != frac[b]) return frac[a] > frac[b];
      return a < b;
    });
    int rem = x - assigned;
    while (rem > 0) {
      bool progress = false;
      for (const std::size_t i : order) {
        if (rem == 0) break;
        if (give[i] < capacity[i]) {
          ++give[i];
          --rem;
          progress = true;
        }
      }
      if (!progress) break;  // cluster at capacity; surplus workers unplaced
    }
    for (std::size_t i = 0; i < n; ++i) {
      plans[i].workers[s] = give[i];
      capacity[i] -= give[i];
    }
  }
  return plans;
}

}  // namespace diffserve::cluster
