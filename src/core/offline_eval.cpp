#include "core/offline_eval.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/streaming.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace diffserve::core {

const char* to_string(RoutingSignal s) {
  switch (s) {
    case RoutingSignal::kDiscriminator: return "Discriminator";
    case RoutingSignal::kRandom: return "Random";
    case RoutingSignal::kPickScore: return "PickScore";
    case RoutingSignal::kClipScore: return "ClipScore";
    case RoutingSignal::kOracle: return "Oracle";
  }
  return "?";
}

namespace {

// Per-query routing scores: queries with the LOWEST score are deferred
// first (low score == low estimated quality of the light output).
std::vector<double> routing_scores(const CascadeEnvironment& env,
                                   RoutingSignal signal, std::size_t n) {
  const auto& w = env.workload();
  const int light = env.stage_tier(0);
  const int heavy = env.stage_tier(env.stage_count() - 1);
  std::vector<double> s(n);
  for (quality::QueryId q = 0; q < n; ++q) {
    switch (signal) {
      case RoutingSignal::kDiscriminator:
        s[q] = env.disc(0).confidence(w.generated_feature(q, light));
        break;
      case RoutingSignal::kPickScore:
        s[q] = w.pickscore(q, light);
        break;
      case RoutingSignal::kClipScore:
        s[q] = w.clipscore(q, light);
        break;
      case RoutingSignal::kOracle:
        // Defer where heavy most improves on light: score = -(gap).
        s[q] = -(w.true_error(q, light) - w.true_error(q, heavy));
        break;
      case RoutingSignal::kRandom:
        DS_CHECK(false, "random handled separately");
    }
  }
  return s;
}

double pipeline_latency(const CascadeEnvironment& env, double deferral) {
  const auto& repo = env.repository();
  const auto& c = env.cascade();
  const double e_l = repo.model(c.chain.front()).latency.execution_latency(1);
  const double e_d =
      repo.model(c.boundary_discriminator(0)).latency.execution_latency(1);
  const double e_h = repo.model(c.chain.back()).latency.execution_latency(1);
  return e_l + e_d + deferral * e_h;
}

double served_fid(const CascadeEnvironment& env,
                  const std::vector<bool>& deferred, std::size_t n) {
  const int light = env.stage_tier(0);
  const int heavy = env.stage_tier(env.stage_count() - 1);
  linalg::GaussianAccumulator acc(env.workload().config().feature_dim);
  for (quality::QueryId q = 0; q < n; ++q)
    acc.add(env.workload().generated_feature(q, deferred[q] ? heavy : light));
  return env.scorer().fid(acc.stats());
}

}  // namespace

std::vector<CascadePoint> sweep_cascade(const CascadeEnvironment& env,
                                        RoutingSignal signal,
                                        const SweepOptions& opts) {
  DS_REQUIRE(opts.points >= 2, "sweep needs at least two points");
  const std::size_t n = opts.eval_queries == 0
                            ? env.workload().size()
                            : std::min(opts.eval_queries,
                                       env.workload().size());

  std::vector<CascadePoint> out;
  out.reserve(opts.points);

  if (signal == RoutingSignal::kRandom) {
    util::Rng rng(opts.seed);
    for (std::size_t i = 0; i < opts.points; ++i) {
      const double p = static_cast<double>(i) /
                       static_cast<double>(opts.points - 1);
      stats::RunningStats fid_stats;
      double deferral_sum = 0.0;
      for (std::size_t rep = 0; rep < opts.random_repeats; ++rep) {
        std::vector<bool> deferred(n, false);
        std::size_t n_deferred = 0;
        for (std::size_t q = 0; q < n; ++q) {
          deferred[q] = rng.bernoulli(p);
          n_deferred += deferred[q] ? 1 : 0;
        }
        fid_stats.add(served_fid(env, deferred, n));
        deferral_sum += static_cast<double>(n_deferred) /
                        static_cast<double>(n);
      }
      const double actual =
          deferral_sum / static_cast<double>(opts.random_repeats);
      out.push_back({p, actual, fid_stats.mean(), pipeline_latency(env, actual),
                     fid_stats.stddev()});
    }
    return out;
  }

  // Signal-based: deferring the p-fraction with the lowest scores.
  const auto scores = routing_scores(env, signal, n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });

  for (std::size_t i = 0; i < opts.points; ++i) {
    const double p =
        static_cast<double>(i) / static_cast<double>(opts.points - 1);
    const auto k = static_cast<std::size_t>(
        std::llround(p * static_cast<double>(n)));
    std::vector<bool> deferred(n, false);
    for (std::size_t j = 0; j < k; ++j) deferred[order[j]] = true;
    const double actual = static_cast<double>(k) / static_cast<double>(n);
    out.push_back({p, actual, served_fid(env, deferred, n),
                   pipeline_latency(env, actual), 0.0});
  }
  return out;
}

std::vector<SingleModelPoint> single_model_points(
    const CascadeEnvironment& env,
    const std::vector<std::string>& model_names) {
  std::vector<SingleModelPoint> out;
  for (const auto& name : model_names) {
    const auto& m = env.repository().model(name);
    DS_REQUIRE(m.kind == models::ModelKind::kDiffusion,
               "single-model points need diffusion models");
    out.push_back({name, env.scorer().fid_single_tier(m.quality_tier),
                   m.latency.execution_latency(1)});
  }
  return out;
}

std::vector<std::size_t> pareto_front_min_min(
    const std::vector<std::pair<double, double>>& points) {
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (points[a].first != points[b].first)
      return points[a].first < points[b].first;
    return points[a].second < points[b].second;
  });
  std::vector<std::size_t> front;
  double best_y = std::numeric_limits<double>::infinity();
  for (const auto idx : order) {
    if (points[idx].second < best_y - 1e-12) {
      front.push_back(idx);
      best_y = points[idx].second;
    }
  }
  return front;
}

}  // namespace diffserve::core
