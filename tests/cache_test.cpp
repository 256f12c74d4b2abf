// Tests for the approximate prompt-reuse cache: the ApproxCache store
// (tiered hit levels, popularity-weighted LRU eviction, determinism), the
// Zipfian prompt sampler, the reuse-noise quality perturbation, and the
// end-to-end behaviour the subsystem exists for — on a Zipfian trace the
// cache absorbs repeated prompts (hit ratio > 0.2), lowers mean latency
// and SLO violations at equal capacity with a bounded FID cost, agrees
// across the DES and threaded backends, and feeds the controller's
// effective-demand discount.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "cache/approx_cache.hpp"
#include "engine/query.hpp"
#include "util/rng.hpp"
#include "control/exhaustive_allocator.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "runtime/threaded_runtime.hpp"
#include "serving/system.hpp"
#include "trace/prompt_mix.hpp"

namespace diffserve::cache {
namespace {

std::vector<double> key_at(double x) { return {x, 0.0, 0.0}; }

CacheConfig small_config() {
  CacheConfig cfg;
  cfg.enabled = true;
  cfg.capacity = 4;
  cfg.exact_distance = 1e-9;
  cfg.near_distance = 1.0;
  cfg.far_distance = 2.0;
  return cfg;
}

TEST(ApproxCache, TieredHitLevelsByDistance) {
  ApproxCache cache(small_config());
  cache.insert(/*prompt=*/7, /*tier=*/2, /*stage=*/0, key_at(0.0), 0.0);

  const auto exact = cache.lookup(key_at(0.0), 1.0);
  EXPECT_EQ(exact.level, HitLevel::kExact);
  EXPECT_EQ(exact.donor_prompt, 7u);
  EXPECT_EQ(exact.donor_tier, 2);
  EXPECT_EQ(exact.step_fraction, 0.0);

  const auto near = cache.lookup(key_at(0.5), 2.0);
  EXPECT_EQ(near.level, HitLevel::kApproxNear);
  EXPECT_NEAR(near.distance, 0.5, 1e-12);
  EXPECT_EQ(near.step_fraction, cache.config().near_step_fraction);

  const auto far = cache.lookup(key_at(1.5), 3.0);
  EXPECT_EQ(far.level, HitLevel::kApproxFar);
  EXPECT_EQ(far.step_fraction, cache.config().far_step_fraction);

  const auto miss = cache.lookup(key_at(5.0), 4.0);
  EXPECT_EQ(miss.level, HitLevel::kMiss);
  EXPECT_EQ(miss.step_fraction, 1.0);

  const auto& s = cache.stats();
  EXPECT_EQ(s.lookups, 4u);
  EXPECT_EQ(s.exact_hits, 1u);
  EXPECT_EQ(s.near_hits, 1u);
  EXPECT_EQ(s.far_hits, 1u);
  EXPECT_NEAR(s.hit_ratio(), 0.75, 1e-12);
  EXPECT_NEAR(s.exact_hit_ratio(), 0.25, 1e-12);
}

TEST(ApproxCache, CapacityBoundWithEviction) {
  ApproxCache cache(small_config());
  for (int i = 0; i < 6; ++i)
    cache.insert(static_cast<quality::QueryId>(i), 1, 0,
                 key_at(10.0 * i), static_cast<double>(i));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ApproxCache, PopularEntriesSurviveEviction) {
  CacheConfig cfg = small_config();
  cfg.popularity_weight = 100.0;  // popularity dominates recency
  ApproxCache cache(cfg);
  cache.insert(0, 1, 0, key_at(0.0), 0.0);
  // Make entry 0 popular, then flood the cache with one-off entries.
  for (int i = 0; i < 8; ++i) cache.lookup(key_at(0.0), 1.0 + i);
  for (int i = 1; i < 8; ++i)
    cache.insert(static_cast<quality::QueryId>(i), 1, 0,
                 key_at(10.0 * i), 20.0 + i);
  // The popular entry outlived the LRU churn.
  const auto r = cache.lookup(key_at(0.0), 100.0);
  EXPECT_EQ(r.level, HitLevel::kExact);
  EXPECT_EQ(r.donor_prompt, 0u);
}

TEST(ApproxCache, ReinsertKeepsHigherTier) {
  ApproxCache cache(small_config());
  cache.insert(3, /*tier=*/5, /*stage=*/1, key_at(0.0), 0.0);
  cache.insert(3, /*tier=*/2, /*stage=*/0, key_at(0.0), 1.0);
  EXPECT_EQ(cache.size(), 1u);
  const auto r = cache.lookup(key_at(0.0), 2.0);
  EXPECT_EQ(r.donor_tier, 5);  // the lighter re-serve did not downgrade it
}

TEST(ApproxCache, DeterministicAcrossInstances) {
  // The cache has no internal randomness: two instances fed the same
  // operation sequence report identical stats (the property that keeps
  // DES and threaded runs in agreement).
  ApproxCache a(small_config()), b(small_config());
  for (int i = 0; i < 40; ++i) {
    const double x = (i * 7) % 13 * 0.4;
    a.lookup(key_at(x), i);
    b.lookup(key_at(x), i);
    if (i % 3 == 0) {
      a.insert(static_cast<quality::QueryId>(i), 1, 0, key_at(x), i);
      b.insert(static_cast<quality::QueryId>(i), 1, 0, key_at(x), i);
    }
  }
  EXPECT_EQ(a.stats().lookups, b.stats().lookups);
  EXPECT_EQ(a.stats().exact_hits, b.stats().exact_hits);
  EXPECT_EQ(a.stats().near_hits, b.stats().near_hits);
  EXPECT_EQ(a.stats().far_hits, b.stats().far_hits);
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
  EXPECT_EQ(a.size(), b.size());
}

TEST(ApproxCache, ReinsertRefreshesKey) {
  // A prompt whose style vector drifts must match against its current
  // key; the old refresh updated tier/stage but kept the stale key.
  ApproxCache cache(small_config());
  cache.insert(3, 1, 0, key_at(0.0), 0.0);
  EXPECT_EQ(cache.lookup(key_at(10.0), 1.0).level, HitLevel::kMiss);
  cache.insert(3, 1, 0, key_at(10.0), 2.0);  // refresh under the new key
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(key_at(10.0), 3.0);
  EXPECT_EQ(hit.level, HitLevel::kExact);
  EXPECT_EQ(hit.donor_prompt, 3u);
  EXPECT_EQ(cache.lookup(key_at(0.0), 4.0).level, HitLevel::kMiss);
}

TEST(ApproxCache, InterpolatedStepFractionFollowsDistanceAnchors) {
  CacheConfig cfg = small_config();
  cfg.exact_distance = 0.0;
  cfg.near_distance = 1.0;
  cfg.far_distance = 2.0;
  cfg.near_step_fraction = 0.4;
  cfg.far_step_fraction = 0.8;
  cfg.min_step_fraction = 0.05;
  cfg.interpolate_step_fraction = true;
  ApproxCache cache(cfg);
  // The tier constants are the anchors...
  EXPECT_NEAR(cache.approx_step_fraction(1.0), 0.4, 1e-12);
  EXPECT_NEAR(cache.approx_step_fraction(2.0), 0.8, 1e-12);
  // ...with linear segments between them and the min-fraction floor.
  EXPECT_NEAR(cache.approx_step_fraction(0.5), 0.05 + 0.5 * 0.35, 1e-12);
  EXPECT_NEAR(cache.approx_step_fraction(1.5), 0.6, 1e-12);
  EXPECT_NEAR(cache.approx_step_fraction(0.0), 0.05, 1e-12);
  // A lookup carries the interpolated fraction.
  cache.insert(1, 1, 0, key_at(0.0), 0.0);
  const auto r = cache.lookup(key_at(1.5), 1.0);
  EXPECT_EQ(r.level, HitLevel::kApproxFar);
  EXPECT_NEAR(r.step_fraction, 0.6, 1e-12);
  // Interpolation off: the same distances collapse to the constants.
  cfg.interpolate_step_fraction = false;
  ApproxCache tiered(cfg);
  EXPECT_EQ(tiered.approx_step_fraction(0.5), 0.4);
  EXPECT_EQ(tiered.approx_step_fraction(1.5), 0.8);
}

TEST(ApproxCache, LatentOnlyEntriesResumeInsteadOfServing) {
  CacheConfig cfg = small_config();
  cfg.latent_levels = true;
  ApproxCache cache(cfg);
  // A latent recorded at stage 1 without a terminal image: even an
  // exact-distance match cannot be served as-is — it resumes.
  cache.insert_latent(5, /*tier=*/2, /*stage=*/1, key_at(0.0), 0.0);
  auto r = cache.lookup(key_at(0.0), 1.0);
  EXPECT_EQ(r.level, HitLevel::kApproxNear);
  EXPECT_EQ(r.donor_prompt, 5u);
  EXPECT_EQ(r.donor_tier, 2);
  EXPECT_EQ(r.donor_stage, 1);
  EXPECT_EQ(r.level_mask, 0b10u);
  EXPECT_EQ(r.step_fraction, cache.config().near_step_fraction);
  EXPECT_EQ(cache.stats().latent_insertions, 1u);

  // The terminal image arrives later (the donor finished the chain at a
  // deeper stage): the entry upgrades to exact-servable and the level
  // mask covers both stages.
  cache.insert(5, /*tier=*/5, /*stage=*/2, key_at(0.0), 2.0);
  EXPECT_EQ(cache.size(), 1u);
  r = cache.lookup(key_at(0.0), 3.0);
  EXPECT_EQ(r.level, HitLevel::kExact);
  EXPECT_EQ(r.donor_tier, 5);
  EXPECT_EQ(r.level_mask, 0b110u);

  // A shallower latent joins the set without disturbing the deepest.
  cache.insert_latent(5, /*tier=*/1, /*stage=*/0, key_at(0.0), 4.0);
  r = cache.lookup(key_at(0.5), 5.0);  // approx: mask drives resumption
  EXPECT_EQ(r.level, HitLevel::kApproxNear);
  EXPECT_EQ(r.level_mask, 0b111u);
}

TEST(ApproxCache, StatsWeightStepFractionByStageCoverage) {
  // The controller's service-time discount consumes the stats sums; with
  // latent levels a donor covering only stage 0 of a 2-stage chain saves
  // steps at half the chain, so the recorded fraction is the coverage
  // blend (f + 1)/2, not the raw per-stage fraction.
  CacheConfig cfg = small_config();
  cfg.latent_levels = true;
  cfg.chain_stages = 2;
  ApproxCache cache(cfg);
  cache.insert_latent(5, /*tier=*/1, /*stage=*/0, key_at(0.0), 0.0);
  const auto r = cache.lookup(key_at(0.5), 1.0);
  ASSERT_EQ(r.level, HitLevel::kApproxNear);
  // The query-facing fraction stays per-stage...
  EXPECT_EQ(r.step_fraction, cfg.near_step_fraction);
  // ...the controller-facing sum is coverage-weighted.
  EXPECT_NEAR(cache.stats().near_step_fraction_sum,
              (cfg.near_step_fraction + 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(cache.stats().step_fraction_sum,
              (cfg.near_step_fraction + 1.0) / 2.0, 1e-12);
}

TEST(Query, StepFractionAtRespectsLevelMask) {
  engine::Query q;
  q.cache_step_fraction = 0.3;
  // Default all-ones mask: the fraction applies chain-wide.
  EXPECT_EQ(q.step_fraction_at(0), 0.3);
  EXPECT_EQ(q.step_fraction_at(2), 0.3);
  // With latent levels the donor only reached stages 0 and 1.
  q.cache_level_mask = 0b011u;
  EXPECT_EQ(q.step_fraction_at(0), 0.3);
  EXPECT_EQ(q.step_fraction_at(1), 0.3);
  EXPECT_EQ(q.step_fraction_at(2), 1.0);
}

TEST(ApproxCache, RejectsBadConfig) {
  CacheConfig cfg = small_config();
  cfg.capacity = 0;
  EXPECT_THROW(ApproxCache{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.near_distance = 3.0;  // near > far
  EXPECT_THROW(ApproxCache{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.near_step_fraction = 0.0;
  EXPECT_THROW(ApproxCache{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.interpolate_step_fraction = true;
  cfg.min_step_fraction = 0.6;  // inverted anchors: closer costs more
  cfg.near_step_fraction = 0.4;
  EXPECT_THROW(ApproxCache{cfg}, std::invalid_argument);
  cfg.interpolate_step_fraction = false;  // dead knob when tiered
  EXPECT_NO_THROW(ApproxCache{cfg});
}

// ---- equivalence pinning --------------------------------------------------

/// Independent reimplementation of the PR-3 terminal-image cache — linear
/// scan, tiered constant step fractions, LRU+popularity eviction — plus
/// the intended key-refresh fix on re-insert. Pins the interpolation-off
/// mode of the real cache: with interpolation, latent levels, and the
/// index all disabled, ApproxCache must reproduce this reference exactly,
/// operation for operation.
struct Pr3ReferenceCache {
  struct Entry {
    quality::QueryId prompt;
    int tier, stage;
    std::vector<double> key;
    std::uint64_t hits = 0;
    double last_used = 0.0;
    std::uint64_t order = 0;
  };
  const ApproxCache& metric;  // borrow distance() so both measure alike
  CacheConfig cfg;
  std::vector<Entry> entries;
  std::uint64_t next_order = 0;
  std::uint64_t evictions = 0;

  LookupResult lookup(const std::vector<double>& key, double now) {
    Entry* best = nullptr;
    double best_d = std::numeric_limits<double>::infinity();
    for (auto& e : entries) {
      const double d = metric.distance(e.key, key);
      if (d < best_d) {
        best_d = d;
        best = &e;
      }
    }
    LookupResult r;
    if (best != nullptr && best_d <= cfg.far_distance) {
      if (best_d <= cfg.exact_distance) {
        r.level = HitLevel::kExact;
        r.step_fraction = 0.0;
      } else if (best_d <= cfg.near_distance) {
        r.level = HitLevel::kApproxNear;
        r.step_fraction = cfg.near_step_fraction;
      } else {
        r.level = HitLevel::kApproxFar;
        r.step_fraction = cfg.far_step_fraction;
      }
      r.donor_prompt = best->prompt;
      r.donor_tier = best->tier;
      r.donor_stage = best->stage;
      r.distance = best_d;
      ++best->hits;
      best->last_used = now;
    }
    return r;
  }

  void insert(quality::QueryId prompt, int tier, int stage,
              const std::vector<double>& key, double now) {
    for (auto& e : entries) {
      if (e.prompt == prompt) {
        if (tier >= e.tier) {
          e.tier = tier;
          e.stage = stage;
        }
        e.key = key;  // the key-refresh fix
        e.last_used = now;
        return;
      }
    }
    if (entries.size() >= cfg.capacity) {
      std::size_t victim = 0;
      double victim_score = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const double s =
            entries[i].last_used +
            cfg.popularity_weight *
                std::log1p(static_cast<double>(entries[i].hits));
        if (s < victim_score ||
            (s == victim_score && entries[i].order < entries[victim].order)) {
          victim_score = s;
          victim = i;
        }
      }
      entries[victim] = entries.back();
      entries.pop_back();
      ++evictions;
    }
    Entry e;
    e.prompt = prompt;
    e.tier = tier;
    e.stage = stage;
    e.key = key;
    e.last_used = now;
    e.order = next_order++;
    entries.push_back(std::move(e));
  }
};

TEST(ApproxCache, InterpolationOffModePinsPr3TieredBehavior) {
  // Randomized op sequences against the reference: every lookup result
  // and the eviction trajectory must agree exactly, across seeds.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    CacheConfig cfg;
    cfg.enabled = true;
    cfg.capacity = 12;
    cfg.exact_distance = 1e-9;
    cfg.near_distance = 1.0;
    cfg.far_distance = 2.0;
    cfg.index_kind = IndexKind::kScan;  // interpolation-off reference mode
    ApproxCache cache(cfg);
    Pr3ReferenceCache ref{cache, cfg, {}, 0, 0};

    util::Rng rng(seed * 7919 + 11);
    for (int op = 0; op < 300; ++op) {
      const double now = static_cast<double>(op);
      std::vector<double> key(3);
      for (auto& v : key) v = rng.uniform(0.0, 3.0);
      if (rng.bernoulli(0.5)) {
        const auto a = cache.lookup(key, now);
        const auto b = ref.lookup(key, now);
        ASSERT_EQ(a.level, b.level) << "seed " << seed << " op " << op;
        ASSERT_EQ(a.donor_prompt, b.donor_prompt);
        ASSERT_EQ(a.donor_tier, b.donor_tier);
        ASSERT_EQ(a.donor_stage, b.donor_stage);
        ASSERT_EQ(a.distance, b.distance);
        ASSERT_EQ(a.step_fraction, b.step_fraction);
      } else {
        // A small id pool exercises refresh; fresh ids exercise eviction.
        const auto prompt = static_cast<quality::QueryId>(
            rng.bernoulli(0.4) ? rng.uniform_int(0, 7)
                               : 100 + op);
        const int tier = static_cast<int>(rng.uniform_int(1, 5));
        const int stage = static_cast<int>(rng.uniform_int(0, 2));
        cache.insert(prompt, tier, stage, key, now);
        ref.insert(prompt, tier, stage, key, now);
      }
      ASSERT_EQ(cache.size(), ref.entries.size());
      ASSERT_EQ(cache.stats().evictions, ref.evictions);
    }
  }
}

TEST(ApproxCache, LshIndexMatchesScanAcross50Seeds) {
  // Eviction determinism of the indexed cache: on clustered keys (the
  // regime a reuse cache lives in) the LSH-indexed cache and the
  // brute-force scan must produce identical hit and evict sequences —
  // same donors, same distances, same victims — across 50 randomized op
  // sequences. Both backends drive the cache through the same guarded op
  // sequence, so agreement here is agreement there (asserted end-to-end
  // by DesAndThreadedBackendsAgreeWithCacheOn).
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    CacheConfig cfg;
    cfg.enabled = true;
    cfg.capacity = 24;  // small: constant eviction churn
    cfg.exact_distance = 1e-9;
    cfg.near_distance = 1.0;
    cfg.far_distance = 2.0;
    cfg.interpolate_step_fraction = true;
    cfg.latent_levels = true;
    CacheConfig scan_cfg = cfg;
    scan_cfg.index_kind = IndexKind::kScan;
    CacheConfig lsh_cfg = cfg;
    lsh_cfg.index_kind = IndexKind::kLsh;
    ApproxCache scan(scan_cfg), lsh(lsh_cfg);

    util::Rng rng(seed * 977 + 3);
    std::vector<double> key(6);
    for (int op = 0; op < 400; ++op) {
      const double now = static_cast<double>(op);
      // Clustered keys: 27 well-separated centers, tiny within-cluster
      // jitter — in-cluster neighbours are near-duplicates, cross-cluster
      // distances are far beyond the hit radius.
      const auto c = static_cast<std::uint32_t>(rng.uniform_int(0, 26));
      key[0] = 6.0 * static_cast<double>(c % 3);
      key[1] = 6.0 * static_cast<double>((c / 3) % 3);
      key[2] = 6.0 * static_cast<double>((c / 9) % 3);
      key[3] = key[4] = key[5] = 0.0;
      for (auto& v : key) v += rng.uniform(-0.03, 0.03);

      if (rng.bernoulli(0.45)) {
        const auto a = scan.lookup(key, now);
        const auto b = lsh.lookup(key, now);
        ASSERT_EQ(a.level, b.level) << "seed " << seed << " op " << op;
        ASSERT_EQ(a.donor_prompt, b.donor_prompt);
        ASSERT_EQ(a.distance, b.distance);
        ASSERT_EQ(a.step_fraction, b.step_fraction);
        ASSERT_EQ(a.level_mask, b.level_mask);
      } else {
        // Prompt ids cluster too, so re-inserts exercise the key-refresh
        // rebucketing path of the index.
        const auto prompt =
            static_cast<quality::QueryId>(c * 8 + rng.uniform_int(0, 5));
        const int tier = static_cast<int>(rng.uniform_int(1, 5));
        const int stage = static_cast<int>(rng.uniform_int(0, 2));
        if (rng.bernoulli(0.3)) {
          scan.insert_latent(prompt, tier, stage, key, now);
          lsh.insert_latent(prompt, tier, stage, key, now);
        } else {
          scan.insert(prompt, tier, stage, key, now);
          lsh.insert(prompt, tier, stage, key, now);
        }
      }
      ASSERT_EQ(scan.size(), lsh.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(scan.stats().evictions, lsh.stats().evictions);
      ASSERT_EQ(scan.stats().exact_hits, lsh.stats().exact_hits);
      ASSERT_EQ(scan.stats().near_hits, lsh.stats().near_hits);
      ASSERT_EQ(scan.stats().far_hits, lsh.stats().far_hits);
    }
    ASSERT_TRUE(lsh.indexed());
    ASSERT_FALSE(scan.indexed());
  }
}

TEST(ApproxCache, HeapEvictionMatchesScanAcross50Seeds) {
  // The lazy heap must evict byte-identically to the reference scan:
  // same victim, same order, on every eviction. The op mix is
  // hit-bump-heavy — repeated lookups of hot keys pile stale
  // (score, version) pairs onto the heap, the exact state lazy popping
  // and compaction must see through. popularity_weight sweeps from pure
  // LRU to popularity-dominated so ties and score inversions both occur.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    CacheConfig cfg;
    cfg.enabled = true;
    cfg.capacity = 16;  // small: constant eviction churn
    cfg.near_distance = 1.0;
    cfg.far_distance = 2.0;
    cfg.popularity_weight = (seed % 3 == 0) ? 0.0 : (seed % 3 == 1 ? 5.0 : 100.0);
    cfg.index_kind = IndexKind::kScan;  // isolate the eviction path
    CacheConfig heap_cfg = cfg;
    heap_cfg.eviction_kind = EvictionKind::kHeap;
    CacheConfig scan_cfg = cfg;
    scan_cfg.eviction_kind = EvictionKind::kScan;
    ApproxCache heap(heap_cfg), scan(scan_cfg);

    util::Rng rng(seed * 6151 + 17);
    std::vector<double> hot = {0.0, 0.0, 0.0};
    for (int op = 0; op < 400; ++op) {
      // Coarse timestamps produce frequent exact score ties (resolved by
      // insertion order, which the heap must reproduce).
      const double now = static_cast<double>(op / 4);
      std::vector<double> key(3);
      for (auto& v : key) v = rng.uniform(0.0, 4.0);
      const double r = rng.uniform();
      if (r < 0.45) {
        // Hit-bump: probe near a hot key so the same few entries keep
        // re-scoring (each bump staling its previous heap pair).
        const auto& probe_key = rng.bernoulli(0.7) ? hot : key;
        const auto a = heap.lookup(probe_key, now);
        const auto b = scan.lookup(probe_key, now);
        ASSERT_EQ(a.level, b.level) << "seed " << seed << " op " << op;
        ASSERT_EQ(a.donor_prompt, b.donor_prompt);
        ASSERT_EQ(a.distance, b.distance);
      } else {
        const auto prompt = static_cast<quality::QueryId>(
            rng.bernoulli(0.3) ? rng.uniform_int(0, 9) : 100 + op);
        const int tier = static_cast<int>(rng.uniform_int(1, 5));
        heap.insert(prompt, tier, 0, key, now);
        scan.insert(prompt, tier, 0, key, now);
        if (rng.bernoulli(0.1)) hot = key;
      }
      // Identical entry vectors after every op pin the victim sequence:
      // a single divergent eviction would leave different prompts (or a
      // different swap-remove order) behind.
      ASSERT_EQ(heap.cached_prompts(), scan.cached_prompts())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(heap.stats().evictions, scan.stats().evictions);
    }
    EXPECT_GT(heap.stats().evictions, 100u);  // the mix really churned
    // The bump-heavy mix forced lazy maintenance, not just clean pops.
    EXPECT_GT(heap.stats().heap_stale_pops + heap.stats().heap_compactions,
              0u);
    EXPECT_EQ(scan.stats().heap_stale_pops, 0u);
  }
}

TEST(ApproxCache, HeapEvictionInsertPathBeatsScanWhenFull) {
  // The microbenchmark claim behind the lazy heap: on a full cache every
  // insert evicts, the scan pays O(N) per victim and the heap O(log N).
  // 512 displacing inserts against 8192 entries is a >1000x gap in
  // score evaluations, so even noisy CI machines clear the 2x bar.
  const std::size_t cap = 8192, churn = 512;
  CacheConfig cfg;
  cfg.enabled = true;
  cfg.capacity = cap;
  cfg.index_kind = IndexKind::kScan;  // isolate eviction from LSH upkeep
  CacheConfig scan_cfg = cfg;
  scan_cfg.eviction_kind = EvictionKind::kScan;
  ApproxCache heap(cfg), scan(scan_cfg);
  ASSERT_EQ(cfg.eviction_kind, EvictionKind::kHeap);  // the default

  util::Rng rng(5);
  std::vector<double> key(4);
  double t = 0.0;
  for (std::size_t i = 0; i < cap; ++i) {
    for (auto& v : key) v = rng.normal();
    heap.insert(static_cast<quality::QueryId>(i), 1, 0, key, t += 1.0);
    scan.insert(static_cast<quality::QueryId>(i), 1, 0, key, t);
  }
  std::vector<std::vector<double>> fresh(churn, std::vector<double>(4));
  for (auto& k : fresh)
    for (auto& v : k) v = rng.normal();
  auto displace = [&](ApproxCache& c) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < churn; ++i)
      c.insert(static_cast<quality::QueryId>(cap + i), 1, 0, fresh[i],
               t + static_cast<double>(i));
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
  };
  const double scan_s = displace(scan);
  const double heap_s = displace(heap);
  EXPECT_EQ(heap.stats().evictions, churn);
  EXPECT_EQ(scan.stats().evictions, churn);
  EXPECT_EQ(heap.cached_prompts(), scan.cached_prompts());
  EXPECT_LT(2.0 * heap_s, scan_s)
      << "heap " << heap_s << " s vs scan " << scan_s << " s";
}

TEST(ApproxCache, AdaptiveProbingRecoversFarEdgeRecall) {
  // A sparse population (typical nearest neighbour beyond far_distance)
  // probed near the far edge of the hit radius. Adaptive probing must
  // find nearly every far-edge donor the exact scan finds.
  // Deterministic: fixed seeds, fixed config.
  const std::size_t entries = 20000, dim = 6;
  CacheConfig scan_cfg;
  scan_cfg.enabled = true;
  scan_cfg.capacity = entries;
  scan_cfg.index_kind = IndexKind::kScan;
  CacheConfig adaptive_cfg = scan_cfg;
  adaptive_cfg.index_kind = IndexKind::kLsh;
  ApproxCache scan(scan_cfg), adaptive(adaptive_cfg);

  util::Rng rng(31);
  std::vector<std::vector<double>> keys(entries, std::vector<double>(dim));
  double t = 0.0;
  for (std::size_t i = 0; i < entries; ++i) {
    for (auto& v : keys[i]) v = rng.normal(0.0, 4.0);  // sparse spread
    scan.insert(static_cast<quality::QueryId>(i), 1, 0, keys[i], t += 1.0);
    adaptive.insert(static_cast<quality::QueryId>(i), 1, 0, keys[i], t);
  }
  int scan_hits = 0, adaptive_hits = 0;
  for (int i = 0; i < 150; ++i) {
    // Probes planted at 95% of the far radius from a cached donor.
    const auto& donor = keys[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(entries) - 1))];
    std::vector<double> dir(dim);
    double norm_sq = 0.0;
    for (auto& v : dir) {
      v = rng.normal();
      norm_sq += v * v;
    }
    auto p = donor;
    const double d = 0.95 * scan_cfg.far_distance;
    for (std::size_t j = 0; j < dim; ++j)
      p[j] += dir[j] * d / std::sqrt(norm_sq);
    if (scan.lookup(p, t += 1.0).level != HitLevel::kMiss) ++scan_hits;
    if (adaptive.lookup(p, t).level != HitLevel::kMiss) ++adaptive_hits;
  }
  ASSERT_GT(scan_hits, 100);  // the planted donors are in radius
  // Adaptive probing holds >= 90% of the exact scan's far-edge recall.
  EXPECT_GE(10 * adaptive_hits, 9 * scan_hits)
      << adaptive_hits << " of " << scan_hits;
  // Probe-depth accounting: adaptive lookups fanned out past the home
  // cell of each table (sparse buckets expand the yield-tuned budget) and
  // the counters expose it.
  EXPECT_GT(adaptive.stats().mean_probed_cells(),
            static_cast<double>(kLshTables));
  EXPECT_GT(adaptive.stats().lsh_probe_candidates, 0u);
}

// ---- prompt popularity sampler --------------------------------------------

TEST(PromptSampler, RoundRobinMatchesModuloCycling) {
  trace::PromptSampler s(5);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(s.next(), i % 5);
}

TEST(PromptSampler, ZipfSkewsTowardPopularPrompts) {
  trace::PromptMixConfig cfg;
  cfg.kind = trace::PromptMixConfig::Kind::kZipf;
  cfg.zipf_exponent = 1.2;
  cfg.locality = 0.0;
  trace::PromptSampler s(200, cfg);
  std::size_t top10 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (s.next() < 10) ++top10;
  // Under uniform sampling the top-10 share would be 5%; Zipf(1.2)
  // concentrates well over a third of the mass there.
  EXPECT_GT(static_cast<double>(top10) / n, 0.35);
}

TEST(PromptSampler, DeterministicPerSeed) {
  trace::PromptMixConfig cfg;
  cfg.kind = trace::PromptMixConfig::Kind::kZipf;
  trace::PromptSampler a(100, cfg), b(100, cfg);
  cfg.seed += 1;
  trace::PromptSampler c(100, cfg);
  bool any_diff = false;
  for (int i = 0; i < 200; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    any_diff = any_diff || va != c.next();
  }
  EXPECT_TRUE(any_diff);
}

TEST(PromptSampler, LocalityIncreasesShortRangeRepeats) {
  auto repeat_fraction = [](double locality) {
    trace::PromptMixConfig cfg;
    cfg.kind = trace::PromptMixConfig::Kind::kZipf;
    cfg.zipf_exponent = 0.6;  // mild skew so repeats come from locality
    cfg.locality = locality;
    cfg.locality_window = 16;
    trace::PromptSampler s(2000, cfg);
    std::deque<std::uint32_t> window;
    int repeats = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
      const auto id = s.next();
      for (const auto w : window)
        if (w == id) {
          ++repeats;
          break;
        }
      window.push_back(id);
      if (window.size() > 16) window.pop_front();
    }
    return static_cast<double>(repeats) / n;
  };
  EXPECT_GT(repeat_fraction(0.5), repeat_fraction(0.0) + 0.2);
}

// ---- reuse-noise quality perturbation -------------------------------------

TEST(Workload, CachedFeatureInheritsDonorPlusDistanceNoise) {
  quality::Workload w(64);
  const auto donor = w.generated_feature(3, 2);
  // Zero distance: the donor's image verbatim.
  EXPECT_EQ(w.cached_feature(9, 3, 2, 0.0), donor);
  // Deterministic per (q, donor, tier, distance).
  EXPECT_EQ(w.cached_feature(9, 3, 2, 1.0), w.cached_feature(9, 3, 2, 1.0));
  // Noise grows with distance.
  auto err = [&](double dist) {
    const auto x = w.cached_feature(9, 3, 2, dist);
    double sq = 0.0;
    for (std::size_t d = 0; d < x.size(); ++d)
      sq += (x[d] - donor[d]) * (x[d] - donor[d]);
    return std::sqrt(sq);
  };
  EXPECT_GT(err(0.5), 0.0);
  EXPECT_GT(err(4.0), err(0.5));
}

// ---- end-to-end: the cache as part of the serving stack -------------------

const core::CascadeEnvironment& shared_env() {
  static const core::CascadeEnvironment env = [] {
    core::EnvironmentConfig cfg;
    cfg.workload_queries = 600;
    cfg.discriminator.train_queries = 400;
    cfg.profile_queries = 400;
    return core::CascadeEnvironment(cfg);
  }();
  return env;
}

trace::PromptMixConfig zipf_mix() {
  trace::PromptMixConfig mix;
  mix.kind = trace::PromptMixConfig::Kind::kZipf;
  mix.zipf_exponent = 1.1;
  mix.locality = 0.3;
  return mix;
}

CacheConfig serving_cache() {
  // The full feature set: interpolated fractions, latent levels, and the
  // LSH index (forced on despite the small capacity so the end-to-end
  // suites cover the indexed lookup path on both backends).
  CacheConfig cfg;
  cfg.enabled = true;
  cfg.capacity = 128;
  cfg.interpolate_step_fraction = true;
  cfg.latent_levels = true;
  cfg.index_kind = IndexKind::kLsh;
  return cfg;
}

core::RunConfig zipf_run(const trace::RateTrace& tr) {
  core::RunConfig rc;
  rc.approach = core::Approach::kDiffServeExhaustive;
  rc.total_workers = 6;
  rc.trace = tr;
  rc.controller.initial_demand_guess = tr.qps_at(0.0);
  rc.system.prompt_mix = zipf_mix();
  return rc;
}

TEST(CacheServing, ZipfTraceHitsAndImprovesLatencyAndSlo) {
  const auto tr = trace::RateTrace::constant(10.0, 120.0);
  const auto off = core::run_experiment(shared_env(), zipf_run(tr));

  auto on_cfg = zipf_run(tr);
  on_cfg.system.cache = serving_cache();
  const auto on = core::run_experiment(shared_env(), on_cfg);

  // The repetition in the Zipfian trace is reused, not recomputed.
  EXPECT_GT(on.cache.hit_ratio(), 0.2);
  EXPECT_GT(on.cache.exact_hit_ratio(), 0.0);
  EXPECT_EQ(off.cache.hit_ratio(), 0.0);

  // Equal capacity, identical arrivals: reuse buys latency and SLO.
  EXPECT_EQ(on.submitted, off.submitted);
  EXPECT_LT(on.mean_latency, off.mean_latency);
  EXPECT_LE(on.violation_ratio, off.violation_ratio);

  // Query conservation through the new cache terminal paths: after the
  // DES drains, every admitted query reached exactly one terminal
  // outcome — a double-completed exact hit or a completion lost behind a
  // pending hit_latency timer would break the equality.
  EXPECT_EQ(on.completed + on.dropped, on.submitted);

  // Reuse error is bounded: FID moves, but stays in the same band.
  ASSERT_GT(off.overall_fid, 0.0);
  ASSERT_GT(on.overall_fid, 0.0);
  EXPECT_LT(std::fabs(on.overall_fid - off.overall_fid),
            0.35 * off.overall_fid);
}

TEST(CacheServing, ControllerDiscountsDemandByExactHits) {
  const auto tr = trace::RateTrace::constant(10.0, 100.0);
  auto rc = zipf_run(tr);
  rc.system.cache = serving_cache();
  const auto r = core::run_experiment(shared_env(), rc);

  ASSERT_FALSE(r.control_history.empty());
  const auto& last = r.control_history.back();
  // The online EWMA saw the hits and the allocator planned for the
  // discounted effective demand.
  EXPECT_GT(last.cache_exact_hit_ratio, 0.05);
  EXPECT_LE(last.cache_service_discount, 1.0);
  EXPECT_LT(last.demand_estimate, 10.0);
  // The discount is estimated per hit level: the split EWMAs saw the
  // near/far mix of the non-exact traffic.
  EXPECT_GT(last.cache_near_hit_ratio + last.cache_far_hit_ratio, 0.0);
  EXPECT_LT(last.cache_service_discount, 1.0);
}

TEST(CacheServing, ExactHitsServeAtCacheLatency) {
  // Tiny workload + round-robin cycling: every prompt repeats every 64
  // queries, so a warm cache serves exact hits at hit_latency.
  core::EnvironmentConfig ec;
  ec.workload_queries = 64;
  ec.discriminator.train_queries = 64;
  ec.profile_queries = 64;
  const core::CascadeEnvironment env(ec);

  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 2;
  cfg.slo_seconds = 10.0;
  cfg.cache = serving_cache();
  serving::ServingSystem system(sim, env.workload(), env.repository(),
                                env.cascade(), env.discs(), env.scorer(),
                                cfg);
  serving::AllocationPlan plan;
  plan.workers[0] = 1;
  plan.workers[1] = 1;
  plan.thresholds[0] = 0.0;  // no deferrals; keep the flow simple
  system.apply(plan);

  std::vector<double> arrivals;
  for (int i = 0; i < 160; ++i) arrivals.push_back(0.5 * i);
  system.inject_arrivals(arrivals);
  sim.run_all();

  const auto stats = system.engine().cache_stats();
  // Second and later cycles hit. Not every repeat is exact: a prompt
  // whose first query approx-hit a neighbour is never inserted (approx
  // results stay out of the cache), so its repeats keep approx-hitting.
  EXPECT_GT(stats.exact_hits, 40u);
  EXPECT_GT(stats.hits(), 80u);
  // Conservation: each arrival terminated exactly once.
  EXPECT_EQ(system.sink().total(), 160u);
  const auto& sink = system.sink();
  EXPECT_GT(sink.hit_level_count(HitLevel::kExact), 0u);
  EXPECT_NEAR(sink.mean_cache_latency(), cfg.cache.hit_latency, 1e-9);
  EXPECT_LT(sink.mean_cache_latency(), sink.mean_latency());
}

TEST(CacheServing, ScaledDropDecisionKeepsHitHeavyBatch) {
  // Regression for the batch drop decision: it must use the cache-scaled
  // execution time. A mixed near-hit/miss batch whose deadline sits
  // between the scaled and the unscaled finish time survives only under
  // scaled timing — the old unscaled check dropped it wholesale.
  core::EnvironmentConfig ec;
  ec.cascade = models::catalog::kSoloHeavy;  // depth 1: no reserve math
  ec.workload_queries = 64;
  ec.discriminator.train_queries = 64;
  ec.profile_queries = 64;
  const core::CascadeEnvironment env(ec);

  // Find a donor-near prompt (the hit) and two donor-far prompts (the
  // batched miss and a filler that keeps the worker busy).
  const auto& donor_style = env.workload().style(0);
  auto l2 = [&](quality::QueryId q) {
    const auto& s = env.workload().style(q);
    double sq = 0.0;
    for (std::size_t d = 0; d < s.size(); ++d)
      sq += (s[d] - donor_style[d]) * (s[d] - donor_style[d]);
    return std::sqrt(sq);
  };
  quality::QueryId near_prompt = 1, far_a = 1, far_b = 1;
  double near_d = std::numeric_limits<double>::infinity();
  double far_d = 0.0, far_d2 = 0.0;
  for (quality::QueryId q = 1; q < 64; ++q) {
    const double d = l2(q);
    if (d < near_d) {
      near_d = d;
      near_prompt = q;
    }
    if (d > far_d) {
      far_d2 = far_d;
      far_b = far_a;
      far_d = d;
      far_a = q;
    } else if (d > far_d2) {
      far_d2 = d;
      far_b = q;
    }
  }
  ASSERT_LT(near_d, far_d2);

  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 1;
  cfg.slo_seconds = 3.5;
  cfg.cache.enabled = true;
  cfg.cache.capacity = 16;
  // Thresholds bracketing the found prompts: the near prompt approx-hits
  // at the tiered near fraction, the far prompts miss.
  cfg.cache.near_distance = near_d + 0.01;
  cfg.cache.far_distance = near_d + 0.01;
  serving::ServingSystem system(sim, env.workload(), env.repository(),
                                env.cascade(), env.discs(), env.scorer(),
                                cfg);
  serving::AllocationPlan plan = serving::AllocationPlan::for_stages(1);
  plan.workers = {1};
  plan.batches = {2};
  system.apply(plan);

  const double exec2 = system.stage_exec_latency(0, 2);
  const double frac = cfg.cache.near_step_fraction;
  // The pair below waits 1.0 s behind the filler; its remaining slack at
  // launch must admit the scaled mixed batch but not the unscaled one.
  ASSERT_GT(exec2, cfg.slo_seconds - 1.0);
  ASSERT_LE((1.0 + frac) / 2.0 * exec2, cfg.slo_seconds - 1.0);

  auto submit = [&](quality::QueryId prompt) {
    engine::Query q;
    q.prompt_id = prompt;
    q.arrival_time = sim.now();
    q.deadline = sim.now() + cfg.slo_seconds;
    system.engine().submit(std::move(q));
  };
  // t=1.5: the donor generates, completes, and is cached.
  sim.schedule_at(1.5, [&] { submit(0); });
  // t=5.2: a filler occupies the worker until its own deadline.
  sim.schedule_at(5.2, [&] { submit(far_a); });
  // t=7.7: the mixed pair queues behind the filler; when the worker frees
  // their slack is below exec2 but above the scaled mixed-batch time.
  sim.schedule_at(7.7, [&] {
    submit(near_prompt);
    submit(far_b);
  });
  sim.run_all();

  // Unscaled timing would have dropped the pair (documented arithmetic:
  // the worker frees at the filler's deadline).
  const double free_at = 5.2 + cfg.slo_seconds;
  const double pair_deadline = 7.7 + cfg.slo_seconds;
  EXPECT_GT(free_at + exec2, pair_deadline);
  EXPECT_LE(free_at + (1.0 + frac) / 2.0 * exec2, pair_deadline);

  const auto& sink = system.sink();
  EXPECT_EQ(sink.completed(), 4u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.violation_ratio(), 0.0);
  EXPECT_EQ(system.engine().cache_stats().near_hits, 1u);
}

TEST(CacheServing, ScaledDropSacrificesSlowestViolatorOnly) {
  // Re-checking a batch against its scaled finish time must recompute the
  // mean after every drop and sacrifice the *slowest* violator first: in
  // a {near-hit, miss, miss, miss} batch whose deadline admits the mean
  // of three members but not four, exactly one miss is dropped and the
  // remaining three complete. Checking all members against the stale
  // four-member finish time (or dropping the fast hit first) would
  // cascade into dropping the whole batch.
  core::EnvironmentConfig ec;
  ec.cascade = models::catalog::kSoloHeavy;
  ec.workload_queries = 64;
  ec.discriminator.train_queries = 64;
  ec.profile_queries = 64;
  const core::CascadeEnvironment env(ec);

  const auto& donor_style = env.workload().style(0);
  auto l2 = [&](quality::QueryId q) {
    const auto& s = env.workload().style(q);
    double sq = 0.0;
    for (std::size_t d = 0; d < s.size(); ++d)
      sq += (s[d] - donor_style[d]) * (s[d] - donor_style[d]);
    return std::sqrt(sq);
  };
  std::vector<quality::QueryId> by_distance;
  for (quality::QueryId q = 1; q < 64; ++q) by_distance.push_back(q);
  std::sort(by_distance.begin(), by_distance.end(),
            [&](quality::QueryId a, quality::QueryId b) {
              return l2(a) < l2(b);
            });
  const quality::QueryId near_prompt = by_distance.front();
  // Five donor-far prompts: a filler plus four batched misses (the last
  // one only fits after a sacrifice frees its slot).
  const auto far_end = std::vector<quality::QueryId>(by_distance.end() - 5,
                                                     by_distance.end());
  ASSERT_GT(l2(far_end.front()), l2(near_prompt) + 0.02);

  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 1;
  cfg.slo_seconds = 5.6;
  cfg.cache.enabled = true;
  cfg.cache.capacity = 16;
  cfg.cache.near_distance = l2(near_prompt) + 0.01;
  cfg.cache.far_distance = l2(near_prompt) + 0.01;
  serving::ServingSystem system(sim, env.workload(), env.repository(),
                                env.cascade(), env.discs(), env.scorer(),
                                cfg);
  serving::AllocationPlan plan = serving::AllocationPlan::for_stages(1);
  plan.workers = {1};
  plan.batches = {4};
  system.apply(plan);

  const double exec4 = system.stage_exec_latency(0, 4);
  const double frac = cfg.cache.near_step_fraction;
  // The quad below waits 1.0 s behind the filler. Its remaining slack
  // must admit the three-member mean (hit + 2 misses) but not the
  // four-member mean (hit + 3 misses).
  const double slack = cfg.slo_seconds - 1.0;
  ASSERT_GT((frac + 3.0) / 4.0 * exec4, slack);
  ASSERT_LE((frac + 2.0) / 3.0 * exec4, slack);

  std::uint64_t next_seq = 0;
  auto submit = [&](quality::QueryId prompt) {
    engine::Query q;
    q.seq = next_seq++;
    q.prompt_id = prompt;
    q.arrival_time = sim.now();
    q.deadline = sim.now() + cfg.slo_seconds;
    system.engine().submit(std::move(q));
  };
  sim.schedule_at(1.5, [&] { submit(0); });           // donor: cached at 7.1
  sim.schedule_at(7.3, [&] { submit(far_end[0]); });  // filler: busy to 12.9
  sim.schedule_at(11.9, [&] {                         // four fill the batch,
    submit(near_prompt);                              // the fifth queues
    submit(far_end[1]);
    submit(far_end[2]);
    submit(far_end[3]);
    submit(far_end[4]);
  });
  sim.run_all();

  // Each sacrifice frees a slot that is refilled from the queue before
  // the next scaled re-check: two misses are dropped, and the queued
  // fifth query rides the freed slot to an on-time completion (without
  // the refill it would languish a full batch execution and be dropped).
  const auto& sink = system.sink();
  EXPECT_EQ(sink.completed(), 5u);  // donor + filler + hit + two misses
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(system.engine().cache_stats().near_hits, 1u);
  bool refilled_completed = false;
  for (const auto& rec : sink.records())
    if (rec.seq == 6) refilled_completed = !rec.dropped && !rec.violated;
  EXPECT_TRUE(refilled_completed);
}

TEST(CacheServing, LatentLevelsRecordBoundaryCrossings) {
  // With latent levels on, a cache-miss generation that defers leaves its
  // stage output behind as a resumable intermediate latent — so donors
  // exist even for prompts that never finished at the light stage.
  const auto& env = shared_env();
  sim::Simulation sim;
  serving::SystemConfig cfg;
  cfg.total_workers = 4;
  cfg.slo_seconds = 20.0;
  cfg.cache = serving_cache();
  serving::ServingSystem system(sim, env.workload(), env.repository(),
                                env.cascade(), env.discs(), env.scorer(),
                                cfg);
  serving::AllocationPlan plan;
  plan.workers[0] = 2;
  plan.workers[1] = 2;
  plan.thresholds[0] = 0.95;  // defer aggressively: many boundary crossings
  system.apply(plan);

  std::vector<double> arrivals;
  for (int i = 0; i < 120; ++i) arrivals.push_back(0.4 * i);
  system.inject_arrivals(arrivals);
  sim.run_all();

  const auto stats = system.engine().cache_stats();
  EXPECT_GT(stats.latent_insertions, 0u);
  EXPECT_GT(stats.hits(), 0u);
  // Conservation through the latent-insert path.
  EXPECT_EQ(system.sink().total(), 120u);
}

TEST(CacheServing, DesAndThreadedBackendsAgreeWithCacheOn) {
  // The §4.3 parity property must survive the cache: same trace, same
  // Zipfian prompt stream, cache enabled on both backends.
  const auto tr = trace::RateTrace::azure_like(2.0, 8.0, 80.0, 7);

  auto sim_cfg = zipf_run(tr);
  sim_cfg.system.cache = serving_cache();
  const auto des = core::run_experiment(shared_env(), sim_cfg);

  control::ExhaustiveAllocator alloc;
  runtime::RuntimeConfig rt_cfg;
  rt_cfg.total_workers = 6;
  rt_cfg.time_scale = 30.0;
  rt_cfg.cache = serving_cache();
  rt_cfg.prompt_mix = zipf_mix();
  const auto threaded =
      runtime::run_threaded(shared_env(), alloc, tr, rt_cfg);

  EXPECT_EQ(des.submitted, threaded.submitted);
  // Conservation on the threaded backend: nothing terminates twice, and
  // at most a small in-flight slack remains unterminated at shutdown.
  EXPECT_LE(threaded.completed + threaded.dropped, threaded.submitted);
  EXPECT_GE(threaded.completed + threaded.dropped + 5, threaded.submitted);
  ASSERT_GT(des.overall_fid, 0.0);
  ASSERT_GT(threaded.overall_fid, 0.0);
  const double fid_rel_diff =
      std::fabs(des.overall_fid - threaded.overall_fid) / des.overall_fid;
  EXPECT_LT(fid_rel_diff, 0.05);
  EXPECT_LT(std::fabs(des.violation_ratio - threaded.violation_ratio),
            0.05);
  EXPECT_GT(threaded.cache.hit_ratio(), 0.2);
  EXPECT_LT(std::fabs(des.cache.hit_ratio() - threaded.cache.hit_ratio()),
            0.05);
}

}  // namespace
}  // namespace diffserve::cache
