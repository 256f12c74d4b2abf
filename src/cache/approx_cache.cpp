#include "cache/approx_cache.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace diffserve::cache {

namespace {

/// Random hyperplane projections per LSH table: a table's bucket is the
/// quantized cell of the key under its projections. More projections mean
/// finer buckets (fewer candidates, lower per-table recall — each extra
/// table then wins most of it back). 12 projections of far-sized cells
/// carry about the candidate density 10 projections of near-sized cells
/// did.
constexpr std::size_t kLshProjections = 12;
// The probe path keeps per-projection cells in fixed stack arrays.
static_assert(kLshProjections <= 32, "cell scratch arrays hold 32");
/// Adaptive probing stops expanding once the modelled recall of a
/// neighbour at far_distance (across all tables) reaches this bound.
constexpr double kLshTargetRecall = 0.9;
/// The per-table bound that compounds to the overall one:
/// 1 - (1 - r_table)^tables >= kLshTargetRecall.
const double kTableRecallTarget =
    1.0 - std::pow(1.0 - kLshTargetRecall,
                   1.0 / static_cast<double>(kLshTables));
/// Per-table probe budget for adaptive probing, in units of expected
/// *candidate evaluations* (distance computations): the effective probe
/// count is this divided by the observed candidates-per-probe yield (EWMA,
/// deterministic), clamped to [2, 2x] probes — dense buckets probe a
/// handful of cells that already carry plenty of candidates, sparse
/// buckets fan out to 2x (cells there are near-free), and the
/// distance-computation work per lookup stays roughly flat either way.
/// Sized for the sparse regime's far edge: up to 2x96 probes per table
/// hold far-decile recall comfortably over 0.9 of the near decile's
/// (fig11 Part 3a), while dense caches tune down to a few probes
/// regardless.
constexpr std::size_t kLshProbeBudget = 96;
/// Seed of the projection directions/offsets. Fixed, so both execution
/// backends derive identical buckets.
constexpr std::uint64_t kLshSeed = 0xD1FF5EEDCAFEULL;

}  // namespace

const char* to_string(HitLevel level) {
  switch (level) {
    case HitLevel::kMiss: return "miss";
    case HitLevel::kExact: return "exact";
    case HitLevel::kApproxNear: return "approx-near";
    case HitLevel::kApproxFar: return "approx-far";
  }
  return "?";
}

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  lookups += o.lookups;
  exact_hits += o.exact_hits;
  near_hits += o.near_hits;
  far_hits += o.far_hits;
  insertions += o.insertions;
  latent_insertions += o.latent_insertions;
  evictions += o.evictions;
  step_fraction_sum += o.step_fraction_sum;
  near_step_fraction_sum += o.near_step_fraction_sum;
  far_step_fraction_sum += o.far_step_fraction_sum;
  lsh_probed_cells += o.lsh_probed_cells;
  lsh_probe_candidates += o.lsh_probe_candidates;
  heap_compactions += o.heap_compactions;
  heap_stale_pops += o.heap_stale_pops;
  return *this;
}

double CacheStats::hit_ratio() const {
  if (lookups == 0) return 0.0;
  return static_cast<double>(hits()) / static_cast<double>(lookups);
}

double CacheStats::exact_hit_ratio() const {
  if (lookups == 0) return 0.0;
  return static_cast<double>(exact_hits) / static_cast<double>(lookups);
}

double CacheStats::mean_step_fraction() const {
  const std::uint64_t n = lookups - exact_hits;
  if (n == 0) return 1.0;
  return step_fraction_sum / static_cast<double>(n);
}

double CacheStats::mean_probed_cells() const {
  if (lookups == 0) return 0.0;
  return static_cast<double>(lsh_probed_cells) / static_cast<double>(lookups);
}

ApproxCache::ApproxCache(CacheConfig cfg) : cfg_(cfg) {
  DS_REQUIRE(cfg_.capacity >= 1, "cache capacity must be >= 1");
  DS_REQUIRE(cfg_.exact_distance >= 0.0, "negative exact threshold");
  DS_REQUIRE(cfg_.exact_distance <= cfg_.near_distance &&
                 cfg_.near_distance <= cfg_.far_distance,
             "hit thresholds must be ordered exact <= near <= far");
  DS_REQUIRE(cfg_.near_step_fraction > 0.0 && cfg_.near_step_fraction <= 1.0,
             "near step fraction must be in (0, 1]");
  DS_REQUIRE(cfg_.far_step_fraction > 0.0 && cfg_.far_step_fraction <= 1.0,
             "far step fraction must be in (0, 1]");
  DS_REQUIRE(cfg_.min_step_fraction > 0.0 && cfg_.min_step_fraction <= 1.0,
             "min step fraction must be in (0, 1]");
  // Interpolation assumes a monotone profile: a closer donor never costs
  // more steps than a farther one (the distance thresholds get the
  // analogous ordering check above).
  if (cfg_.interpolate_step_fraction)
    DS_REQUIRE(cfg_.min_step_fraction <= cfg_.near_step_fraction &&
                   cfg_.near_step_fraction <= cfg_.far_step_fraction,
               "interpolation anchors must be ordered min <= near <= far");
  DS_REQUIRE(cfg_.hit_latency >= 0.0, "negative hit latency");
  DS_REQUIRE(cfg_.popularity_weight >= 0.0, "negative popularity weight");
  indexed_ = cfg_.index_kind == IndexKind::kLsh ||
             (cfg_.index_kind == IndexKind::kAuto &&
              cfg_.capacity > kAutoIndexThreshold);
  if (indexed_) {
    buckets_.resize(kLshTables);
    // Cells sized to a hit radius: an in-radius neighbour's projection
    // differs by at most the distance itself, so it lands in the same or
    // an adjacent cell per projection with high probability. A degenerate
    // radius still quantizes (exact duplicates always share every cell).
    // The width is tuned to the *far* radius — a far-edge neighbour then
    // crosses at most a couple of boundaries and the directed probe set
    // can recover it, where near-sized cells scatter it across
    // combinatorially many buckets no budget reaches.
    lsh_cell_width_ = std::max(cfg_.far_distance, 1e-9);
  }
  entries_.reserve(cfg_.capacity);
}

double ApproxCache::distance(const std::vector<double>& a,
                             const std::vector<double>& b) const {
  DS_REQUIRE(a.size() == b.size(), "key dimensions differ");
  double sq = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double diff = a[d] - b[d];
    sq += diff * diff;
  }
  return std::sqrt(sq);
}

double ApproxCache::approx_step_fraction(double d) const {
  if (!cfg_.interpolate_step_fraction)
    return d <= cfg_.near_distance ? cfg_.near_step_fraction
                                   : cfg_.far_step_fraction;
  // Continuous piecewise-linear through the tier anchors:
  // (exact -> min) -> (near -> near_frac) -> (far -> far_frac).
  const double lo = cfg_.exact_distance;
  const double mid = cfg_.near_distance;
  const double hi = cfg_.far_distance;
  if (d <= lo) return cfg_.min_step_fraction;
  if (d <= mid) {
    if (mid - lo <= 0.0) return cfg_.near_step_fraction;
    const double t = (d - lo) / (mid - lo);
    return cfg_.min_step_fraction +
           t * (cfg_.near_step_fraction - cfg_.min_step_fraction);
  }
  if (hi - mid <= 0.0) return cfg_.far_step_fraction;
  const double t = std::min(1.0, (d - mid) / (hi - mid));
  return cfg_.near_step_fraction +
         t * (cfg_.far_step_fraction - cfg_.near_step_fraction);
}

double ApproxCache::eviction_score(const Entry& e) const {
  return e.last_used +
         cfg_.popularity_weight * std::log1p(static_cast<double>(e.hits));
}

std::uint32_t ApproxCache::level_mask_of(const Entry& e) {
  std::uint32_t mask = 0;
  for (const auto& l : e.levels)
    if (l.stage >= 0 && l.stage < 32) mask |= 1u << l.stage;
  if (e.has_image() && e.stage >= 0 && e.stage < 32) mask |= 1u << e.stage;
  return mask;
}

void ApproxCache::deepest_of(const Entry& e, int& stage, int& tier) {
  stage = -1;
  tier = -1;
  for (const auto& l : e.levels)
    if (l.stage > stage) {
      stage = l.stage;
      tier = l.tier;
    }
  if (e.has_image() && e.stage >= stage) {
    stage = e.stage;
    tier = e.tier;
  }
}

// ---- nearest-neighbour search ----------------------------------------------

std::size_t ApproxCache::nearest_scan(const std::vector<double>& key,
                                      double& best_d) {
  std::size_t best = npos;
  best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double d = distance(entries_[i].key, key);
    // Strict < with an in-order scan: ties resolve to the lowest entry
    // index, independent of eviction history.
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

namespace {

/// Standard normal CDF (the neighbour-shift model adaptive probing
/// estimates recall with).
double normal_cdf(double x) {
  return 0.5 * std::erfc(-x * 0.70710678118654752440);
}

/// One candidate ±1-cell perturbation of a single projection, ranked by
/// its projection-space cost (Lv et al.-style query-directed probing).
struct Perturbation {
  double cost = 0.0;   ///< squared distance from the query to the crossed
                       ///< cell boundary — cheap boundaries probe first
  double ratio = 0.0;  ///< P(neighbour lands in the perturbed cell) /
                       ///< P(it stays home) for this projection
  std::uint8_t proj = 0;
  std::int8_t delta = 0;  ///< +1 or -1 cell
};

}  // namespace

std::size_t ApproxCache::nearest_lsh(const std::vector<double>& key,
                                     double& best_d) {
  ensure_planes(key.size());
  std::size_t best = npos;
  best_d = std::numeric_limits<double>::infinity();
  const std::uint64_t epoch = ++lookup_epoch_;
  std::uint64_t probed = 0, candidates = 0;
  auto probe = [&](std::size_t table, std::uint64_t code) {
    ++probed;
    const auto it = buckets_[table].find(code);
    if (it == buckets_[table].end()) return;
    for (const std::size_t idx : it->second) {
      Entry& e = entries_[idx];
      // An entry can share buckets with the query in several tables and
      // probes; compute its distance once per lookup.
      if (e.visit_epoch == epoch) continue;
      e.visit_epoch = epoch;
      ++candidates;
      const double d = distance(e.key, key);
      // Tie-break on the lower entry index — the same winner the in-order
      // scan picks, so the index agrees with the scan whenever the true
      // nearest neighbour lands in a probed bucket.
      if (d < best_d || (d == best_d && idx < best)) {
        best_d = d;
        best = idx;
      }
    }
  };
  nearest_lsh_adaptive(key, probe);
  stats_.lsh_probed_cells += probed;
  stats_.lsh_probe_candidates += candidates;
  if (probed > 0) {
    // The yield the budget tuner divides by: how many candidate distance
    // computations one probed cell costs on the current contents.
    const double yield =
        static_cast<double>(candidates) / static_cast<double>(probed);
    probe_yield_ewma_ = 0.9 * probe_yield_ewma_ + 0.1 * yield;
  }
  return best;
}

template <typename ProbeFn>
void ApproxCache::nearest_lsh_adaptive(const std::vector<double>& key,
                                       ProbeFn&& probe) {
  const std::size_t k = kLshProjections;
  const double w = lsh_cell_width_;
  // Shift model: a neighbour at far_distance moves each (unit) projection
  // by ~N(0, far_distance / sqrt(dim)) — the average-case spread of a fixed
  // direction's share of a randomly oriented difference vector.
  const double sigma =
      std::max(cfg_.far_distance / std::sqrt(static_cast<double>(key.size())),
               1e-12);
  // Effective per-table probe count: the budget is in units of
  // expected candidate evaluations, so divide by the observed
  // candidates-per-probe yield — dense buckets probe less, sparse buckets
  // probe more, and the distance work per lookup stays roughly flat.
  const double denom = std::max(probe_yield_ewma_, 0.5);
  const double scaled =
      static_cast<double>(kLshProbeBudget) / denom + 0.5;
  const std::size_t budget =
      std::min(2 * kLshProbeBudget,
               std::max(std::size_t{2}, static_cast<std::size_t>(scaled)));

  std::int64_t cells[32], perturbed[32];
  double fracs[32];
  Perturbation perts[64];
  // Member scratch: the expansion frontier is bounded by the iteration
  // cap, so after the first lookup its capacity sticks and the hot path
  // never allocates.
  std::vector<ProbeSet>& frontier = probe_frontier_;
  frontier.reserve(4 * budget + 18);
  for (std::size_t t = 0; t < kLshTables; ++t) {
    cells_of(t, key, cells, fracs);
    // Per-projection landing probabilities of a far_distance neighbour:
    // home cell, one cell up, one cell down.
    double home_prob = 1.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double lo = -fracs[j] * w;        // to the lower boundary
      const double hi = (1.0 - fracs[j]) * w; // to the upper boundary
      const double p0 = normal_cdf(hi / sigma) - normal_cdf(lo / sigma);
      const double up =
          normal_cdf((hi + w) / sigma) - normal_cdf(hi / sigma);
      const double dn =
          normal_cdf(lo / sigma) - normal_cdf((lo - w) / sigma);
      home_prob *= p0;
      const double floor_p = std::max(p0, 1e-12);
      perts[2 * j] = {hi * hi, up / floor_p, static_cast<std::uint8_t>(j),
                      std::int8_t{1}};
      perts[2 * j + 1] = {lo * lo, dn / floor_p,
                          static_cast<std::uint8_t>(j), std::int8_t{-1}};
    }
    probe(t, hash_cells(t, cells));
    double est_recall = home_prob;
    if (est_recall >= kTableRecallTarget) continue;

    // Cheapest boundaries first; exact ties settled by (proj, delta) so
    // the expansion order is deterministic.
    std::sort(perts, perts + 2 * k,
              [](const Perturbation& a, const Perturbation& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                if (a.proj != b.proj) return a.proj < b.proj;
                return a.delta < b.delta;
              });
    frontier.clear();
    frontier.push_back({perts[0].cost, 1, 0});
    std::size_t spent = 0;
    // Each iteration pops one set and pushes at most two successors, so
    // the frontier work is O(budget log budget); invalid sets (both
    // directions of one projection) still expand but do not probe.
    for (std::size_t iter = 0;
         spent < budget && est_recall < kTableRecallTarget &&
         !frontier.empty() && iter < 4 * budget + 16;
         ++iter) {
      std::pop_heap(frontier.begin(), frontier.end(), probe_set_after);
      const ProbeSet set = frontier.back();
      frontier.pop_back();
      if (set.last + 1u < 2 * k) {
        ProbeSet shift = set;  // swap the highest perturbation for the
        shift.cost += perts[set.last + 1].cost - perts[set.last].cost;
        shift.mask ^= 3ull << set.last;  // next one up the cost order
        ++shift.last;
        frontier.push_back(shift);
        std::push_heap(frontier.begin(), frontier.end(), probe_set_after);
        ProbeSet expand = set;  // or add it on top
        expand.cost += perts[set.last + 1].cost;
        expand.mask |= 2ull << set.last;
        ++expand.last;
        frontier.push_back(expand);
        std::push_heap(frontier.begin(), frontier.end(), probe_set_after);
      }
      // Valid sets perturb distinct projections (+1 and -1 on the same
      // one would be two assignments to one coordinate).
      std::uint32_t seen = 0;
      bool valid = true;
      double set_prob = home_prob;
      for (std::size_t i = 0; i <= set.last; ++i) {
        if (!((set.mask >> i) & 1ull)) continue;
        const std::uint32_t bit = 1u << perts[i].proj;
        if (seen & bit) {
          valid = false;
          break;
        }
        seen |= bit;
        set_prob *= perts[i].ratio;
      }
      if (!valid) continue;
      for (std::size_t j = 0; j < k; ++j) perturbed[j] = cells[j];
      for (std::size_t i = 0; i <= set.last; ++i)
        if ((set.mask >> i) & 1ull)
          perturbed[perts[i].proj] += perts[i].delta;
      probe(t, hash_cells(t, perturbed));
      ++spent;
      est_recall += set_prob;
    }
  }
}

std::size_t ApproxCache::nearest(const std::vector<double>& key,
                                 double& best_d) {
  if (entries_.empty()) {
    best_d = std::numeric_limits<double>::infinity();
    return npos;
  }
  return indexed_ ? nearest_lsh(key, best_d) : nearest_scan(key, best_d);
}

LookupResult ApproxCache::lookup(const std::vector<double>& key, double now) {
  ++stats_.lookups;
  double best_d = 0.0;
  const std::size_t best = nearest(key, best_d);

  LookupResult r;
  // What the non-exact stats sums record: with latent levels and a known
  // chain depth, the fraction a hit saves applies only at the donor's
  // covered stages (the rest run full steps), so the controller-facing
  // number is coverage-weighted; otherwise the raw fraction.
  double recorded_fraction = 1.0;
  if (best != npos && best_d <= cfg_.far_distance) {
    Entry& e = entries_[best];
    r.donor_prompt = e.prompt;
    deepest_of(e, r.donor_stage, r.donor_tier);
    r.distance = best_d;
    r.level_mask = level_mask_of(e);
    if (best_d <= cfg_.exact_distance && e.has_image()) {
      // Only a terminal image can be served as-is; an exact-distance match
      // against a latent-only entry still resumes like an approx hit.
      // What an exact hit serves is the terminal image, whatever the
      // deepest recorded latent happens to be.
      r.level = HitLevel::kExact;
      r.step_fraction = 0.0;
      r.donor_tier = e.tier;
      r.donor_stage = e.stage;
      ++stats_.exact_hits;
    } else {
      r.step_fraction = approx_step_fraction(best_d);
      recorded_fraction = r.step_fraction;
      if (cfg_.latent_levels && cfg_.chain_stages > 0) {
        std::size_t covered = 0;
        for (std::size_t s = 0; s < cfg_.chain_stages && s < 32; ++s)
          if ((r.level_mask >> s) & 1u) ++covered;
        const double n = static_cast<double>(cfg_.chain_stages);
        recorded_fraction =
            (static_cast<double>(covered) * r.step_fraction + (n - covered)) /
            n;
      }
      if (best_d <= cfg_.near_distance) {
        r.level = HitLevel::kApproxNear;
        ++stats_.near_hits;
        stats_.near_step_fraction_sum += recorded_fraction;
      } else {
        r.level = HitLevel::kApproxFar;
        ++stats_.far_hits;
        stats_.far_step_fraction_sum += recorded_fraction;
      }
    }
    ++e.hits;
    e.last_used = now;
    heap_touch(e);  // the hit bump moved the eviction score
  }
  if (r.level != HitLevel::kExact)
    stats_.step_fraction_sum += recorded_fraction;
  return r;
}

std::vector<quality::QueryId> ApproxCache::cached_prompts() const {
  std::vector<quality::QueryId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.prompt);
  return out;
}

// ---- insertion -------------------------------------------------------------

std::size_t ApproxCache::find_prompt(quality::QueryId prompt) const {
  const auto it = by_prompt_.find(prompt);
  return it == by_prompt_.end() ? npos : it->second;
}

std::size_t ApproxCache::victim_scan() const {
  std::size_t victim = 0;
  double victim_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double s = eviction_score(entries_[i]);
    if (s < victim_score ||
        (s == victim_score && entries_[i].order < entries_[victim].order)) {
      victim_score = s;
      victim = i;
    }
  }
  return victim;
}

std::size_t ApproxCache::victim_heap() {
  // Lazy pops: a pair whose version no longer matches its entry (or whose
  // prompt was evicted outright) was superseded by a later touch — skip
  // it. The newest pair per live entry carries its current score, so the
  // first current-version pop is exactly the scan's (score, order)
  // minimum. The victim's own pair leaves the heap here, which is also
  // its removal from the structure.
  for (;;) {
    DS_CHECK(!heap_.empty(), "eviction heap drained with entries live");
    const HeapItem top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
    const auto it = by_prompt_.find(top.prompt);
    if (it == by_prompt_.end() || entries_[it->second].version != top.version) {
      ++stats_.heap_stale_pops;
      continue;
    }
    return it->second;
  }
}

void ApproxCache::heap_touch(Entry& e) {
  if (cfg_.eviction_kind != EvictionKind::kHeap) return;
  // Globally unique stamps: pairs from an evicted incarnation of a
  // re-used prompt can never collide with the live entry's version.
  e.version = ++next_version_;
  heap_.push_back({eviction_score(e), e.order, e.version, e.prompt});
  std::push_heap(heap_.begin(), heap_.end(), heap_after);
  // Compact once stale pairs outnumber live entries: each compaction is
  // O(N) but needs >= N touches to re-arm, so the amortized cost per
  // operation stays O(log N).
  if (heap_.size() > std::max<std::size_t>(64, 2 * entries_.size()))
    heap_compact();
}

void ApproxCache::heap_compact() {
  heap_.clear();
  for (const Entry& e : entries_)
    heap_.push_back({eviction_score(e), e.order, e.version, e.prompt});
  std::make_heap(heap_.begin(), heap_.end(), heap_after);
  ++stats_.heap_compactions;
}

void ApproxCache::evict_one() {
  const std::size_t victim = cfg_.eviction_kind == EvictionKind::kHeap
                                 ? victim_heap()
                                 : victim_scan();
  if (indexed_) index_remove(victim);
  by_prompt_.erase(entries_[victim].prompt);
  const std::size_t last = entries_.size() - 1;
  if (victim != last) {
    if (indexed_) index_move(last, victim);
    by_prompt_[entries_[last].prompt] = victim;
    entries_[victim] = std::move(entries_[last]);
  }
  entries_.pop_back();
  ++stats_.evictions;
}

std::size_t ApproxCache::upsert_entry(quality::QueryId prompt,
                                      const std::vector<double>& key,
                                      double now) {
  std::size_t idx = find_prompt(prompt);
  if (idx != npos) {
    Entry& e = entries_[idx];
    // Refresh the key alongside the entry: a prompt whose style vector has
    // drifted must match against its *current* key, not the one it was
    // first inserted under.
    if (e.key != key) {
      if (indexed_) index_remove(idx);
      e.key = key;
      if (indexed_) {
        ensure_planes(key.size());
        for (std::size_t t = 0; t < kLshTables; ++t)
          e.codes[t] = code_of(t, key);
        index_add(idx);
      }
    }
    e.last_used = now;
    heap_touch(e);
    return idx;
  }
  if (entries_.size() >= cfg_.capacity) evict_one();
  Entry e;
  e.prompt = prompt;
  e.key = key;
  e.last_used = now;
  e.order = next_order_++;
  if (indexed_) {
    ensure_planes(key.size());
    e.codes.resize(kLshTables);
    for (std::size_t t = 0; t < kLshTables; ++t)
      e.codes[t] = code_of(t, key);
  }
  idx = entries_.size();
  entries_.push_back(std::move(e));
  by_prompt_[prompt] = idx;
  if (indexed_) index_add(idx);
  heap_touch(entries_[idx]);
  return idx;
}

void ApproxCache::insert(quality::QueryId prompt, int tier, int stage,
                         const std::vector<double>& key, double now) {
  DS_REQUIRE(tier > 0, "cached images need a diffusion tier");
  const bool existed = find_prompt(prompt) != npos;
  Entry& e = entries_[upsert_entry(prompt, key, now)];
  // Keep the higher-quality terminal image (a deferral may re-serve the
  // same prompt at a heavier tier).
  if (tier >= e.tier) {
    e.tier = tier;
    e.stage = stage;
  }
  if (!existed) ++stats_.insertions;
}

void ApproxCache::insert_latent(quality::QueryId prompt, int tier, int stage,
                                const std::vector<double>& key, double now) {
  DS_REQUIRE(tier > 0, "latents need a diffusion tier");
  DS_REQUIRE(stage >= 0, "latents need a producing stage");
  Entry& e = entries_[upsert_entry(prompt, key, now)];
  for (auto& l : e.levels) {
    if (l.stage == stage) {
      l.tier = std::max(l.tier, tier);
      return;
    }
  }
  LatentLevel level;
  level.stage = stage;
  level.tier = tier;
  // Keep levels ascending by stage (deterministic, and deepest_of /
  // level_mask_of stay order-independent anyway).
  const auto pos = std::find_if(
      e.levels.begin(), e.levels.end(),
      [stage](const LatentLevel& l) { return l.stage > stage; });
  e.levels.insert(pos, level);
  ++stats_.latent_insertions;
}

// ---- LSH index maintenance -------------------------------------------------

void ApproxCache::ensure_planes(std::size_t dim) {
  if (!planes_.empty()) {
    DS_REQUIRE(planes_.front().size() == dim,
               "key dimension changed under the LSH index");
    return;
  }
  DS_REQUIRE(dim >= 1, "empty cache key");
  util::Rng rng(kLshSeed);
  planes_.resize(kLshTables * kLshProjections);
  plane_offsets_.resize(planes_.size());
  for (std::size_t i = 0; i < planes_.size(); ++i) {
    auto& p = planes_[i];
    p.resize(dim);
    // Unit-normalized direction: an in-radius neighbour's projection then
    // differs by at most the L2 distance, which the cell width is sized
    // against.
    double norm = 0.0;
    for (auto& v : p) {
      v = rng.normal();
      norm += v * v;
    }
    norm = std::sqrt(norm);
    if (norm > 1e-12)
      for (auto& v : p) v /= norm;
    // Random offset decorrelates cell boundaries across projections.
    plane_offsets_[i] = rng.uniform() * lsh_cell_width_;
  }
}

void ApproxCache::cells_of(std::size_t table, const std::vector<double>& key,
                           std::int64_t* cells, double* fracs) const {
  const std::size_t base = table * kLshProjections;
  for (std::size_t j = 0; j < kLshProjections; ++j) {
    const auto& plane = planes_[base + j];
    double dot = plane_offsets_[base + j];
    for (std::size_t d = 0; d < key.size(); ++d)
      dot += plane[d] * key[d];
    const double scaled = dot / lsh_cell_width_;
    cells[j] = static_cast<std::int64_t>(std::floor(scaled));
    if (fracs != nullptr)
      fracs[j] = scaled - static_cast<double>(cells[j]);
  }
}

std::uint64_t ApproxCache::hash_cells(std::size_t table,
                                      const std::int64_t* cells) const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL * (table + 1);
  for (std::size_t j = 0; j < kLshProjections; ++j) {
    std::uint64_t v = static_cast<std::uint64_t>(cells[j]);
    v *= 0xBF58476D1CE4E5B9ULL;
    v ^= v >> 31;
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::uint64_t ApproxCache::code_of(std::size_t table,
                                   const std::vector<double>& key) const {
  std::int64_t cells[32];
  cells_of(table, key, cells);
  return hash_cells(table, cells);
}

void ApproxCache::index_add(std::size_t idx) {
  const Entry& e = entries_[idx];
  for (std::size_t t = 0; t < kLshTables; ++t)
    buckets_[t][e.codes[t]].push_back(idx);
}

void ApproxCache::index_remove(std::size_t idx) {
  const Entry& e = entries_[idx];
  for (std::size_t t = 0; t < kLshTables; ++t) {
    auto it = buckets_[t].find(e.codes[t]);
    DS_CHECK(it != buckets_[t].end(), "LSH bucket missing on remove");
    auto& vec = it->second;
    vec.erase(std::find(vec.begin(), vec.end(), idx));
    if (vec.empty()) buckets_[t].erase(it);
  }
}

void ApproxCache::index_move(std::size_t from, std::size_t to) {
  const Entry& e = entries_[from];
  for (std::size_t t = 0; t < kLshTables; ++t) {
    auto& vec = buckets_[t][e.codes[t]];
    *std::find(vec.begin(), vec.end(), from) = to;
  }
}

}  // namespace diffserve::cache
