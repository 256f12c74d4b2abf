// Approximate prompt-reuse cache (the "retrieval" tier in front of the
// cascade).
//
// Production text-to-image traffic is heavily repetitive: the same and
// near-identical prompts recur, and intermediate results for *similar*
// prompts can seed a generation that needs only a fraction of the
// diffusion steps (Agarwal et al., PAPERS.md). This module is that reuse
// tier: a capacity-bounded store keyed by prompt style vectors, probed at
// admission by the CascadeEngine.
//
// A lookup classifies the nearest cached neighbour into tiered hit levels:
//
//   exact       — distance <= exact_distance and the donor has a terminal
//                 image: it is served as-is; the query never enters a
//                 stage pool.
//   approx-near — distance <= near_distance: the donor's intermediate
//                 result seeds the generation, which then runs only a
//                 fraction of its diffusion steps.
//   approx-far  — distance <= far_distance: a weaker seed; a larger
//                 fraction of the steps still runs.
//   miss        — nothing close enough; full generation.
//
// The step fraction an approx hit executes is either the tiered
// near/far constant (the PR-3 behaviour, still the default) or — with
// `interpolate_step_fraction` — a continuous piecewise-linear function of
// the distance through the same constants as anchors (Nirvana-style: the
// closer the donor, the later the resumption point).
//
// Entries are **multi-level**: besides the terminal image, a donor can
// carry intermediate latents recorded at every cascade boundary its
// generation crossed (`insert_latent`). An approx hit resumes from the
// donor's deepest recorded stage; the lookup reports which stages the
// donor has latents for so the engine can run full steps at stages the
// donor never reached.
//
// Lookup is either the exact O(N) linear scan (small caches) or a bucketed
// ANN index — multi-table LSH over random hyperplane projections of the
// style vector, p-stable quantized (each table buckets the key by its cell
// in a fixed number of random projections). Probing is adaptive: the
// cell width is tied to the *far* radius, and each table expands a
// query-directed probe set (Lv et al.-style — neighbour cells ranked by
// projection-space boundary distance) until the modelled expected recall
// of a far_distance neighbour meets a fixed target (0.9) or a per-table
// probe budget — auto-tuned from the observed candidates-per-probe yield
// — runs out, which keeps recall flat across the hit radius instead of
// decaying toward its far edge. The index is approximate (a
// near-threshold neighbour in an unprobed bucket can be missed) but
// fully deterministic: projections derive from a fixed seed and the budget
// tuner from the operation sequence alone, so two caches fed the same
// operation sequence agree byte-for-byte, which is what keeps the DES and
// threaded backends in lockstep.
//
// Eviction is LRU blended with popularity: the victim minimizes
// last_used + popularity_weight * log1p(hits), so a frequently reused
// entry survives a burst of one-off insertions. The victim is found by a
// deterministic *lazy min-heap* over that score (`EvictionKind::kHeap`):
// every score change pushes a fresh (score, version) pair instead of
// re-heapifying, and evict_one pops until the top's version is current —
// amortized O(log N) per insert where the reference scan
// (`EvictionKind::kScan`) pays O(N), with a byte-identical victim
// sequence (pinned by `HeapEvictionMatchesScanAcross50Seeds`). All
// behaviour is a deterministic function of the operation sequence (no
// internal randomness), which is how the DES and threaded backends stay
// in agreement; the engine's guard serializes access, so the cache
// itself holds no lock.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "quality/workload.hpp"

namespace diffserve::cache {

/// Outcome tier of a cache probe, ordered by reuse strength.
enum class HitLevel { kMiss = 0, kExact = 1, kApproxNear = 2, kApproxFar = 3 };

const char* to_string(HitLevel level);

/// How lookups find the nearest cached neighbour.
enum class IndexKind {
  /// Pick per capacity: the LSH index above `kAutoIndexThreshold` entries,
  /// the exact scan below it (small caches scan faster than they hash, and
  /// exactly).
  kAuto,
  /// Exact O(N) linear scan — the reference semantics.
  kScan,
  /// Bucketed multi-table LSH over quantized random hyperplane
  /// projections, with ±1-cell multi-probe.
  kLsh,
};

/// kAuto switches from the scan to the LSH index above this capacity.
inline constexpr std::size_t kAutoIndexThreshold = 4096;

/// Independent LSH tables; a neighbour is found if any table buckets it
/// with the query in one of its probed cells. Recall at a given distance
/// approaches 1 geometrically in the table count — the tenth table is
/// what holds the far-edge decile clear of its CI floor.
inline constexpr std::size_t kLshTables = 10;

/// How evict_one finds the LRU+popularity victim.
enum class EvictionKind {
  /// Lazy min-heap over the eviction score: touches push updated
  /// (score, version) pairs, evict_one pops past stale ones — amortized
  /// O(log N) per insert on a full cache. Byte-identical victim sequence
  /// to the scan.
  kHeap,
  /// Exact O(N) scan per eviction — the reference semantics (and the
  /// baseline `bench/fig11_cache_reuse.cpp` Part 3 measures against).
  kScan,
};

struct CacheConfig {
  /// Master switch. Disabled (the default) means the engine never probes
  /// or inserts — behaviour is byte-identical to a build without the
  /// cache subsystem.
  bool enabled = false;
  /// Maximum number of cached entries.
  std::size_t capacity = 256;
  /// L2 distance thresholds between style vectors for the hit tiers. The
  /// defaults suit the synthetic workload's ~N(0,1)^6 style vectors.
  double exact_distance = 1e-9;
  double near_distance = 1.0;
  double far_distance = 1.8;
  /// Fraction of the diffusion steps an approx hit still executes (the
  /// donor's intermediate result replaces the skipped prefix). With
  /// `interpolate_step_fraction` these become the interpolation anchors at
  /// near_distance / far_distance.
  double near_step_fraction = 0.4;
  double far_step_fraction = 0.75;
  /// Interpolate the step fraction continuously from the donor distance:
  /// piecewise-linear from (exact_distance -> min_step_fraction) through
  /// (near_distance -> near_step_fraction) to
  /// (far_distance -> far_step_fraction). Off (the default) reproduces the
  /// tiered near/far constants exactly.
  bool interpolate_step_fraction = false;
  /// Interpolation floor as the distance approaches exact_distance (a
  /// near-duplicate prompt still runs a sliver of steps).
  double min_step_fraction = 0.05;
  /// Record intermediate latents at every cascade boundary a (cache-miss)
  /// generation crosses, and resume approx hits from the donor's deepest
  /// recorded stage. Off (the default) caches terminal images only — the
  /// PR-3 behaviour.
  bool latent_levels = false;
  /// Lookup strategy; see IndexKind.
  IndexKind index_kind = IndexKind::kAuto;
  /// Chain depth of the serving cascade (set by the engine). With latent
  /// levels, stages outside the donor's level mask run full steps, so the
  /// step fraction recorded into CacheStats — what the controller's
  /// service-time discount consumes — is weighted by the donor's stage
  /// coverage. 0 (unknown) records the raw fraction, i.e. assumes full
  /// coverage.
  std::size_t chain_stages = 0;
  /// Serving latency of an exact hit (lookup + image decode), trace
  /// seconds; the query completes after this delay without touching a
  /// stage pool.
  double hit_latency = 0.02;
  /// Eviction blend: seconds of recency one e-fold of hits is worth. 0 is
  /// pure LRU; larger values protect popular entries longer.
  double popularity_weight = 5.0;
  /// Victim search strategy; see EvictionKind. kHeap (the default) keeps
  /// the insert path sublinear on a full cache; kScan is the O(N)
  /// reference both must agree with victim-for-victim.
  EvictionKind eviction_kind = EvictionKind::kHeap;
};

/// Aggregate probe/insert counters (engine- and controller-facing).
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t near_hits = 0;
  std::uint64_t far_hits = 0;
  std::uint64_t insertions = 0;
  /// Intermediate latents recorded at boundary crossings (latent_levels).
  std::uint64_t latent_insertions = 0;
  std::uint64_t evictions = 0;
  /// Sum of the step fractions the stages still had to run, over every
  /// lookup that was *not* an exact hit (a miss contributes 1.0). The
  /// controller's per-stage service-time discount is the mean of this.
  double step_fraction_sum = 0.0;
  /// Per-level step-fraction sums (near/far hits only) — with interpolated
  /// fractions the controller splits its service-time EWMAs by hit level,
  /// so each level's discount reflects its actual mean fraction.
  double near_step_fraction_sum = 0.0;
  double far_step_fraction_sum = 0.0;
  /// LSH probe-depth counters (indexed lookups only): buckets probed and
  /// candidate distance computations performed. Their ratio is the yield
  /// the adaptive probe budget tunes itself from.
  std::uint64_t lsh_probed_cells = 0;
  std::uint64_t lsh_probe_candidates = 0;
  /// Lazy-heap maintenance counters: full rebuilds that shed stale
  /// (score, version) pairs, and stale pairs skipped during evictions.
  std::uint64_t heap_compactions = 0;
  std::uint64_t heap_stale_pops = 0;

  /// Adds every counter of `o` (all are additive: shard totals sum).
  CacheStats& operator+=(const CacheStats& o);
  std::uint64_t hits() const { return exact_hits + near_hits + far_hits; }
  /// Any-level hits over lookups (0 before the first lookup).
  double hit_ratio() const;
  /// Exact hits over lookups — the fraction of demand the cache absorbs
  /// entirely.
  double exact_hit_ratio() const;
  /// Mean step fraction over non-exact lookups (1.0 before any).
  double mean_step_fraction() const;
  /// Mean LSH buckets probed per lookup (0 for unindexed caches).
  double mean_probed_cells() const;
};

/// Result of one admission-time probe.
struct LookupResult {
  HitLevel level = HitLevel::kMiss;
  quality::QueryId donor_prompt = 0;  ///< prompt whose image is reused
  int donor_tier = -1;                ///< tier of the donor's deepest result
  int donor_stage = -1;               ///< chain stage that produced it
  double distance = 0.0;              ///< distance to the donor's key
  /// Fraction of diffusion steps the chain still runs (1.0 on a miss,
  /// 0.0 on an exact hit). Tiered constant or distance-interpolated.
  double step_fraction = 1.0;
  /// Bit s set when the donor has a result (latent or terminal image)
  /// produced at chain stage s — the stages a resumed generation can skip
  /// steps at. 0 on a miss. An approx hit resumes from `donor_stage`, the
  /// deepest of these.
  std::uint32_t level_mask = 0;
};

class ApproxCache {
 public:
  explicit ApproxCache(CacheConfig cfg);

  /// Probe for the nearest cached neighbour of `key` and classify it.
  /// Hits refresh the donor's recency and popularity. `now` is the
  /// backend clock (trace seconds).
  LookupResult lookup(const std::vector<double>& key, double now);

  /// Insert a fully generated terminal image (prompt, quality tier,
  /// producing stage) under `key`. Re-inserting a cached prompt refreshes
  /// it — including its key — and keeps the higher-quality tier; a full
  /// cache evicts the entry with the lowest recency+popularity score
  /// first.
  void insert(quality::QueryId prompt, int tier, int stage,
              const std::vector<double>& key, double now);

  /// Record an intermediate latent: the stage-`stage` output (tier of that
  /// stage's model) of a generation that is still travelling down the
  /// chain. Creates an image-less entry if the prompt is not cached yet;
  /// an approx hit on such an entry resumes from the latent (it can never
  /// be an exact hit — there is no terminal image to serve).
  void insert_latent(quality::QueryId prompt, int tier, int stage,
                     const std::vector<double>& key, double now);

  std::size_t size() const { return entries_.size(); }
  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  /// Whether lookups go through the LSH index (resolved from index_kind
  /// and capacity at construction).
  bool indexed() const { return indexed_; }

  /// Cached prompt ids in internal storage order. Two caches fed the same
  /// operation sequence evolve identical entry vectors iff they evict the
  /// same victims in the same order, so equality here pins the victim
  /// sequence byte-for-byte (exposed for the heap-vs-scan and
  /// LSH-vs-scan equivalence tests).
  std::vector<quality::QueryId> cached_prompts() const;

  /// L2 distance between two keys (exposed for tests and threshold
  /// calibration).
  double distance(const std::vector<double>& a,
                  const std::vector<double>& b) const;

  /// The step fraction an approx hit at `d` executes (tiered constants or
  /// the distance interpolation; exposed for tests and the controller's
  /// calibration).
  double approx_step_fraction(double d) const;

 private:
  /// One recorded intermediate latent of a donor generation.
  struct LatentLevel {
    int stage = 0;  ///< chain stage that produced the latent
    int tier = 0;   ///< quality tier of that stage's model
  };

  struct Entry {
    quality::QueryId prompt = 0;
    int tier = 0;    ///< terminal-image tier (0 = no terminal image yet)
    int stage = -1;  ///< chain stage that produced the terminal image
    std::vector<double> key;
    /// Intermediate latents, ascending by stage (terminal image excluded).
    std::vector<LatentLevel> levels;
    std::uint64_t hits = 0;
    double last_used = 0.0;
    std::uint64_t order = 0;  ///< insertion sequence (deterministic ties)
    /// Stamp of the entry's newest (score, version) pair in the lazy
    /// eviction heap; older pairs for this entry (or for an evicted
    /// incarnation of its prompt) are stale and skipped on pop.
    std::uint64_t version = 0;
    /// Per-table LSH bucket hashes (filled only when the index is active).
    std::vector<std::uint64_t> codes;
    /// Scratch marker of the last lookup that computed this entry's
    /// distance — multi-table probing visits an entry once per table it
    /// shares a bucket with, and the distance is the expensive part.
    std::uint64_t visit_epoch = 0;

    bool has_image() const { return tier > 0; }
  };

  double eviction_score(const Entry& e) const;
  /// Stages the entry has results for, as a bitmask.
  static std::uint32_t level_mask_of(const Entry& e);
  /// Deepest stage the entry's generation reached and its tier there.
  static void deepest_of(const Entry& e, int& stage, int& tier);

  /// Find the nearest entry (exact scan or LSH probe); returns the entry
  /// index or npos, with the distance in `best_d`.
  std::size_t nearest(const std::vector<double>& key, double& best_d);
  std::size_t nearest_scan(const std::vector<double>& key, double& best_d);
  std::size_t nearest_lsh(const std::vector<double>& key, double& best_d);
  /// The query-directed probe expansion of nearest_lsh (instantiated only
  /// there): calls `probe(table, code)` for every cell the budget and the
  /// expected-recall bound admit.
  template <typename ProbeFn>
  void nearest_lsh_adaptive(const std::vector<double>& key, ProbeFn&& probe);

  /// A candidate probe set of the adaptive expansion: a bitmask over the
  /// cost-sorted perturbation array (at most 2*32 = 64 perturbations, so
  /// one word always fits) plus the highest set index — a 24-byte POD,
  /// so frontier churn allocates nothing.
  struct ProbeSet {
    double cost = 0.0;
    std::uint64_t mask = 0;
    std::uint8_t last = 0;
  };
  /// Min-order for the expansion frontier: cheapest set first, exact
  /// cost ties broken on the smaller mask (any fixed order keeps the
  /// expansion deterministic).
  static bool probe_set_after(const ProbeSet& a, const ProbeSet& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.mask > b.mask;
  }

  /// Entry index for a prompt, or npos.
  std::size_t find_prompt(quality::QueryId prompt) const;
  /// Shared refresh-or-create skeleton of insert / insert_latent: returns
  /// the entry index (evicting if a new entry was needed), with the key
  /// and recency refreshed.
  std::size_t upsert_entry(quality::QueryId prompt,
                           const std::vector<double>& key, double now);
  void evict_one();
  /// Victim index under the reference O(N) scan.
  std::size_t victim_scan() const;
  /// Victim index under the lazy heap (pops stale pairs on the way).
  std::size_t victim_heap();

  // --- lazy eviction heap ---------------------------------------------------
  /// One pushed (score, version) pair. Identified by prompt (stable
  /// across the entry vector's swap-removes); `order` breaks score ties
  /// exactly like the scan does.
  struct HeapItem {
    double score = 0.0;
    std::uint64_t order = 0;
    std::uint64_t version = 0;
    quality::QueryId prompt = 0;
  };
  /// Min-heap order over (score, order) — `a` sorts after `b`. The same
  /// lexicographic minimum the scan's strict-<-with-order-tie-break finds.
  static bool heap_after(const HeapItem& a, const HeapItem& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.order > b.order;
  }
  /// Re-stamp the entry's version and push its current score; compacts
  /// the heap when stale pairs outnumber live entries. No-op under
  /// EvictionKind::kScan.
  void heap_touch(Entry& e);
  /// Rebuild the heap from the live entries, shedding stale pairs.
  void heap_compact();

  // --- LSH index maintenance ------------------------------------------------
  void ensure_planes(std::size_t dim);
  /// Quantized projection cells of `key` under table `table`. With
  /// `fracs`, also the key's fractional position inside each cell in
  /// [0, 1) (0 = lower boundary) — what query-directed probing ranks
  /// neighbour cells by.
  void cells_of(std::size_t table, const std::vector<double>& key,
                std::int64_t* cells, double* fracs = nullptr) const;
  /// Bucket hash of a table's cell vector.
  std::uint64_t hash_cells(std::size_t table, const std::int64_t* cells) const;
  std::uint64_t code_of(std::size_t table, const std::vector<double>& key) const;
  void index_add(std::size_t idx);
  void index_remove(std::size_t idx);
  /// After a swap-remove moved the entry at `from` to `to`, rewrite its
  /// bucket references.
  void index_move(std::size_t from, std::size_t to);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  CacheConfig cfg_;
  bool indexed_ = false;
  std::vector<Entry> entries_;
  /// prompt -> entry index (keeps refresh O(1) at million-entry sizes).
  std::unordered_map<quality::QueryId, std::size_t> by_prompt_;
  /// Projection directions, kLshTables x the projections per table, built
  /// lazily at the first key (the key dimension is not known at
  /// construction), plus one quantization offset each.
  std::vector<std::vector<double>> planes_;
  std::vector<double> plane_offsets_;
  double lsh_cell_width_ = 1.0;
  /// Per-table bucket map: cell-vector hash -> entry indices.
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::size_t>>>
      buckets_;
  CacheStats stats_;
  std::uint64_t next_order_ = 0;
  /// Monotone lookup counter backing Entry::visit_epoch.
  std::uint64_t lookup_epoch_ = 0;
  /// Lazy eviction min-heap over (score, order), std::*_heap-managed.
  std::vector<HeapItem> heap_;
  /// Monotone stamp backing Entry::version / HeapItem::version.
  std::uint64_t next_version_ = 0;
  /// Smoothed candidates-per-probed-cell yield the adaptive probe budget
  /// divides by (updated per indexed lookup; deterministic).
  double probe_yield_ewma_ = 1.0;
  /// Adaptive-probe frontier scratch (reused across lookups so the hot
  /// path never allocates).
  std::vector<ProbeSet> probe_frontier_;
};

}  // namespace diffserve::cache
