// Typed messages over the frame codec — the cluster control/data plane.
//
// Five topics cover everything the sharded topology exchanges:
//
//   query/submit         frontend -> shard   admit one routed Query
//   query/terminal       shard -> frontend   completion or drop
//   shard/stats_request  frontend -> shard   poll a stats snapshot
//   shard/stats          shard -> frontend   demand/queues/cache snapshot
//   cluster/plan         frontend -> shard   per-shard AllocationPlan
//
// Serialization is a fixed field order of big-endian integers; doubles
// travel as their IEEE-754 bit pattern in a u64, so encode(decode(bytes))
// is byte-exact — the round-trip tests assert equality on the wire
// bytes, not on post-decode values. decode() returns false unless the
// payload parses completely with zero trailing bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/approx_cache.hpp"
#include "engine/plan.hpp"
#include "engine/query.hpp"
#include "net/frame.hpp"

namespace diffserve::net {

inline constexpr char kTopicQuery[] = "query/submit";
inline constexpr char kTopicTerminal[] = "query/terminal";
inline constexpr char kTopicStatsRequest[] = "shard/stats_request";
inline constexpr char kTopicStats[] = "shard/stats";
inline constexpr char kTopicPlan[] = "cluster/plan";

/// Frontend -> shard: one admitted query, routing already decided.
struct QueryMsg {
  std::uint32_t shard = 0;
  engine::Query query;
};

/// Shard -> frontend: a query reached its terminal (served or dropped).
/// Carries no image feature: quality::served_image_feature is a pure
/// function of (workload, query, tier), so the frontend's sink recomputes
/// it bit-identically from the replicated workload.
struct TerminalMsg {
  std::uint32_t shard = 0;
  engine::Query query;
  double time = 0.0;
  std::int32_t served_tier = -1;  ///< -1 on drops
  bool dropped = false;
};

/// Frontend -> shard: reply with a shard/stats frame. `token` echoes back
/// so the controller can discard snapshots from a superseded tick.
struct StatsRequestMsg {
  std::uint32_t shard = 0;
  std::uint64_t token = 0;
};

struct StageSnapshot {
  double queue_length = 0.0;
  double arrival_rate = 0.0;
  std::int32_t workers = 0;
};

/// Shard -> frontend: everything the cluster controller folds into its
/// global allocation input. CacheStats counters are additive, so the
/// controller sums them across shards before differencing.
struct ShardStatsMsg {
  std::uint32_t shard = 0;
  std::uint64_t token = 0;
  double time = 0.0;
  double demand_rate = 0.0;
  double recent_violation_ratio = 0.0;
  std::uint64_t submitted = 0;
  bool cache_enabled = false;
  cache::CacheStats cache;
  std::vector<StageSnapshot> stages;
  /// Per-SLO-class arrival rates (QPS, indexed by engine::QueryClass).
  std::vector<double> class_demand;
};

/// Frontend -> shard: this shard's slice of the global allocation.
struct PlanMsg {
  std::uint32_t shard = 0;
  engine::AllocationPlan plan;
};

Frame encode(const QueryMsg& m);
Frame encode(const TerminalMsg& m);
Frame encode(const StatsRequestMsg& m);
Frame encode(const ShardStatsMsg& m);
Frame encode(const PlanMsg& m);

bool decode(const Frame& f, QueryMsg* out);
bool decode(const Frame& f, TerminalMsg* out);
bool decode(const Frame& f, StatsRequestMsg* out);
bool decode(const Frame& f, ShardStatsMsg* out);
bool decode(const Frame& f, PlanMsg* out);

}  // namespace diffserve::net
