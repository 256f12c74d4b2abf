// Experiment driver: run one serving approach against one trace on one
// cascade environment, in the discrete-event simulator, and collect the
// paper's metrics. This is the primary public API; every evaluation figure
// is a set of run_experiment() calls with different approaches/traces.
#pragma once

#include <cstdint>
#include <vector>

#include "control/controller.hpp"
#include "core/environment.hpp"
#include "core/run_report.hpp"
#include "serving/system.hpp"
#include "trace/arrivals.hpp"
#include "trace/rate_trace.hpp"

namespace diffserve::core {

enum class Approach {
  kDiffServe,             ///< MILP allocation + cascade routing (the system)
  kDiffServeExhaustive,   ///< DiffServe with the exhaustive oracle allocator
  kDiffServeStatic,       ///< fixed threshold, provisioned for peak
  kClipperLight,
  kClipperHeavy,
  kProteus,
  // §4.5 ablations of the resource allocator:
  kAblationStaticThreshold,
  kAblationAimdBatching,
  kAblationNoQueueModel,
};

const char* to_string(Approach a);
/// All five §4.2/4.3 comparison approaches, in the paper's order.
const std::vector<Approach>& comparison_approaches();

struct RunConfig {
  Approach approach = Approach::kDiffServe;
  int total_workers = 16;
  /// Negative = use the cascade's default SLO.
  double slo_seconds = -1.0;
  control::ControllerConfig controller;
  serving::SystemConfig system;  ///< total_workers/slo overridden from above
  trace::RateTrace trace;        ///< must be set
  trace::ArrivalConfig arrivals;
  std::uint64_t arrival_seed = 1;
  /// Simulated drain margin after the trace ends.
  double drain_seconds = 20.0;
  double timeline_window = kDefaultTimelineWindow;
};

RunReport run_experiment(const CascadeEnvironment& env, const RunConfig& cfg);

}  // namespace diffserve::core
