// Shared pieces of the three workloads: options, one iteration's result,
// the end-to-end and per-layer metric tables, and the helpers every
// workload uses to turn iterations into a report.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/environment.hpp"
#include "engine/engine.hpp"
#include "seams.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
};

/// Name -> value; units live in the metric tables below.
using MetricMap = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Untraced metrics, in output order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Traced metrics, in output order. A layer a workload bypasses reads 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Wall and CPU seconds of a fixed CPU-bound reference job with a small
/// working set: a xorshift stream through a 4,096-entry binary heap and
/// hash map, kCalibrationRounds rounds. The shared host's single-threaded
/// speed drifts by up to 30 % over seconds to minutes; set-up and DES
/// serving slow down and speed up with this job, so those timings are
/// reported at the reference speed, where the job takes
/// kReferenceCalibrationSeconds. Wall figures are scaled by the job's
/// wall time, CPU figures by its CPU time.
struct Calibration {
  double wall = 0.0;
  double cpu = 0.0;
};
constexpr int kCalibrationRounds = 40;
constexpr double kReferenceCalibrationSeconds = 0.025;
/// Run `rounds` rounds of the job; the times are scaled to the full
/// kCalibrationRounds, so short slices of it read on the same scale.
Calibration calibrate(int rounds = kCalibrationRounds);

/// Latency of one realization's completions, from scheduled arrival.
struct LatencyStats {
  std::size_t samples = 0;
  double mean = 0.0;
  double tail_mean = 0.0;  ///< mean of the slowest kTailShare
  double p50 = 0.0;
  double p99 = 0.0;
};

/// One serving pass over a workload's arrival stream.
struct Iteration {
  TerminalLedger::Summary terminals;  ///< counts; latencies moved out
  LatencyStats latency;
  double trace_seconds = 0.0;  ///< goodput denominator
  double wall_seconds = 0.0;   ///< serving plus the sink's reports
  double cpu_seconds = 0.0;    ///< process user+sys over the same span
  double fid = 0.0;
  double peak_rss_mb = 0.0;  ///< resident high-water mark while serving
  /// Host speed while serving, for the scaled rates: on the DES the mean
  /// of the calibration slices taken through the realization (untraced
  /// only), on the cluster the mean of the calibrations just before and
  /// after it.
  Calibration calibration;
  // The sink's own view, for the cross-checks.
  std::size_t sink_completed = 0;
  std::size_t sink_dropped = 0;
  double sink_violation_ratio = 0.0;
  MetricMap layers;  ///< per-layer metrics (traced iterations only)
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap metrics;
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// The shared environment. It is rebuilt before every measured
/// realization, so set-up time is sampled across the whole run, and each
/// build is bracketed by two calibrations; the latest build is the one
/// served from. A build is deterministic, so serving from any of them
/// gives the same result.
class Setup {
 public:
  /// Time a fresh environment build, between two calibrations, that
  /// replaces the current one.
  void rebuild();
  const core::CascadeEnvironment& env() const { return *env_; }
  /// Median build time at the reference host speed: each build is scaled
  /// by the mean of the two calibrations around it.
  double calibrated_seconds() const;

  std::vector<double> build_seconds;      ///< one per build
  std::vector<Calibration> calibrations;  ///< one per build, bracketing
  MetricMap layers;                       ///< setup.* (traced runs)

 private:
  std::unique_ptr<core::CascadeEnvironment> env_;
};

/// Share of the slowest completions latency_tail_mean_s averages.
constexpr double kTailShare = 0.05;

double cpu_seconds();
/// Reset the process's resident-set high-water mark, so peak_rss_mb()
/// reads the peak of what runs after (one realization, not the run).
void reset_peak_rss();
double peak_rss_mb();
double wall_seconds();

/// Store the ledger's summary, folding its per-query latencies into
/// `latency` (a run keeps no per-query data across realizations, so the
/// benchmark's own memory stays out of peak_rss_mb).
void set_terminals(Iteration& it, TerminalLedger::Summary summary);

/// Ledger checks shared by every workload: terminals conserved, the
/// ledger agrees with the sink, enough samples for p99.
void check_iteration(const Iteration& it, Report& report,
                     const std::string& label);

/// End-to-end metrics over a run's realizations, as medians of the
/// realizations' values (robust to a burst of machine noise) — except
/// that with `pooled_rates`, for workloads whose realizations differ in
/// work, wall_qps and cpu_ms_per_query are ratios of sums. With
/// `scale_wall` (`scale_cpu`) each realization's wall (CPU) seconds are
/// first scaled to the reference host speed by its own calibration's
/// wall (CPU) time. Set-up is Setup::calibrated_seconds().
MetricMap end_to_end(const std::vector<Iteration>& its, const Setup& setup,
                     bool pooled_rates, bool scale_wall, bool scale_cpu);

/// Realizations a traced run also serves untraced, interleaved with
/// their traced twins, to measure the tracing overhead.
constexpr std::size_t kOverheadPairs = 3;

/// Per-layer metrics as medians over the traced realizations, plus the
/// tracing overhead: the extra cost per query of the first
/// untraced.size() traced realizations over `untraced`, the same
/// realizations served without tracing just before each (so host drift
/// hits both alike). Cost is CPU seconds with `cpu_cost`, else wall.
MetricMap per_layer(const std::vector<Iteration>& traced,
                    const std::vector<Iteration>& untraced,
                    const Setup& setup, bool cpu_cost);

/// Add the recorder's span and sample figures common to every workload.
void add_span_layers(MetricMap& m);
/// Worker-level engine figures summed over `engines`.
void add_engine_layers(MetricMap& m,
                       const std::vector<const engine::CascadeEngine*>& engines,
                       const engine::MetricsSink& sink);
/// Boundary-0 discriminator cost per call, replayed outside the engine
/// over the served images' features.
double replay_confidence_ns(const core::CascadeEnvironment& env,
                            const engine::MetricsSink& sink);
/// Confidence calls implied by the sink's records (one per query that
/// finished stage 0 without an exact cache hit).
double derived_confidence_calls(const engine::MetricsSink& sink);

/// Arrival seeds of one run: realization k of run seed s. Serving many
/// realizations per run averages out how much work one arrival stream
/// happens to cause (MILP solve times differ 3x between seeds), so runs
/// with different seeds measure comparable work.
std::vector<std::uint64_t> realization_seeds(std::uint64_t seed,
                                             std::size_t count);
/// Realizations a run of `seconds` serves: one per `seconds_per_realization`
/// of the run length. Fixed by the run length, never by the measured
/// speed, so a faster program serves the same inputs. Each workload sets
/// its own density, so its spread between runs stays well within its
/// bounds while the runs of all workloads fit their time limit; it is
/// not a realization's measured time (see perfbench/NOTES.md).
std::size_t realization_count(double seconds, double seconds_per_realization);

/// Each serves its realizations from `setup`, rebuilding it before each.
Report run_des_workload(const Options& opt, Setup& setup);
Report run_cluster_workload(const Options& opt, Setup& setup);

}  // namespace perfbench
