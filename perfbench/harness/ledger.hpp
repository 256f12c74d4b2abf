// The benchmark's own statistics and tracing.
//
// Statistics: median and quartiles (the quartiles match Python's
// statistics.quantiles(values, n=4), so in-run spreads read the same as
// the ones computed over many runs), a linear-interpolated percentile, and
// the rule that a percentile is reported only when at least ten samples
// lie beyond it.
//
// Tracing: spans recorded from the benchmark's side of each layer seam —
// name, start, end, parent span, and query id — kept in memory per thread
// and written out when the run ends. A span's self time is its duration
// minus the part of it that child spans cover; the recorder folds self
// time into per-layer aggregates as spans close, so the ledger never has
// to re-walk the (capped) span log. Everything is a no-op unless tracing
// is enabled.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
/// Python statistics.quantiles(v, n=4) ("exclusive" method). Needs >= 2
/// values; a single value yields it for all three cut points.
Quartiles quartiles(std::vector<double> v);

/// Samples strictly beyond the p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);
/// Whether the p-th percentile of n samples has >= 10 samples beyond it.
bool percentile_supported(std::size_t n, double p);
/// The highest percentile n samples support (0 when n < 11).
double highest_supported_percentile(std::size_t n);

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty vector.
double percentile(std::vector<double> v, double p);

/// Mean of the largest `share` of the values (0 = the plain mean). Unlike
/// a percentile it moves with every sample in its range, so it stays
/// informative on distributions with atoms (deadline-bound completions,
/// fixed model latencies).
double tail_mean(std::vector<double> v, double share);

struct Percentile {
  double value = 0.0;
  double percentile = 0.0;  ///< the percentile actually reported
  std::size_t samples = 0;
  bool clamped = false;  ///< requested percentile lacked support
};
/// The p-th percentile, or the highest supported one below it when n
/// samples cannot support p (recorded in `clamped`).
Percentile supported_percentile(const std::vector<double>& v, double p);

/// Length of the union of intervals fed in non-decreasing start order,
/// clipped below at `floor` (the parent's start).
class Coverage {
 public:
  explicit Coverage(double floor) : last_end_(floor) {}
  void add(double start, double end);
  double covered() const { return covered_; }

 private:
  double last_end_;
  double covered_ = 0.0;
};

// ---- tracing ---------------------------------------------------------------

/// Layer boundaries a span can mark.
enum class SpanKind : std::uint8_t {
  kSimRun,           ///< Simulation::run_until + run_all (DES root)
  kEngineSubmit,     ///< CascadeEngine::submit_next / submit
  kEngineCallback,   ///< engine timer or batch-completion callback
  kControlTick,      ///< controller tick callback
  kControlSolve,     ///< Allocator::allocate
  kEngineApply,      ///< CascadeEngine::apply (cluster: plan frame)
  kBackendCall,      ///< ExecutionBackend::defer / execute / cancel
  kGuardWait,        ///< waiting for the engine guard
  kTerminalObserver, ///< the engine's terminal observer
  kNetSend,          ///< Endpoint::send
  kNetReceive,       ///< an endpoint's receiver callback
  kClusterSubmit,    ///< ShardFrontend::submit_next
  kSinkFid,          ///< MetricsSink::overall_fid
  kSinkTimeline,     ///< MetricsSink::timeline
  kSinkPercentile,   ///< MetricsSink::latency_percentile
  kCount
};
const char* span_name(SpanKind k);

/// Sample series kept for percentiles.
enum class SampleKind : std::uint8_t {
  kSolveUs,
  kApplyUs,
  kSendUs,
  kGuardWaitUs,
  kTimerLateUs,
  kExecLateUs,
  kCount
};

/// Steady-clock nanoseconds since the first call (small enough that span
/// arithmetic in double stays exact).
inline std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

struct SpanRecord {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  ///< index in the same thread's log, -1 = root
  SpanKind kind = SpanKind::kSimRun;
  std::uint64_t query = 0;  ///< query seq + 1; 0 = not tied to one query
};

struct KindTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Recorder {
 public:
  static Recorder& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drop every aggregate, sample, and span. Only between iterations:
  /// no other thread may be recording.
  void reset();

  // Span lifecycle, called by Span; begin/end must nest per thread.
  void begin(SpanKind k, std::uint64_t query);
  void end();

  void sample(SampleKind k, double value);

  KindTotals totals(SpanKind k) const;
  std::vector<double> samples(SampleKind k) const;
  std::size_t spans_kept() const;
  std::size_t spans_dropped() const;

  /// Write every kept span as TSV (thread, id, parent, name, start_ns,
  /// end_ns, query) after the header lines; returns false on I/O error.
  bool write(const std::string& path,
             const std::vector<std::string>& header) const;

  /// Per-thread span-log cap (bounds memory on long traced runs).
  static constexpr std::size_t kMaxSpansPerThread = 200000;

 private:
  struct Open {
    std::int64_t start;
    Coverage children;  ///< nested children close in start order
    std::int32_t index;
    SpanKind kind;
    std::uint64_t query;
  };
  struct ThreadLog {
    std::vector<Open> stack;
    std::vector<SpanRecord> spans;
    std::size_t dropped = 0;
    std::array<KindTotals, static_cast<std::size_t>(SpanKind::kCount)>
        totals{};
    std::array<std::vector<double>,
               static_cast<std::size_t>(SampleKind::kCount)>
        samples;
  };
  ThreadLog& local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  explicit Span(SpanKind k, std::uint64_t query = 0)
      : on_(Recorder::instance().enabled()) {
    if (on_) Recorder::instance().begin(k, query);
  }
  ~Span() {
    if (on_) Recorder::instance().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

inline bool tracing() { return Recorder::instance().enabled(); }

/// Consume a result so the compiler cannot drop the timed work that
/// produced it.
void keep(double v);

}  // namespace perfbench
