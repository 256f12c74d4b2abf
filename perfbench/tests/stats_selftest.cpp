// Self-tests for the benchmark's own statistics. The benchmark runs them
// before every measurement and refuses to report if one fails; run them
// alone with `python3 perfbench/run.py --selftest`.
//
// Expected quartiles come from Python's statistics.quantiles(v, n=4),
// the function the run-to-run spread is judged with.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "../harness/ledger.hpp"

namespace perfbench {
namespace {

struct Checker {
  int failures = 0;
  bool verbose = false;
  void near(const std::string& what, double got, double want) {
    const bool ok = std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
    if (!ok || verbose)
      std::printf("selftest %s: %s got %.12g want %.12g\n", ok ? "ok" : "FAIL",
                  what.c_str(), got, want);
    if (!ok) ++failures;
  }
  void truth(const std::string& what, bool got, bool want) {
    near(what, got ? 1.0 : 0.0, want ? 1.0 : 0.0);
  }
};

void median_and_quartiles(Checker& c) {
  c.near("median odd", median({3, 1, 2}), 2.0);
  c.near("median even", median({4, 1, 3, 2}), 2.5);
  c.near("median empty", median({}), 0.0);
  const struct {
    std::vector<double> v;
    double q1, q2, q3;
  } cases[] = {
      {{1, 2, 3, 4, 5}, 1.5, 3.0, 4.5},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{10, 20}, 7.5, 15.0, 22.5},  // extrapolates, as Python does
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{5.5, 1.25, 9.0, 3.0, 7.75, 2.0}, 1.8125, 4.25, 8.0625},
  };
  for (const auto& k : cases) {
    const Quartiles q = quartiles(k.v);
    const std::string n = "quartiles n=" + std::to_string(k.v.size());
    c.near(n + " q1", q.q1, k.q1);
    c.near(n + " q2", q.q2, k.q2);
    c.near(n + " q3", q.q3, k.q3);
  }
}

void percentile_rule(Checker& c) {
  // p99 needs ten samples beyond it: n = 1000 leaves exactly 10.
  c.truth("p99 n=1000 supported", percentile_supported(1000, 99.0), true);
  c.truth("p99 n=999 unsupported", percentile_supported(999, 99.0), false);
  c.truth("p50 n=20 supported", percentile_supported(20, 50.0), true);
  c.truth("p50 n=19 unsupported", percentile_supported(19, 50.0), false);
  c.near("beyond p99 of 2000", static_cast<double>(samples_beyond(2000, 99.0)),
         20.0);
  c.near("highest supported n=100", highest_supported_percentile(100), 90.0);
  c.near("highest supported n=10", highest_supported_percentile(10), 0.0);
  c.truth("highest supported is supported",
          percentile_supported(78, highest_supported_percentile(78)), true);

  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  c.near("p50 of 1..101", percentile(v, 50.0), 51.0);
  c.near("p99 of 1..101", percentile(v, 99.0), 100.0);
  c.near("p25 interpolates", percentile({0.0, 10.0}, 25.0), 2.5);
  c.near("tail_mean plain mean", tail_mean({1, 2, 3, 4}, 0.0), 2.5);
  // ceil(5% of 101) = 6 values: 96..101.
  c.near("tail_mean top 5% of 1..101", tail_mean(v, 0.05), 98.5);
  const Percentile clamped = supported_percentile(v, 99.0);
  c.truth("p99 of 101 clamps", clamped.clamped, true);
  c.near("clamped percentile", clamped.percentile,
         100.0 * 91.0 / 101.0);
  c.near("clamped samples", static_cast<double>(clamped.samples), 101.0);
}

/// Self time as the recorder computes it: the span's duration minus the
/// Coverage of the children that closed inside it, fed in start order.
double self_time(double start, double end,
                 const std::vector<std::pair<double, double>>& children) {
  Coverage cover(start);
  for (const auto& [s, e] : children) cover.add(s, e);
  return (end - start) - cover.covered();
}

void span_self_time(Checker& c) {
  // Parent [0, 100]: children [10, 20] and [30, 50] -> self 70.
  c.near("disjoint children", self_time(0, 100, {{10, 20}, {30, 50}}), 70.0);
  // Overlapping children count once: [10, 40] u [30, 60] = 50.
  c.near("overlapping children", self_time(0, 100, {{10, 40}, {30, 60}}),
         50.0);
  // A child starting before the parent (floor) counts from the parent's
  // start; one inside an earlier child adds nothing.
  c.near("child before the floor", self_time(10, 20, {{0, 15}}), 5.0);
  c.near("child inside a child", self_time(0, 10, {{1, 9}, {2, 3}}), 2.0);
  c.near("no children", self_time(5, 9, {}), 4.0);
  c.near("touching children", self_time(0, 10, {{0, 5}, {5, 10}}), 0.0);

  // The recorder itself: an outer span around two nested spans, the
  // first with a grandchild. A span's self time is its total minus its
  // direct children's totals (the grandchild is the child's business).
  auto& rec = Recorder::instance();
  const bool was_on = rec.enabled();
  rec.reset();
  rec.enable(true);
  {
    Span outer(SpanKind::kSimRun);
    {
      Span child(SpanKind::kEngineCallback);
      Span grandchild(SpanKind::kBackendCall);
      keep(0.0);
    }
    Span child(SpanKind::kEngineCallback);
    keep(0.0);
  }
  rec.enable(was_on);
  const KindTotals outer = rec.totals(SpanKind::kSimRun);
  const KindTotals child = rec.totals(SpanKind::kEngineCallback);
  const KindTotals grandchild = rec.totals(SpanKind::kBackendCall);
  c.near("recorder span counts",
         static_cast<double>(outer.count + child.count + grandchild.count),
         4.0);
  c.near("recorder outer self time", static_cast<double>(outer.self_ns),
         static_cast<double>(outer.total_ns - child.total_ns));
  c.near("recorder child self time", static_cast<double>(child.self_ns),
         static_cast<double>(child.total_ns - grandchild.total_ns));
  c.near("recorder leaf self time", static_cast<double>(grandchild.self_ns),
         static_cast<double>(grandchild.total_ns));
  rec.reset();
}

}  // namespace

bool run_selftests(bool verbose) {
  Checker c;
  c.verbose = verbose;
  median_and_quartiles(c);
  percentile_rule(c);
  span_self_time(c);
  if (verbose || c.failures > 0)
    std::printf("selftest: %d failure(s)\n", c.failures);
  return c.failures == 0;
}

}  // namespace perfbench
