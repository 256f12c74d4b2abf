#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles, method="exclusive": m = n + 1 and the i-th cut
  // point interpolates data[j-1] and data[j] with j = i*m // 4.
  // j is clamped to [1, n-1] before delta is taken, as Python does, so
  // small samples extrapolate past the extremes.
  const auto n = static_cast<long long>(v.size());
  const long long m = n + 1;
  double cut[3];
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto at = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return at >= n ? 0 : n - at;
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

double highest_supported_percentile(std::size_t n) {
  if (n < 11) return 0.0;
  // Largest p with n - ceil(p n / 100) >= 10, i.e. p n / 100 <= n - 10.
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_mean(std::vector<double> v, double share) {
  if (v.empty()) return 0.0;
  std::size_t k = v.size();
  if (share > 0.0)
    k = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(share * static_cast<double>(k))));
  std::nth_element(v.begin(), v.end() - static_cast<std::ptrdiff_t>(k),
                   v.end());
  double sum = 0.0;
  for (auto it = v.end() - static_cast<std::ptrdiff_t>(k); it != v.end(); ++it)
    sum += *it;
  return sum / static_cast<double>(k);
}

Percentile supported_percentile(const std::vector<double>& v, double p) {
  Percentile out;
  out.samples = v.size();
  out.percentile = p;
  if (!percentile_supported(v.size(), p)) {
    out.clamped = true;
    out.percentile = highest_supported_percentile(v.size());
  }
  out.value = percentile(v, out.percentile);
  return out;
}

void Coverage::add(double start, double end) {
  start = std::max(start, last_end_);
  if (end > start) covered_ += end - start;
  last_end_ = std::max(last_end_, end);
}

namespace {
volatile double kept = 0.0;
}  // namespace

void keep(double v) { kept = v; }

// ---- tracing ---------------------------------------------------------------

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kEngineSubmit: return "engine.submit";
    case SpanKind::kEngineCallback: return "engine.callback";
    case SpanKind::kControlTick: return "control.tick";
    case SpanKind::kControlSolve: return "control.solve";
    case SpanKind::kEngineApply: return "engine.apply";
    case SpanKind::kBackendCall: return "backend.call";
    case SpanKind::kGuardWait: return "runtime.guard_wait";
    case SpanKind::kTerminalObserver: return "engine.terminal_observer";
    case SpanKind::kNetSend: return "net.send";
    case SpanKind::kNetReceive: return "net.receive";
    case SpanKind::kClusterSubmit: return "cluster.submit";
    case SpanKind::kSinkFid: return "sink.fid";
    case SpanKind::kSinkTimeline: return "sink.timeline";
    case SpanKind::kSinkPercentile: return "sink.percentile";
    case SpanKind::kCount: break;
  }
  return "?";
}

Recorder& Recorder::instance() {
  static Recorder r;
  return r;
}

Recorder::ThreadLog& Recorder::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    log = owned.get();
    std::lock_guard<std::mutex> lk(mu_);
    logs_.push_back(std::move(owned));
  }
  return *log;
}

void Recorder::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& log : logs_) {
    if (!log->stack.empty())
      throw std::logic_error("recorder reset with an open span");
    log->spans.clear();
    log->spans.shrink_to_fit();
    log->dropped = 0;
    log->totals = {};
    for (auto& s : log->samples) {
      s.clear();
      s.shrink_to_fit();
    }
  }
}

void Recorder::begin(SpanKind k, std::uint64_t query) {
  ThreadLog& log = local();
  const std::int64_t t = now_ns();
  std::int32_t index = -1;
  if (log.spans.size() < kMaxSpansPerThread) {
    index = static_cast<std::int32_t>(log.spans.size());
    SpanRecord r;
    r.start = t;
    r.parent = log.stack.empty() ? -1 : log.stack.back().index;
    r.kind = k;
    r.query = query;
    log.spans.push_back(r);
  } else {
    ++log.dropped;
  }
  log.stack.push_back(Open{t, Coverage(static_cast<double>(t)), index, k,
                           query});
}

void Recorder::end() {
  ThreadLog& log = local();
  const std::int64_t t = now_ns();
  const Open open = log.stack.back();
  log.stack.pop_back();
  const std::int64_t dur = t - open.start;
  KindTotals& tot = log.totals[static_cast<std::size_t>(open.kind)];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur - static_cast<std::int64_t>(open.children.covered());
  if (open.index >= 0) log.spans[static_cast<std::size_t>(open.index)].end = t;
  if (!log.stack.empty())
    log.stack.back().children.add(static_cast<double>(open.start),
                                  static_cast<double>(t));
}

void Recorder::sample(SampleKind k, double value) {
  local().samples[static_cast<std::size_t>(k)].push_back(value);
}

KindTotals Recorder::totals(SpanKind k) const {
  std::lock_guard<std::mutex> lk(mu_);
  KindTotals out;
  for (const auto& log : logs_) {
    const KindTotals& t = log->totals[static_cast<std::size_t>(k)];
    out.count += t.count;
    out.total_ns += t.total_ns;
    out.self_ns += t.self_ns;
  }
  return out;
}

std::vector<double> Recorder::samples(SampleKind k) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const auto& log : logs_) {
    const auto& s = log->samples[static_cast<std::size_t>(k)];
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

std::size_t Recorder::spans_kept() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans.size();
  return n;
}

std::size_t Recorder::spans_dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->dropped;
  return n;
}

bool Recorder::write(const std::string& path,
                     const std::vector<std::string>& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& h : header) std::fprintf(f, "# %s\n", h.c_str());
  std::fprintf(f, "thread\tid\tparent\tname\tstart_ns\tend_ns\tquery\n");
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    const auto& spans = logs_[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      // Query ids are stored +1 so 0 can mean "no query"; print -1 then.
      std::fprintf(f, "%zu\t%zu\t%d\t%s\t%lld\t%lld\t%lld\n", t, i, s.parent,
                   span_name(s.kind), static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.query) - 1);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
