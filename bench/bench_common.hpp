// Shared helpers for the figure-reproduction bench binaries: consistent
// stdout tables plus CSV output next to the binary so plots can be
// regenerated without re-running, machine-readable JSON metric dumps
// (bench_results/BENCH_<name>.json) so the perf trajectory is trackable
// across PRs, environment construction, and the timeline/summary row
// boilerplate every figure main repeats.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "util/csv.hpp"

namespace diffserve::bench {

inline std::string results_dir() {
  const std::string dir = "bench_results";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

inline std::string csv_path(const std::string& name) {
  return results_dir() + "/" + name + ".csv";
}

inline void banner(const char* figure, const char* caption) {
  std::printf("\n=== %s — %s ===\n", figure, caption);
}

/// Environment with the given evaluation-set size over a catalog cascade
/// (defaults to the paper's Cascade 1).
inline core::CascadeEnvironment make_env(
    std::size_t workload_queries,
    const std::string& cascade = models::catalog::kCascade1) {
  core::EnvironmentConfig ec;
  ec.cascade = cascade;
  ec.workload_queries = workload_queries;
  return core::CascadeEnvironment(ec);
}

/// Aligned stdout table mirrored row-for-row into a CSV file, plus a flat
/// machine-readable metric map written to bench_results/BENCH_<name>.json
/// on destruction (key "<first cell>.<column>" for every numeric cell,
/// plus any explicit metric() calls) so CI and cross-PR tooling can track
/// the numbers without parsing tables. Prints the `[csv]`/`[json]` path
/// footers on destruction. Keeps figure mains declarative: construct with
/// the columns, call row() per experiment.
class ReportTable {
 public:
  ReportTable(const std::string& csv_name, std::vector<std::string> columns,
              std::vector<int> widths = {})
      : csv_(csv_path(csv_name), columns),
        json_path_(results_dir() + "/BENCH_" + csv_name + ".json"),
        columns_(columns),
        widths_(std::move(widths)) {
    if (widths_.empty())
      for (const auto& c : columns)
        widths_.push_back(static_cast<int>(c.size()) + 4 < 10
                              ? 10
                              : static_cast<int>(c.size()) + 4);
    for (std::size_t i = 0; i < columns.size(); ++i)
      std::printf("%-*s ", widths_[i], columns[i].c_str());
    std::printf("\n");
  }
  ~ReportTable() {
    write_json();
    std::printf("[csv] %s\n", csv_.path().c_str());
    std::printf("[json] %s\n", json_path_.c_str());
  }

  void row(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      std::printf("%-*s ", widths_[i], cells[i].c_str());
    std::printf("\n");
    csv_.add_row(cells);
    // Numeric cells become "<row label>.<column>" metrics.
    for (std::size_t i = 1; i < cells.size() && i < columns_.size(); ++i) {
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(cells[i].c_str(), &end);
      if (errno == 0 && end != cells[i].c_str() && *end == '\0')
        metric(cells[0] + "." + columns_[i], v);
    }
  }
  void row(const std::vector<double>& cells) {
    std::vector<std::string> formatted;
    formatted.reserve(cells.size());
    for (const double v : cells) formatted.push_back(fmt(v));
    row(formatted);
  }

  /// Record an explicit metric -> value pair for the JSON dump (rows
  /// record their numeric cells automatically). Re-recording a key keeps
  /// the latest value.
  void metric(const std::string& name, double value) {
    for (auto& m : metrics_)
      if (m.first == name) {
        m.second = value;
        return;
      }
    metrics_.emplace_back(name, value);
  }

  /// Compact cell formatting (shorter than CsvWriter's lossless format —
  /// these cells also render in the stdout table).
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
  }

  util::CsvWriter& csv() { return csv_; }

 private:
  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20)
        continue;  // metric names never need control characters
      out.push_back(c);
    }
    return out;
  }

  void write_json() const {
    std::ofstream out(json_path_);
    if (!out) return;
    out << "{\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      out << "  \"" << json_escape(metrics_[i].first)
          << "\": " << util::CsvWriter::format(metrics_[i].second)
          << (i + 1 < metrics_.size() ? ",\n" : "\n");
    out << "}\n";
  }

  util::CsvWriter csv_;
  std::string json_path_;
  std::vector<std::string> columns_;
  std::vector<int> widths_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// The one-line summary every comparison figure prints per experiment:
/// approach, FID, violation ratio, mean latency, light-served share.
inline const std::vector<std::string>& summary_columns() {
  static const std::vector<std::string> cols = {
      "approach", "fid", "violation_ratio", "mean_latency", "light_pct"};
  return cols;
}

inline std::vector<std::string> summary_cells(core::Approach approach,
                                              const core::RunReport& r) {
  return {core::to_string(approach), ReportTable::fmt(r.overall_fid),
          ReportTable::fmt(r.violation_ratio),
          ReportTable::fmt(r.mean_latency),
          ReportTable::fmt(100.0 * r.light_served_fraction)};
}

/// Timeline rows (Figure 5/8 shape): per window time, demand, FID,
/// violation ratio, and the threshold sampled from the nearest control
/// snapshot at or before the window.
inline void add_timeline_rows(util::CsvWriter& csv, core::Approach approach,
                              const core::RunReport& r,
                              const trace::RateTrace& tr) {
  for (const auto& pt : r.timeline) {
    double threshold = 0.0;
    for (const auto& h : r.control_history)
      if (h.time <= pt.time)
        threshold = h.decision.thresholds.empty()
                        ? 1.0
                        : h.decision.thresholds.front();
    csv.add_row(std::vector<std::string>{
        core::to_string(approach), util::CsvWriter::format(pt.time),
        util::CsvWriter::format(tr.qps_at(pt.time)),
        util::CsvWriter::format(pt.fid),
        util::CsvWriter::format(pt.violation_ratio),
        util::CsvWriter::format(threshold)});
  }
}

}  // namespace diffserve::bench
