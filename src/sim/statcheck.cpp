#include "sim/statcheck.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

#include "common/assert.h"
#include "common/stats.h"
#include "sim/telemetry_export.h"  // json_escape

namespace asyncgossip {

namespace {

// Same JSON-safe numeric rendering as the telemetry exporter.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

StatReport check_bounds(const std::vector<StatCell>& cells,
                        const StatCheckConfig& config) {
  if (!(config.slack > 0.0)) throw ApiError("statcheck: slack must be > 0");

  StatReport report;
  report.quantile = config.quantile;
  report.slack = config.slack;
  report.cells.reserve(cells.size());

  // Pass 1: per-cell quantiles and ratios.
  for (const StatCell& cell : cells) {
    if (!(cell.envelope > 0.0))
      throw ApiError("statcheck: cell '" + cell.label +
                     "' has a non-positive envelope");
    StatCellVerdict v;
    v.group = cell.group;
    v.label = cell.label;
    v.metric = cell.metric;
    v.trials = cell.samples.size();
    v.envelope = cell.envelope;
    if (cell.samples.empty())
      throw ApiError("statcheck: cell '" + cell.label + "' has no samples");
    std::vector<double> sorted = cell.samples;
    std::sort(sorted.begin(), sorted.end());
    v.quantile_value = quantile(sorted, config.quantile);
    v.ratio = v.quantile_value / cell.envelope;
    v.calibration = cell.calibration;
    report.total_trials += cell.samples.size();
    report.cells.push_back(std::move(v));
  }

  // Pass 2: fit each group's constant from its calibration cells.
  std::map<std::string, double> fitted;
  for (const StatCellVerdict& v : report.cells)
    if (v.calibration) {
      auto [it, inserted] = fitted.emplace(v.group, v.ratio);
      if (!inserted) it->second = std::max(it->second, v.ratio);
    }

  // Pass 3: verdicts.
  for (StatCellVerdict& v : report.cells) {
    const auto it = fitted.find(v.group);
    if (it == fitted.end())
      throw ApiError("statcheck: group '" + v.group +
                     "' has no calibration cell");
    // A degenerate calibration (all-zero observations) would make every
    // nonzero observation a failure; use a floor of one observation unit.
    v.constant = std::max(it->second, 1e-12) * config.slack;
    v.bound = v.constant * v.envelope;
    v.pass = v.calibration || v.quantile_value <= v.bound;
  }
  return report;
}

std::string StatReport::summary() const {
  std::ostringstream os;
  for (const StatCellVerdict& c : cells) {
    if (c.pass) continue;
    os << c.label << " [" << c.metric << "]: quantile " << num(quantile)
       << " = " << num(c.quantile_value) << " exceeds bound " << num(c.bound)
       << " (= " << num(c.constant) << " * envelope " << num(c.envelope)
       << ", " << c.trials << " trials)\n";
  }
  return os.str();
}

void write_statcheck_json(
    std::ostream& os, const StatReport& report,
    const std::vector<std::pair<std::string, std::string>>& run_info) {
  os << "{\n  \"schema\": \"asyncgossip-statcheck-v1\",\n  \"run\": {";
  for (std::size_t i = 0; i < run_info.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << json_escape(run_info[i].first) << "\": \""
       << json_escape(run_info[i].second) << '"';
  }
  os << "},\n";
  os << "  \"quantile\": " << num(report.quantile) << ",\n";
  os << "  \"slack\": " << num(report.slack) << ",\n";
  os << "  \"total_trials\": " << report.total_trials << ",\n";
  os << "  \"ok\": " << (report.ok() ? "true" : "false") << ",\n";
  os << "  \"cells\": [";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const StatCellVerdict& c = report.cells[i];
    os << (i == 0 ? "" : ",") << "\n    {\"group\": \""
       << json_escape(c.group) << "\", \"label\": \"" << json_escape(c.label)
       << "\", \"metric\": \"" << json_escape(c.metric)
       << "\", \"trials\": " << c.trials
       << ", \"envelope\": " << num(c.envelope)
       << ", \"quantile_value\": " << num(c.quantile_value)
       << ", \"ratio\": " << num(c.ratio)
       << ", \"constant\": " << num(c.constant)
       << ", \"bound\": " << num(c.bound) << ", \"calibration\": "
       << (c.calibration ? "true" : "false")
       << ", \"pass\": " << (c.pass ? "true" : "false") << '}';
  }
  os << "\n  ]\n}\n";
}

}  // namespace asyncgossip
