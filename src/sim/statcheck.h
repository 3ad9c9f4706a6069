// Statistical w.h.p. bound checking.
//
// The paper's Table 1 rows are one-sided envelopes that hold with high
// probability: completion time and message counts stay below C * g(n, f, d,
// delta) for some constant C and a claimed shape g. A single run can only
// witness one sample, so the checker works on *trial batches*: for each
// (algorithm x parameter) cell it takes the configured quantile of the
// observed values, normalizes by the claimed shape, and compares against a
// constant C fitted from designated calibration cells (smallest n) times a
// slack factor. A cell fails exactly when its normalized quantile exceeds
// the fitted constant — i.e. when the observations grow *faster* than the
// claimed envelope, which is the failure mode a wrong w.h.p. claim
// produces. Results export as "asyncgossip-statcheck-v1" JSON.
//
// Layering: this module is pure statistics + JSON; the gossip driver that
// builds cells from GossipSpec grids and runs the trial batches through the
// parallel SweepRunner lives in gossip/fuzz_harness.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace asyncgossip {

/// One (algorithm x parameters x metric) cell of a bound check.
struct StatCell {
  /// Constant-fitting group; cells with equal `group` share the fitted C
  /// (typically "algorithm:metric").
  std::string group;
  /// Human-readable cell identity, e.g. "ears/n:64/f:16/d:2/delta:2".
  std::string label;
  /// Which observable the samples measure, e.g. "time" or "messages".
  std::string metric;
  /// Claimed envelope shape g(n, f, d, delta) evaluated at this cell's
  /// parameters, constant-free. Must be > 0.
  double envelope = 1.0;
  /// Calibration cells fit the group constant and always pass; every group
  /// needs at least one.
  bool calibration = false;
  /// Observed values across the cell's trials (one per seed).
  std::vector<double> samples;
};

struct StatCheckConfig {
  /// Order statistic compared against the bound (0 < quantile <= 1).
  /// 1.0 = the per-cell maximum.
  double quantile = 0.9;
  /// Fitted constant = slack * max over the group's calibration cells of
  /// quantile(samples) / envelope. Slack > 1 absorbs the constant's own
  /// sampling noise; the check stays one-sided and shape-sensitive.
  double slack = 2.0;
};

/// One checked cell with its verdict.
struct StatCellVerdict {
  std::string group;
  std::string label;
  std::string metric;
  std::size_t trials = 0;
  double envelope = 0.0;
  /// quantile(samples).
  double quantile_value = 0.0;
  /// quantile_value / envelope — the normalized observation.
  double ratio = 0.0;
  /// The group's fitted constant C.
  double constant = 0.0;
  /// C * envelope — the value the quantile must stay below.
  double bound = 0.0;
  bool calibration = false;
  bool pass = false;
};

struct StatReport {
  double quantile = 0.0;
  double slack = 0.0;
  std::uint64_t total_trials = 0;
  std::vector<StatCellVerdict> cells;
  bool ok() const {
    for (const StatCellVerdict& c : cells)
      if (!c.pass) return false;
    return true;
  }
  /// One line per failing cell; "" when ok().
  std::string summary() const;
};

/// Runs the check. Throws ApiError when a group has no calibration cell, a
/// cell has no samples, or an envelope is not positive.
StatReport check_bounds(const std::vector<StatCell>& cells,
                        const StatCheckConfig& config);

/// Writes the "asyncgossip-statcheck-v1" JSON document. `run_info` carries
/// caller context (tool name, algorithm list, seed, ...) echoed verbatim
/// into the "run" object.
void write_statcheck_json(
    std::ostream& os, const StatReport& report,
    const std::vector<std::pair<std::string, std::string>>& run_info);

}  // namespace asyncgossip
