#include "sim/statcheck.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/assert.h"
#include "gossip/fuzz_harness.h"
#include "sim/telemetry_export.h"

namespace asyncgossip {
namespace {

StatCell cell(const std::string& group, const std::string& label,
              double envelope, bool calibration,
              std::vector<double> samples) {
  StatCell c;
  c.group = group;
  c.label = label;
  c.metric = "time";
  c.envelope = envelope;
  c.calibration = calibration;
  c.samples = std::move(samples);
  return c;
}

TEST(CheckBounds, PassesWhenObservationsTrackTheShape) {
  // Observations ~ 2 * envelope everywhere: the fitted constant absorbs the
  // factor and every cell passes.
  const std::vector<StatCell> cells = {
      cell("g", "n:8", 10.0, true, {19, 20, 21}),
      cell("g", "n:16", 20.0, false, {39, 40, 41}),
      cell("g", "n:32", 40.0, false, {79, 80, 82}),
  };
  StatCheckConfig config;
  config.quantile = 1.0;
  config.slack = 1.5;
  const StatReport report = check_bounds(cells, config);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.total_trials, 9u);
  EXPECT_TRUE(report.summary().empty());
}

TEST(CheckBounds, FailsWhenObservationsOutgrowTheShape) {
  // The claimed envelope is flat but the observations grow linearly: the
  // non-calibration cells must fail even with generous slack.
  const std::vector<StatCell> cells = {
      cell("g", "n:8", 1.0, true, {8, 8, 8}),
      cell("g", "n:64", 1.0, false, {64, 64, 64}),
  };
  StatCheckConfig config;
  config.quantile = 1.0;
  config.slack = 2.0;
  const StatReport report = check_bounds(cells, config);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_TRUE(report.cells[0].pass);  // calibration cells always pass
  EXPECT_FALSE(report.cells[1].pass);
  EXPECT_NE(report.summary().find("n:64"), std::string::npos);
}

TEST(CheckBounds, CalibrationUsesTheWorstCalibrationCell) {
  const std::vector<StatCell> cells = {
      cell("g", "a", 10.0, true, {10}),   // ratio 1
      cell("g", "b", 10.0, true, {30}),   // ratio 3 -> fitted C = 3 * slack
      cell("g", "c", 10.0, false, {55}),  // ratio 5.5 < 3 * 2 -> pass
  };
  StatCheckConfig config;
  config.quantile = 1.0;
  config.slack = 2.0;
  const StatReport report = check_bounds(cells, config);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_DOUBLE_EQ(report.cells[2].constant, 6.0);
}

TEST(CheckBounds, RejectsBadConfigurations) {
  StatCheckConfig config;
  // No calibration cell in the group.
  EXPECT_THROW(
      check_bounds({cell("g", "a", 1.0, false, {1})}, config), ApiError);
  // Empty sample.
  EXPECT_THROW(check_bounds({cell("g", "a", 1.0, true, {})}, config),
               ApiError);
  // Non-positive envelope.
  EXPECT_THROW(check_bounds({cell("g", "a", 0.0, true, {1})}, config),
               ApiError);
  // Non-positive slack.
  StatCheckConfig bad;
  bad.slack = 0.0;
  EXPECT_THROW(check_bounds({cell("g", "a", 1.0, true, {1})}, bad), ApiError);
}

TEST(StatCheckJson, IsStrictlyValidJson) {
  const std::vector<StatCell> cells = {
      cell("g\"quoted", "label\\back", 10.0, true, {20}),
      cell("g\"quoted", "n:16", 20.0, false, {40}),
  };
  const StatReport report = check_bounds(cells, StatCheckConfig{});
  std::ostringstream os;
  write_statcheck_json(os, report,
                       {{"tool", "test"}, {"note", "quote \" and \\"}});
  std::string err;
  EXPECT_TRUE(json_valid(os.str(), &err)) << err << "\n" << os.str();
  EXPECT_NE(os.str().find("asyncgossip-statcheck-v1"), std::string::npos);
}

// --- the gossip Table 1 driver ---------------------------------------------

TEST(GossipStatCheck, Table1EnvelopesHoldAtSmokeBudget) {
  // Acceptance: EARS and TEARS stay within their claimed Table 1 envelopes
  // on a CI-smoke-sized grid, and the report is strict RFC 8259 JSON.
  GossipStatCheckOptions options;
  options.trials = 8;
  options.ns = {8, 12, 16, 24};
  options.dds = {{1, 1}, {3, 2}};
  options.jobs = 2;
  options.seed = 7;
  const StatReport report = run_gossip_statcheck(options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cells.size(), 2u * 2u * 4u * 2u);  // alg x dd x n x metric
  EXPECT_EQ(report.total_trials, report.cells.size() * options.trials);

  std::ostringstream os;
  write_statcheck_json(os, report, statcheck_run_info(options));
  std::string err;
  EXPECT_TRUE(json_valid(os.str(), &err)) << err;
}

TEST(GossipStatCheck, DeterministicAcrossJobCounts) {
  GossipStatCheckOptions options;
  options.trials = 4;
  options.ns = {8, 12};
  options.dds = {{1, 1}};
  options.seed = 11;
  options.jobs = 1;
  const StatReport serial = run_gossip_statcheck(options);
  options.jobs = 4;
  const StatReport parallel = run_gossip_statcheck(options);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].label, parallel.cells[i].label);
    EXPECT_EQ(serial.cells[i].quantile_value, parallel.cells[i].quantile_value)
        << serial.cells[i].label;
    EXPECT_EQ(serial.cells[i].pass, parallel.cells[i].pass);
  }
}

TEST(GossipStatCheck, RejectsDegenerateGrids) {
  GossipStatCheckOptions options;
  options.ns = {};
  EXPECT_THROW(run_gossip_statcheck(options), ApiError);
  options = GossipStatCheckOptions{};
  options.trials = 0;
  EXPECT_THROW(run_gossip_statcheck(options), ApiError);
  options = GossipStatCheckOptions{};
  options.dds = {};
  EXPECT_THROW(run_gossip_statcheck(options), ApiError);
}

}  // namespace
}  // namespace asyncgossip
