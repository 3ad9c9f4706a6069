#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace asyncgossip {
namespace {

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SummarizeSingle) {
  const Summary s = summarize({4.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 4.0);
  EXPECT_EQ(s.median, 4.0);
  EXPECT_EQ(s.min, 4.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, SummarizeKnownSample) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(Stats, MedianOdd) {
  const Summary s = summarize({9.0, 1.0, 5.0});
  EXPECT_EQ(s.median, 5.0);
}

TEST(Stats, LinearFitExactLine) {
  const LinearFit f = linear_fit({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 2x + 1
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitConstantY) {
  const LinearFit f = linear_fit({1, 2, 3}, {5, 5, 5});
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
  EXPECT_NEAR(f.intercept, 5.0, 1e-12);
  EXPECT_EQ(f.r2, 1.0);
}

TEST(Stats, LinearFitNoisy) {
  const LinearFit f = linear_fit({1, 2, 3, 4, 5}, {2.1, 3.9, 6.2, 7.8, 10.1});
  EXPECT_NEAR(f.slope, 2.0, 0.15);
  EXPECT_GT(f.r2, 0.99);
}

TEST(Stats, LinearFitNeedsTwoPoints) {
  EXPECT_THROW(linear_fit({1}, {2}), ModelViolation);
  EXPECT_THROW(linear_fit({1, 2}, {2}), ModelViolation);
}

TEST(Stats, LinearFitDegenerateX) {
  EXPECT_THROW(linear_fit({3, 3, 3}, {1, 2, 3}), ModelViolation);
}

TEST(Stats, PowerFitExact) {
  // y = 3 x^1.5
  std::vector<double> x{1, 2, 4, 8, 16}, y;
  for (double v : x) y.push_back(3.0 * std::pow(v, 1.5));
  const PowerFit f = power_fit(x, y);
  EXPECT_NEAR(f.exponent, 1.5, 1e-9);
  EXPECT_NEAR(f.coefficient, 3.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, PowerFitQuadratic) {
  std::vector<double> x{8, 16, 32, 64, 128}, y;
  for (double v : x) y.push_back(v * v);
  const PowerFit f = power_fit(x, y);
  EXPECT_NEAR(f.exponent, 2.0, 1e-9);
}

TEST(Stats, PowerFitRejectsNonPositive) {
  EXPECT_THROW(power_fit({0.0, 1.0}, {1.0, 2.0}), ModelViolation);
  EXPECT_THROW(power_fit({1.0, 2.0}, {-1.0, 2.0}), ModelViolation);
}

TEST(SampleQuantile, NearestRank) {
  const std::vector<double> s = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(quantile(s, 0.05), 1.0);
  EXPECT_EQ(quantile(s, 0.1), 1.0);
  EXPECT_EQ(quantile(s, 0.5), 5.0);
  EXPECT_EQ(quantile(s, 0.9), 9.0);
  EXPECT_EQ(quantile(s, 0.91), 10.0);
  EXPECT_EQ(quantile(s, 1.0), 10.0);
  EXPECT_EQ(quantile(std::vector<double>{7.0}, 0.5), 7.0);
}

TEST(SampleQuantile, P99OfHundredIsNotTheMaximum) {
  std::vector<std::uint64_t> s(100);
  for (std::uint64_t i = 0; i < s.size(); ++i) s[i] = i + 1;  // 1..100
  EXPECT_EQ(quantile(s, 0.99), 99u);
  EXPECT_EQ(quantile(s, 0.50), 50u);
  EXPECT_EQ(quantile(s, 1.0), 100u);
}

TEST(SampleQuantile, RejectsBadInput) {
  EXPECT_EQ(quantile(std::vector<double>{}, 0.5), 0.0);  // empty: 0
  EXPECT_THROW(quantile(std::vector<double>{1.0}, 0.0), ApiError);
  EXPECT_THROW(quantile(std::vector<double>{1.0}, 1.5), ApiError);
  EXPECT_THROW(quantile(std::vector<double>{1.0}, -0.5), ApiError);
}

}  // namespace
}  // namespace asyncgossip
