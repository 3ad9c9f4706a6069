// Small statistics helpers shared by tests, benches and EXPERIMENTS tooling.
#pragma once

#include <cstddef>
#include <vector>

namespace asyncgossip {

/// Summary statistics of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

Summary summarize(std::vector<double> sample);

/// Ordinary least squares fit of y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};

LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y);

/// Fits y = c * x^alpha by regressing log y on log x; returns alpha and r².
/// Benches use this to report measured growth exponents next to the paper's
/// claimed asymptotics. All inputs must be positive.
struct PowerFit {
  double exponent = 0.0;
  double coefficient = 0.0;
  double r2 = 0.0;
};

PowerFit power_fit(const std::vector<double>& x, const std::vector<double>& y);

/// The nearest rank of the q-quantile in a sample of `count` values:
/// ceil(q * count), at least 1. Throws ApiError unless q is in (0, 1].
std::size_t nearest_rank(std::size_t count, double q);

/// Nearest-rank q-quantile of an ascending-sorted sample: the smallest
/// value v with at least ceil(q * N) of the N values <= v (so the 0.99
/// quantile of 100 values is the 99th, not the maximum). 0 for an empty
/// sample. Throws ApiError unless q is in (0, 1].
template <typename T>
T quantile(const std::vector<T>& sorted, double q) {
  const std::size_t rank = nearest_rank(sorted.size(), q);
  return sorted.empty() ? T{} : sorted[rank - 1];
}

}  // namespace asyncgossip
