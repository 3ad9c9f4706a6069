#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace asyncgossip {

Summary summarize(std::vector<double> sample) {
  Summary s;
  s.count = sample.size();
  if (sample.empty()) return s;
  std::sort(sample.begin(), sample.end());
  s.min = sample.front();
  s.max = sample.back();
  const std::size_t n = sample.size();
  s.median = (n % 2 == 1) ? sample[n / 2]
                          : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
  double sum = 0.0;
  for (double v : sample) sum += v;
  s.mean = sum / static_cast<double>(n);
  if (n > 1) {
    double ss = 0.0;
    for (double v : sample) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(n - 1));
  }
  return s;
}

LinearFit linear_fit(const std::vector<double>& x,
                     const std::vector<double>& y) {
  AG_ASSERT_MSG(x.size() == y.size() && x.size() >= 2,
                "linear_fit needs >= 2 paired points");
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  LinearFit f;
  const double denom = n * sxx - sx * sx;
  AG_ASSERT_MSG(denom != 0.0, "linear_fit: degenerate x values");
  f.slope = (n * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  if (ss_tot <= 0.0) {
    f.r2 = 1.0;  // constant y: any horizontal line is a perfect fit
  } else {
    double ss_res = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double e = y[i] - (f.slope * x[i] + f.intercept);
      ss_res += e * e;
    }
    f.r2 = 1.0 - ss_res / ss_tot;
  }
  return f;
}

PowerFit power_fit(const std::vector<double>& x, const std::vector<double>& y) {
  AG_ASSERT_MSG(x.size() == y.size() && x.size() >= 2,
                "power_fit needs >= 2 paired points");
  std::vector<double> lx(x.size()), ly(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    AG_ASSERT_MSG(x[i] > 0.0 && y[i] > 0.0, "power_fit needs positive data");
    lx[i] = std::log(x[i]);
    ly[i] = std::log(y[i]);
  }
  const LinearFit f = linear_fit(lx, ly);
  return PowerFit{f.slope, std::exp(f.intercept), f.r2};
}

std::size_t nearest_rank(std::size_t count, double q) {
  if (!(q > 0.0) || q > 1.0) throw ApiError("quantile must be in (0, 1]");
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(count)));
  return std::max<std::size_t>(rank, 1);
}

}  // namespace asyncgossip
