#include "src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.n = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  summary.median = n % 2 == 1
                       ? values[n / 2]
                       : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    summary.q1 = summary.q3 = values[0];
    return summary;
  }
  // statistics.quantiles(method="exclusive"), n=4.
  const std::size_t m = n + 1;
  auto quartile = [&](std::size_t i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  summary.q1 = quartile(1);
  summary.q3 = quartile(3);
  return summary;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

}  // namespace perfbench
