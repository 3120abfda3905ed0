// Sample summaries for the benchmark: median and quartiles computed the
// way Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so the printed spread matches what a reader gets
// by re-deriving it from the raw samples.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median, first and third quartile of `values` (all equal to the one
/// value for a single sample; all zero for none).
Summary Summarize(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 1]; 0 for no samples.
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
