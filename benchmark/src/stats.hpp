// Order statistics the benchmark reports.
//
// Percentiles use the nearest-rank definition (the value at 1-based rank
// ceil(q/100 * n) of the sorted sample), so every reported latency is a
// latency that was actually observed. A tail is only reported at a
// percentile that has at least ten samples beyond it; with fewer samples
// than any candidate percentile supports, the tail is the maximum.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace spmvml::bench {

/// Nearest-rank percentile, q in (0, 100]. Empty input returns 0.
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Geometric mean of strictly positive values; 0 for empty input or when
/// any value is not positive.
double geomean(std::span<const double> values);

/// The samples a tail percentile needs beyond it before it is reported.
inline constexpr std::size_t kTailMinBeyond = 10;

struct Tail {
  double value = 0.0;
  double percentile = 100.0;  // 100 = the maximum
  std::size_t beyond = 0;     // samples strictly above the reported rank
  std::size_t samples = 0;    // per window
  std::size_t windows = 1;
};

/// The highest of p99.9, p99, p98, p95 and p90 that has at least
/// kTailMinBeyond samples beyond its rank; the maximum when none has.
Tail tail(const std::vector<double>& values);

/// tail() of each run of `window` consecutive samples (a short last run
/// joins the one before it), and the lowest of those tails: the tail of
/// the quietest stretch. Stalls caused by other tenants of a shared host
/// only ever add latency, and most stretches catch one; the quietest
/// stretch's tail is the program's own and repeats from run to run. Fewer
/// than two windows' worth of samples gives tail(values).
Tail windowed_tail(const std::vector<double>& values, std::size_t window);

}  // namespace spmvml::bench
