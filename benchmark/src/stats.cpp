#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace spmvml::bench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // The epsilon keeps q/100*n from rounding up past an exact rank
  // (0.999 * 10000 is 9990.000000000002 in binary floating point).
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

Tail tail(const std::vector<double>& values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {99.9, 99.0, 98.0, 95.0, 90.0}) {
    const std::size_t rank = nearest_rank(sorted.size(), q);
    const std::size_t beyond = sorted.size() - rank;
    if (beyond >= kTailMinBeyond) {
      t.value = sorted[rank - 1];
      t.percentile = q;
      t.beyond = beyond;
      return t;
    }
  }
  t.value = sorted.back();
  return t;
}

Tail windowed_tail(const std::vector<double>& values, std::size_t window) {
  const std::size_t windows = window > 0 ? values.size() / window : 0;
  if (windows < 2) return tail(values);
  Tail quietest;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows ? values.end()
                                      : begin + static_cast<std::ptrdiff_t>(window);
    const Tail t = tail(std::vector<double>(begin, end));
    if (w == 0 || t.value < quietest.value) quietest = t;
  }
  quietest.windows = windows;
  return quietest;
}

}  // namespace spmvml::bench
