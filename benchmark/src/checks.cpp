#include "checks.hpp"

#include <algorithm>
#include <cmath>

namespace spmvml::bench {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSelect: return "select";
    case Mode::kIndirect: return "indirect";
    case Mode::kPredict: return "predict";
  }
  return "?";
}

std::string check_selects(const std::vector<Sample>& samples,
                          const std::vector<RequestInfo>& requests,
                          const std::vector<std::string>& one_shot) {
  std::size_t wrong = 0;
  std::string first;
  const std::size_t n = std::min(samples.size(), requests.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i];
    const RequestInfo& r = requests[i];
    if (r.mode != Mode::kSelect || !s.answered || !s.ok || s.degraded)
      continue;
    const std::string& expected =
        one_shot.at(static_cast<std::size_t>(r.matrix));
    if (s.format == expected) continue;
    if (wrong++ == 0)
      first = "request " + std::to_string(i) + " on matrix " +
              std::to_string(r.matrix) + " served " + s.format +
              ", one-shot select gives " + expected;
  }
  if (wrong == 0) return {};
  return std::to_string(wrong) + " select responses differ from the one-shot "
         "selector; first: " + first;
}

std::string check_no_failures(const Phase& phase) {
  const std::size_t failed = failures(phase);
  if (failed == 0) return {};
  return std::to_string(failed) + " of " +
         std::to_string(phase.samples.size()) +
         " fixed-rate requests failed, were shed or got no response";
}

std::string check_vector(std::span<const double> y,
                         std::span<const double> reference, double rel_tol) {
  if (y.size() != reference.size())
    return "y has " + std::to_string(y.size()) + " entries, reference " +
           std::to_string(reference.size());
  double scale = 0.0;
  for (const double v : reference) scale = std::max(scale, std::abs(v));
  const double tol = rel_tol * std::max(scale, 1e-300);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (std::isfinite(y[i]) && std::abs(y[i] - reference[i]) <= tol) continue;
    return "y[" + std::to_string(i) + "] = " + std::to_string(y[i]) +
           ", reference " + std::to_string(reference[i]);
  }
  return {};
}

std::string check_floor(const std::string& what, double value, double floor) {
  if (std::isfinite(value) && value >= floor) return {};
  return what + " " + std::to_string(value) + " is below the floor " +
         std::to_string(floor);
}

}  // namespace spmvml::bench
