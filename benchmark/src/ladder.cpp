#include "ladder.hpp"

#include <algorithm>

namespace spmvml::bench {

namespace {

constexpr double kGrowth = 1.5;
constexpr double kResolution = 1.05;  // stop when lowest fail / highest pass <= this
constexpr double kMinRps = 1.0;
constexpr double kMaxRps = 1e6;
constexpr int kMaxSteps = 16;

}  // namespace

LadderResult run_ladder(double start_rps,
                        const std::function<bool(double rps)>& step) {
  LadderResult result;
  double pass_rps = 0.0;  // highest passing rate seen
  double fail_rps = 0.0;  // lowest failing rate seen (0 = none yet)
  double rate = start_rps;
  while (static_cast<int>(result.steps.size()) < kMaxSteps) {
    const bool pass = step(rate);
    result.steps.push_back({rate, pass});
    if (pass) {
      pass_rps = rate;
    } else {
      fail_rps = rate;
    }
    if (fail_rps == 0.0) {
      // Still climbing: nothing has failed yet.
      if (rate >= kMaxRps) break;
      rate = std::min(rate * kGrowth, kMaxRps);
      continue;
    }
    if (pass_rps == 0.0) {
      // Nothing has passed yet: descend.
      if (rate <= kMinRps) break;
      rate = std::max(rate / kGrowth, kMinRps);
      continue;
    }
    if (fail_rps <= pass_rps * kResolution) break;
    rate = 0.5 * (pass_rps + fail_rps);
  }
  result.max_rps = pass_rps;
  return result;
}

}  // namespace spmvml::bench
