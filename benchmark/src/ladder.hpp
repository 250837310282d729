// Rate ladder: the highest open-loop request rate the server sustains
// within its latency objective.
//
// The ladder starts at a rate, multiplies it by 1.5 after every passing
// step until a step fails (or divides it until one passes), then bisects
// between the highest passing and the lowest failing rate until they are
// within 5% of each other. The result is the highest rate that passed.
// What "pass" means is the caller's step function; the serving workloads
// pass a step when p95 <= SLO, nothing failed or was shed, and the
// generator kept to its schedule.
#pragma once

#include <functional>
#include <vector>

namespace spmvml::bench {

struct LadderStep {
  double rps = 0.0;
  bool pass = false;
};

struct LadderResult {
  double max_rps = 0.0;  // highest passing rate; 0 when none passed
  std::vector<LadderStep> steps;
};

LadderResult run_ladder(double start_rps,
                        const std::function<bool(double rps)>& step);

}  // namespace spmvml::bench
