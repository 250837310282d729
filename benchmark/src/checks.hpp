// Output checks: a run whose outputs are wrong reports correct=false no
// matter how fast it was. Each check returns an empty string when the
// outputs are right and a one-line description of the first problem
// otherwise.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "loadgen.hpp"

namespace spmvml::bench {

enum class Mode { kSelect, kIndirect, kPredict };

const char* mode_name(Mode m);

/// What the generator asked for in one serving request.
struct RequestInfo {
  int matrix = 0;
  Mode mode = Mode::kSelect;
  bool materialize = false;
};

/// Every answered, non-degraded `select` response must serve the format
/// a one-shot FormatSelector::select gives for the same matrix
/// (`one_shot[matrix]`, as a format name).
std::string check_selects(const std::vector<Sample>& samples,
                          const std::vector<RequestInfo>& requests,
                          const std::vector<std::string>& one_shot);

/// Every request of a fixed-rate phase must be served: an error, a shed
/// request or a missing response is a wrong output, not a slow one.
std::string check_no_failures(const Phase& phase);

/// y must match the reference within `rel_tol` of the reference's
/// largest magnitude (element-wise), and be finite.
std::string check_vector(std::span<const double> y,
                         std::span<const double> reference, double rel_tol);

/// `value` must be finite and at least `floor`.
std::string check_floor(const std::string& what, double value, double floor);

}  // namespace spmvml::bench
