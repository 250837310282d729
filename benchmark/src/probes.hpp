// Layer probes of a traced run: each layer's speed measured in-process on
// the workload's own matrices, plus a host-truth pass over every format.
//
// The truth pass converts each matrix into every format that fits the
// probe memory budget, times fresh and warm conversion and min-of-k
// serial and parallel SpMV, asserts serial == parallel bitwise, checks y
// against the long-double CSR reference, and compares the selector's pick
// with the fastest format measured. Bytes moved per SpMV are computed,
// not measured: the format's bytes() plus one read of x and one write of
// y.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "sparse/spmv.hpp"

namespace spmvml::bench {

/// Formats with a parallel kernel in sparse/parallel_spmv.hpp.
bool has_parallel_kernel(Format f);

/// The SpMV the solve workload runs: spmv_parallel where the format has
/// one, otherwise AnyMatrix::spmv.
void solve_spmv(const AnyMatrix<double>& m, std::span<const double> x,
                std::span<double> y);

struct ProbeSet {
  std::vector<const Csr<double>*> matrices;
  const FormatSelector* selector = nullptr;
  const PerfModel* perf_model = nullptr;
  std::string dir;  // scratch directory for the read probes
};

/// Device-memory budget of the truth pass; bounds host memory too.
inline constexpr double kProbeBudgetBytes = 0.5e9;

/// STREAM triad (a = b + s*c) bandwidth at `threads`, best of `reps`,
/// counting 24 bytes per element. `array_bytes` is per array.
double triad_gbs(std::size_t array_bytes, int threads, int reps);

void run_layer_probes(const Options& options, const ProbeSet& probes,
                      RunReport& report);

}  // namespace spmvml::bench
