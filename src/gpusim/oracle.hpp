// Measurement oracle: what "running SpMV 50 times and averaging" returns.
//
// Layers two kinds of stochasticity on the deterministic cost model:
//  * per-repetition timing jitter (log-normal, averages out over reps,
//    exactly like the paper's 50-run averaging methodology §IV-B), and
//  * a per-(matrix, format, arch, precision) *systematic* factor that does
//    NOT average out — modeling kernel/structure interactions the cost
//    model leaves out. This is the irreducible error an ML model trained
//    on structural features faces on real hardware.
// Both are seeded from the matrix's identity, so the oracle is a pure
// function and every experiment is reproducible.
//
// Measurements can also *fail*: with fault injection enabled (see
// gpusim/fault.hpp) a measurement may come back with an OOM, timeout or
// transient-launch-failure status instead of a time. Transients are
// retryable — call measure() again with a higher attempt number.
#pragma once

#include <vector>

#include "gpusim/arch.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/row_summary.hpp"
#include "sparse/arena.hpp"
#include "sparse/format.hpp"

namespace spmvml {

struct MeasurementConfig {
  int reps = 50;                   // paper: 50 runs averaged
  double rep_sigma = 0.04;         // log-normal per-run jitter
  double systematic_sigma = 0.02; // per-(matrix,format) fixed deviation
  FaultConfig faults;             // disabled by default (infallible oracle)
};

/// A measurement: mean time over reps plus the implied GFLOPS — or a
/// failure status with NaN time.
struct Measurement {
  double seconds = 0.0;
  double gflops = 0.0;
  MeasurementStatus status = MeasurementStatus::kOk;

  bool ok() const { return status == MeasurementStatus::kOk; }
};

class MeasurementOracle {
 public:
  MeasurementOracle(GpuArch arch, Precision prec,
                    MeasurementConfig config = {}, CostParams params = {});

  const GpuArch& arch() const { return arch_; }
  Precision precision() const { return prec_; }
  const FaultModel& fault_model() const { return faults_; }

  /// Timed SpMV for one (matrix, format); matrix_seed identifies the
  /// matrix (the GenSpec seed, or any stable id for external matrices).
  /// `attempt` re-rolls retryable faults only — the timing itself is
  /// attempt-invariant.
  Measurement measure(const RowSummary& s, Format f,
                      std::uint64_t matrix_seed, int attempt = 0) const;

  /// Measure all seven formats at once (shares the summary scan).
  std::array<Measurement, kNumFormats> measure_all(
      const RowSummary& s, std::uint64_t matrix_seed, int attempt = 0) const;

 private:
  GpuArch arch_;
  Precision prec_;
  MeasurementConfig config_;
  CostParams params_;
  FaultModel faults_;
};

/// Host-measurement oracle: converts the CSR master copy into the
/// requested format and times the format's actual CPU SpMV kernel —
/// the ground-truth counterpart to the simulated MeasurementOracle,
/// used to sanity-check the cost model's format ordering on the host.
/// Conversions go through an internal ConversionArena and the work
/// vectors persist across calls, so sweeping a corpus does not churn
/// the allocator. Not thread-safe (one instance per thread).
class HostOracle {
 public:
  /// reps = timed kernel launches averaged per measurement (one untimed
  /// warm-up run precedes them).
  explicit HostOracle(int reps = 5);

  Measurement measure(const Csr<double>& csr, Format f);

  /// Measure all seven formats (shares the x/y vectors and the arena).
  std::array<Measurement, kNumFormats> measure_all(const Csr<double>& csr);

 private:
  int reps_;
  ConversionArena<double> arena_;
  std::vector<double> x_, y_;
};

}  // namespace spmvml
