#include "gpusim/oracle.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace spmvml {

namespace {

// Every measurement lands in exactly one status counter, so the merged
// registry reproduces the fault accounting the collector keeps per run.
obs::Counter& measure_counter(MeasurementStatus status) {
  static obs::Counter ok =
      obs::MetricsRegistry::global().counter("oracle.measure.ok");
  static obs::Counter oom =
      obs::MetricsRegistry::global().counter("oracle.measure.oom");
  static obs::Counter timeout =
      obs::MetricsRegistry::global().counter("oracle.measure.timeout");
  static obs::Counter transient =
      obs::MetricsRegistry::global().counter("oracle.measure.transient");
  switch (status) {
    case MeasurementStatus::kOom: return oom;
    case MeasurementStatus::kTimeout: return timeout;
    case MeasurementStatus::kTransient: return transient;
    case MeasurementStatus::kOk: break;
  }
  return ok;
}

}  // namespace

MeasurementOracle::MeasurementOracle(GpuArch arch, Precision prec,
                                     MeasurementConfig config,
                                     CostParams params)
    : arch_(std::move(arch)),
      prec_(prec),
      config_(config),
      params_(params),
      faults_(config.faults, arch_, prec) {
  SPMVML_ENSURE(config_.reps >= 1, "need at least one repetition");
  SPMVML_ENSURE(config_.rep_sigma >= 0.0 && config_.systematic_sigma >= 0.0,
                "noise sigmas must be non-negative");
}

Measurement MeasurementOracle::measure(const RowSummary& s, Format f,
                                       std::uint64_t matrix_seed,
                                       int attempt) const {
  const double model_time = simulate_time(s, f, arch_, prec_, params_);

  const MeasurementStatus status =
      faults_.classify(s, f, model_time, matrix_seed, attempt);
  measure_counter(status).inc();
  if (status != MeasurementStatus::kOk) {
    Measurement failed;
    failed.seconds = std::numeric_limits<double>::quiet_NaN();
    failed.gflops = std::numeric_limits<double>::quiet_NaN();
    failed.status = status;
    return failed;
  }

  // Seed ties the noise to the full measurement identity.
  std::uint64_t salt = hash_combine(matrix_seed,
                                    static_cast<std::uint64_t>(f) * 1000003);
  salt = hash_combine(salt, std::hash<std::string>{}(arch_.name));
  salt = hash_combine(salt, static_cast<std::uint64_t>(prec_) + 17);
  Rng rng(salt);

  const double systematic = std::exp(rng.normal(0.0, config_.systematic_sigma));
  double sum = 0.0;
  for (int r = 0; r < config_.reps; ++r)
    sum += model_time * systematic * std::exp(rng.normal(0.0, config_.rep_sigma));
  const double mean = sum / config_.reps;

  Measurement m;
  m.seconds = mean;
  m.gflops = to_gflops(s, mean);
  return m;
}

std::array<Measurement, kNumFormats> MeasurementOracle::measure_all(
    const RowSummary& s, std::uint64_t matrix_seed, int attempt) const {
  std::array<Measurement, kNumFormats> out;
  for (int i = 0; i < kNumFormats; ++i)
    out[static_cast<std::size_t>(i)] =
        measure(s, static_cast<Format>(i), matrix_seed, attempt);
  return out;
}

HostOracle::HostOracle(int reps) : reps_(reps) {
  SPMVML_ENSURE(reps_ >= 1, "need at least one repetition");
}

Measurement HostOracle::measure(const Csr<double>& csr, Format f) {
  const AnyMatrix<double>& m = arena_.convert(f, csr);
  // Deterministic non-trivial x so the kernel cannot fold gathers away.
  x_.resize(static_cast<std::size_t>(csr.cols()));
  for (std::size_t i = 0; i < x_.size(); ++i)
    x_[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
  y_.resize(static_cast<std::size_t>(csr.rows()));
  m.spmv(x_, y_);  // warm-up: faults in caches and pages
  WallTimer timer;
  for (int r = 0; r < reps_; ++r) m.spmv(x_, y_);
  const double mean = timer.seconds() / reps_;

  Measurement out;
  out.seconds = mean;
  out.gflops = mean > 0.0
                   ? 2.0 * static_cast<double>(csr.nnz()) / mean / 1e9
                   : 0.0;
  return out;
}

std::array<Measurement, kNumFormats> HostOracle::measure_all(
    const Csr<double>& csr) {
  std::array<Measurement, kNumFormats> out;
  for (int i = 0; i < kNumFormats; ++i)
    out[static_cast<std::size_t>(i)] = measure(csr, static_cast<Format>(i));
  return out;
}

}  // namespace spmvml
