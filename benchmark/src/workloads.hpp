// The four workloads. Each fills the report's end-to-end metrics from an
// untraced run, or — with options.trace — its per-layer metrics from an
// untraced and a traced half-run plus the layer probes.
#pragma once

#include <vector>

#include "common.hpp"
#include "common/obs/trace.hpp"

namespace spmvml::bench {

void run_serve_hot(const Options& options, RunReport& report);
void run_serve_cold(const Options& options, RunReport& report);
void run_solve(const Options& options, RunReport& report);
void run_train(const Options& options, RunReport& report);

/// Stop tracing, add `extra` events to what the bench.* spans recorded,
/// build the layer table into the report and write the Chrome trace to
/// options.trace_path.
void finish_trace(const Options& options, std::vector<obs::TraceEvent> extra,
                  RunReport& report);

/// setup_s is the median of the run's set-ups.
void report_setup(const std::vector<double>& setup_s, RunReport& report);

}  // namespace spmvml::bench
