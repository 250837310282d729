// Environment-variable knobs shared by benches and tests.
//
//   SPMVML_CORPUS_SCALE  — multiply per-bucket corpus sizes (default 1.0)
//   SPMVML_FAST          — 1 shrinks hyper-parameter grids / epochs for
//                          smoke runs (default 0)
//   SPMVML_SEED          — root seed for all experiments (default 2018,
//                          the paper's publication year)
//   SPMVML_THREADS       — worker threads for parallel label collection
//                          (default 1 = serial)
//
// Observability knobs (read by common/obs/, not via the helpers here):
//
//   SPMVML_LOG           — structured-log level: debug|info|warn|error|off
//                          (default off; data outputs stay byte-identical)
//   SPMVML_TRACE         — path for a Chrome trace-event JSON of the run
//
// Serving is configured by `spmvml serve` flags alone.
//
// Chaos knob (read by common/chaos/, not via the helpers here):
//
//   SPMVML_CHAOS         — path to a chaos-scenario script: seeded fault
//                          injection at named serving-path sites (DESIGN.md
//                          §5h; unset = disabled, zero perturbation)
#pragma once

#include <cstdint>
#include <string>

namespace spmvml {

/// Read a double from the environment, falling back to `fallback` when the
/// variable is unset or unparsable.
double env_double(const char* name, double fallback);

/// Read an integer from the environment with fallback.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Corpus scale factor (SPMVML_CORPUS_SCALE, default 1.0, clamped to
/// [0.01, 10]).
double corpus_scale();

/// Fast-mode flag (SPMVML_FAST).
bool fast_mode();

/// Root experiment seed (SPMVML_SEED, default 2018).
std::uint64_t root_seed();

/// Worker-thread count for the collection pipeline (SPMVML_THREADS,
/// default 1, clamped to [1, 256]). 1 means the serial code path.
int thread_count();

}  // namespace spmvml
