// The config block every results file carries: what machine, build and
// settings produced the numbers.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "common/json_writer.hpp"

namespace spmvml::bench {

struct Machine {
  int nproc = 1;             // CPUs this process may run on
  std::string cpu_model;
  std::int64_t l2_bytes = 0;   // per core, as sysfs reports it
  std::int64_t llc_bytes = 0;  // last-level cache, as sysfs reports it
  std::string isa;             // simd::active_isa()
  std::string compiler;
  std::string build_type;
  int openmp_threads = 1;
  std::string git_sha;  // from SPMVML_BENCH_GIT_SHA; "unknown" outside git
  bool git_dirty = false;
};

Machine describe_machine();

/// Write the config block as the value of the current JSON key.
void write_config(JsonWriter& w, const Machine& m, const Options& options);

}  // namespace spmvml::bench
