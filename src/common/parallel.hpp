// Minimal parallel-for abstraction.
//
// Uses OpenMP when the build enables it; degrades to a serial loop
// otherwise. Bodies must be independent per index (no ordering guarantee).
// Every caller states its own parallel threshold: a loop over rows
// amortises scheduling only past ~1024 iterations, while a loop over
// pre-sized blocks should go parallel as soon as it has two.
#pragma once

#include <cstdint>

#ifdef SPMVML_HAVE_OPENMP
#include <omp.h>
#endif

namespace spmvml {

/// Invoke fn(i) for i in [0, n), going parallel only when the trip count
/// reaches `min_parallel_n` (amortising scheduling overhead). Iterations
/// are partitioned statically, so a body whose result depends only on `i`
/// is deterministic regardless of thread count.
template <typename Fn>
void parallel_for(std::int64_t n, std::int64_t min_parallel_n, Fn&& fn) {
#ifdef SPMVML_HAVE_OPENMP
  if (n >= min_parallel_n && omp_get_max_threads() > 1) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
#else
  (void)min_parallel_n;
#endif
  for (std::int64_t i = 0; i < n; ++i) fn(i);
}

/// Number of worker threads the parallel_for above would use.
inline int parallel_threads() {
#ifdef SPMVML_HAVE_OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace spmvml
