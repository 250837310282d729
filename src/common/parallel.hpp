// Minimal parallel-for abstraction over the thread pool.
//
// A loop runs on ThreadPool::cooperative_for: the caller and the pool's
// free workers share it, so a busy pool (or a pool worker calling from
// inside a task) degrades to the caller running every index alone, never
// to a deadlock. Without a pool argument, a loop runs on
// ThreadPool::current(): the calling worker's own pool, else the process
// pool. Bodies must be independent per index (no ordering guarantee).
// Every caller states its own parallel threshold: a loop over rows
// amortises scheduling only past ~1024 iterations, while a loop over
// pre-sized blocks should go parallel as soon as it has two.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <vector>

#include "common/thread_pool.hpp"

namespace spmvml {

/// Number of threads a parallel_for on `pool` splits its loop for: the
/// pool's workers plus the caller, unless the caller is one of them.
inline int parallel_threads(const ThreadPool& pool = ThreadPool::current()) {
  return pool.participants();
}

/// Invoke fn(i) for i in [0, n), going parallel only when the trip count
/// reaches `min_parallel_n` (amortising scheduling overhead). The loop is
/// split into parallel_threads(pool) contiguous chunks, one static
/// partition, so a body whose result depends only on `i` is deterministic
/// regardless of thread count. An index that throws does not stop the
/// others: the first exception is rethrown once every index has run.
template <typename Fn>
void parallel_for(std::int64_t n, std::int64_t min_parallel_n, Fn&& fn,
                  ThreadPool& pool = ThreadPool::current()) {
  const auto run = [&fn](std::int64_t begin, std::int64_t end) {
    std::exception_ptr error;
    for (std::int64_t i = begin; i < end; ++i) {
      try {
        for (; i < end; ++i) fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  };
  const std::int64_t chunks =
      std::min<std::int64_t>(n, parallel_threads(pool));
  if (n < min_parallel_n || chunks < 2) {
    run(0, n);
    return;
  }
  // Chunk c belongs to participant c, so a loop repeated over the same
  // data finds each chunk in the cache of the thread that ran it last. A
  // chunk whose owner is busy goes to the next participant that asks:
  // each of the `chunks` turns cooperative_for hands out claims one
  // chunk, its own if still free, else the next free one after it.
  const std::int64_t per_chunk = (n + chunks - 1) / chunks;
  std::vector<std::atomic<bool>> taken(static_cast<std::size_t>(chunks));
  pool.cooperative_for(chunks, [&](std::int64_t) {
    const std::int64_t own = pool.participant_index() % chunks;
    for (std::int64_t k = 0; k < chunks; ++k) {
      const std::int64_t c = (own + k) % chunks;
      if (!taken[static_cast<std::size_t>(c)].exchange(
              true, std::memory_order_relaxed)) {
        run(c * per_chunk, std::min(n, (c + 1) * per_chunk));
        return;
      }
    }
  });
}

}  // namespace spmvml
