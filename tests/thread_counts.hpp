// The thread count is a test input: a test body runs once per count of
// participating threads, on a pool of that many workers less the caller,
// which the body passes to the code under test.
#pragma once

#include "common/thread_pool.hpp"

namespace spmvml {

/// Runs fn(pool, threads) for threads = 1, 2, 3 and 4.
template <typename Fn>
void at_each_thread_count(Fn&& fn) {
  for (const int threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads - 1);
    fn(pool, threads);
  }
}

}  // namespace spmvml
