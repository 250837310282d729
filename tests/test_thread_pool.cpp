// Thread-pool tests: task completion, wait_idle barrier semantics,
// deadline-delayed resubmission (the backoff-yield mechanism), worker
// identity, tasks submitting tasks, cooperative_for (every index once, a
// busy pool, exceptions), parallel loops on a busy pool's worker, the
// zero-worker pool, and the GEMM kernels at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/gemm.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "features/features.hpp"
#include "sparse/parallel_spmv.hpp"
#include "synth/generators.hpp"
#include "thread_counts.hpp"

namespace spmvml {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleIsABarrier) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 32);
  // The pool is reusable after going idle.
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 33);
}

TEST(ThreadPool, DelayedTaskRunsAfterItsDeadline) {
  ThreadPool pool(2);
  WallTimer timer;
  std::atomic<double> ran_at{-1.0};
  pool.submit_after(0.05, [&] { ran_at.store(timer.seconds()); });
  pool.wait_idle();
  EXPECT_GE(ran_at.load(), 0.05);
  EXPECT_LT(ran_at.load(), 1.0);  // generous upper bound for CI jitter
}

TEST(ThreadPool, DelayedTasksDoNotStallImmediateWork) {
  // One long-delayed task must not block the other worker's throughput —
  // this is the property that lets backoff waits overlap real work.
  ThreadPool pool(2);
  std::atomic<int> immediate{0};
  pool.submit_after(0.2, [] {});
  WallTimer timer;
  for (int i = 0; i < 50; ++i)
    pool.submit([&immediate] { immediate.fetch_add(1); });
  while (immediate.load() < 50 && timer.seconds() < 5.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // All immediate tasks finished long before the delayed task's deadline.
  EXPECT_EQ(immediate.load(), 50);
  EXPECT_LT(timer.seconds(), 0.2);
  pool.wait_idle();
}

TEST(ThreadPool, WaitIdleCoversTasksSubmittedByTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  // A resumable-task chain: each stage requeues the next with a deadline.
  pool.submit([&] {
    count.fetch_add(1);
    pool.submit_after(0.01, [&] {
      count.fetch_add(1);
      pool.submit([&] { count.fetch_add(1); });
    });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ZeroAndNegativeDelayDegradeToSubmit) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.submit_after(0.0, [&] { count.fetch_add(1); });
  pool.submit_after(-1.0, [&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, WorkerIndexIsStableAndInRange) {
  ThreadPool pool(4);
  EXPECT_EQ(ThreadPool::worker_index(), -1);  // not a pool thread
  std::mutex mu;
  std::set<int> seen;
  for (int i = 0; i < 64; ++i)
    pool.submit([&] {
      const int idx = ThreadPool::worker_index();
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(idx);
    });
  pool.wait_idle();
  ASSERT_FALSE(seen.empty());
  EXPECT_GE(*seen.begin(), 0);
  EXPECT_LT(*seen.rbegin(), pool.size());
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  // One worker drains the FIFO in submission order.
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, CooperativeForRunsEveryIndexOnce) {
  // Loops back to back, so workers still polling after one loop join the
  // next from its post rather than through a queued helper.
  ThreadPool pool(3);
  constexpr int kLoops = 200;
  for (const std::int64_t n : {0, 1, 2, 7, 500}) {
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
    for (int loop = 0; loop < kLoops; ++loop)
      pool.cooperative_for(n, [&](std::int64_t i) {
        runs[static_cast<std::size_t>(i)].fetch_add(1);
      });
    for (const auto& r : runs) EXPECT_EQ(r.load(), kLoops) << "n=" << n;
  }
}

TEST(ThreadPool, CooperativeForFromABusyPoolsWorkerCompletes) {
  // Every worker is inside a task; the one calling cooperative_for gets no
  // helper and runs all indices itself, without waiting on its peers.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> sum{0};
  pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.submit([&] {
    pool.cooperative_for(64, [&](std::int64_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    release.store(true);
  });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPool, CooperativeForRethrowsAfterEveryIndexRan) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.cooperative_for(40,
                                    [&](std::int64_t i) {
                                      ran.fetch_add(1);
                                      if (i % 8 == 3)
                                        throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 40);
}

TEST(ThreadPool, ParallelLoopsFromABusyPoolsWorkerMatchSerial) {
  // collect_corpus's case: a worker runs parallel loops while its peer is
  // busy. The loops go to the worker's own pool, get no helper, and must
  // still finish with the serial bytes.
  GenSpec spec;
  spec.family = MatrixFamily::kPowerLaw;
  spec.rows = spec.cols = 20000;  // several feature blocks and SpMV tasks
  spec.seed = 11;
  const Csr<double> m = generate(spec);
  const std::vector<double> x(static_cast<std::size_t>(m.cols()), 0.5);
  std::vector<double> serial_y(static_cast<std::size_t>(m.rows()));
  m.spmv(x, serial_y);
  ThreadPool alone(0);
  const FeatureVector serial_f = extract_features(m, alone);

  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::vector<double> y(serial_y.size(), -1.0);
  FeatureVector f;
  int threads = 0;
  pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.submit([&] {
    threads = parallel_threads();
    spmv_parallel(m, x, y);
    f = extract_features(m);
    release.store(true);
  });
  pool.wait_idle();
  EXPECT_EQ(threads, 2);  // the calling worker and its one peer
  EXPECT_EQ(std::memcmp(y.data(), serial_y.data(), y.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(f.values.data(), serial_f.values.data(),
                        sizeof(f.values)),
            0);
}

TEST(ThreadPool, ZeroWorkersRunLoopsOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0);
  EXPECT_EQ(pool.participants(), 1);
  std::int64_t sum = 0;  // unsynchronized: only the caller may run
  pool.cooperative_for(100, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum, 99 * 100 / 2);
  EXPECT_THROW(pool.submit([] {}), Error);
}

TEST(ThreadPool, CurrentIsTheCallingWorkersPool) {
  ThreadPool pool(1);
  ThreadPool* seen = nullptr;
  pool.submit([&] { seen = &ThreadPool::current(); });
  pool.wait_idle();
  EXPECT_EQ(seen, &pool);
  EXPECT_NE(&ThreadPool::current(), &pool);
  EXPECT_EQ(ThreadPool::current().participants(),
            ThreadPool::current().size() + 1);
}

TEST(Gemm, BitwiseAtEveryThreadCount) {
  // Enough rows for several kGemmRowGrain chunks.
  constexpr int m = 37, n = 11, k = 300;
  std::vector<double> a(static_cast<std::size_t>(m) * k),
      b(static_cast<std::size_t>(n) * k), bias(n);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::sin(0.37 * i);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::cos(0.11 * i);
  for (int j = 0; j < n; ++j) bias[static_cast<std::size_t>(j)] = 0.1 * j;
  // The same operands serve all three shapes: a is m x k for gemm_nt and
  // gemm_nn and k x m for gemm_tn (a reduction over k), b is n x k or
  // k x n.
  const auto kernels = {
      +[](const double* a, const double* b, const double* bias, double* c,
          ThreadPool& pool) { gemm_nt(m, n, k, a, b, bias, c, pool); },
      +[](const double* a, const double* b, const double*, double* c,
          ThreadPool& pool) { gemm_nn(m, n, k, a, b, c, pool); },
      +[](const double* a, const double* b, const double*, double* c,
          ThreadPool& pool) { gemm_tn(m, n, k, a, b, c, pool); }};
  ThreadPool alone(0);
  std::vector<double> ref(static_cast<std::size_t>(m) * n), c(ref.size());
  int kernel = 0;
  for (const auto gemm : kernels) {
    gemm(a.data(), b.data(), bias.data(), ref.data(), alone);
    at_each_thread_count([&](ThreadPool& pool, int threads) {
      std::fill(c.begin(), c.end(), -1.0);
      gemm(a.data(), b.data(), bias.data(), c.data(), pool);
      EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(double)),
                0)
          << "kernel " << kernel << ", threads " << threads;
    });
    ++kernel;
  }
}

TEST(Gemm, MatchesNaiveReference) {
  // 3x2 * (4x2)^T + bias.
  const std::vector<double> a = {1, 2, 3, 4, 5, 6};
  const std::vector<double> b = {1, 0, 0, 1, 1, 1, 2, -1};
  const std::vector<double> bias = {0.5, -0.5, 0.0, 1.0};
  std::vector<double> c(12);
  gemm_nt(3, 4, 2, a.data(), b.data(), bias.data(), c.data());
  const std::vector<double> expect = {1.5, 1.5, 3, 1,  3.5, 3.5, 7, 3,
                                      5.5, 5.5, 11, 5};
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_DOUBLE_EQ(c[i], expect[i]) << i;

  // C = A (2x3) * B (3x2).
  const std::vector<double> b2 = {1, 2, 3, 4, 5, 6};
  std::vector<double> c2(4);
  gemm_nn(2, 2, 3, a.data(), b2.data(), c2.data());
  EXPECT_DOUBLE_EQ(c2[0], 1 * 1 + 2 * 3 + 3 * 5);
  EXPECT_DOUBLE_EQ(c2[1], 1 * 2 + 2 * 4 + 3 * 6);
  EXPECT_DOUBLE_EQ(c2[2], 4 * 1 + 5 * 3 + 6 * 5);
  EXPECT_DOUBLE_EQ(c2[3], 4 * 2 + 5 * 4 + 6 * 6);

  // C = A^T (3x2 -> 2x3 reduction over rows) * B (3x2): 2x2.
  std::vector<double> c3(4);
  gemm_tn(2, 2, 3, a.data(), a.data(), c3.data());
  EXPECT_DOUBLE_EQ(c3[0], 1 * 1 + 3 * 3 + 5 * 5);
  EXPECT_DOUBLE_EQ(c3[1], 1 * 2 + 3 * 4 + 5 * 6);
  EXPECT_DOUBLE_EQ(c3[2], 2 * 1 + 4 * 3 + 6 * 5);
  EXPECT_DOUBLE_EQ(c3[3], 2 * 2 + 4 * 4 + 6 * 6);
}

TEST(Gemm, TiledReductionMatchesUntiledOrder) {
  // k spans several kGemmTileK tiles; tiling must not change the
  // ascending-k accumulation (sums round-trip through the C row exactly).
  const int k = kGemmTileK * 2 + 37;
  std::vector<double> a(static_cast<std::size_t>(k)), b(a.size());
  for (int i = 0; i < k; ++i) {
    a[static_cast<std::size_t>(i)] = std::sin(i * 0.7) * 1e3;
    b[static_cast<std::size_t>(i)] = std::cos(i * 0.3);
  }
  double c = 0.0;
  gemm_nt(1, 1, k, a.data(), b.data(), nullptr, &c);
  double ref = 0.0;
  for (int i = 0; i < k; ++i)
    ref += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  EXPECT_DOUBLE_EQ(c, ref);
}

}  // namespace
}  // namespace spmvml
