// Parallel SpMV kernels must agree with the serial reference for every
// structure family and partition count — including the merge-path
// two-phase carry fix-up on rows spanning many partitions — and stay
// bitwise-identical to it at every thread count and task split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "sparse/parallel_spmv.hpp"
#include "sparse/spmv.hpp"
#include "synth/generators.hpp"
#include "thread_counts.hpp"

namespace spmvml {
namespace {

std::vector<double> random_x(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

double rel_err(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-30});
  return std::abs(a - b) / scale;
}

class ParallelMatchesSerial : public ::testing::TestWithParam<MatrixFamily> {};

TEST_P(ParallelMatchesSerial, AllKernels) {
  GenSpec spec;
  spec.family = GetParam();
  spec.rows = 1500;
  spec.cols = 1600;
  spec.row_mu = 9.0;
  spec.row_cv = 1.2;
  spec.seed = 17;
  const auto m = generate(spec);
  const auto x = random_x(m.cols(), 99);
  std::vector<double> expect(static_cast<std::size_t>(m.rows()));
  spmv_reference(m, x, expect);

  auto check = [&](std::span<const double> y, const char* what) {
    for (index_t r = 0; r < m.rows(); ++r)
      ASSERT_LT(rel_err(y[static_cast<std::size_t>(r)],
                        expect[static_cast<std::size_t>(r)]),
                1e-10)
          << what << " row " << r;
  };

  std::vector<double> y(static_cast<std::size_t>(m.rows()));
  spmv_parallel(m, x, y);
  check(y, "CSR");

  const auto ell = Ell<double>::from_csr(m);
  spmv_parallel(ell, x, y);
  check(y, "ELL");

  const auto hyb = Hyb<double>::from_csr(m);
  spmv_parallel(hyb, x, y);
  check(y, "HYB");

  const auto merge = MergeCsr<double>::from_csr(m, 64);
  spmv_parallel(merge, x, y);
  check(y, "merge-CSR");

  const auto sell = Sell<double>::from_csr(m);
  spmv_parallel(sell, x, y);
  check(y, "SELL");
}

INSTANTIATE_TEST_SUITE_P(
    Families, ParallelMatchesSerial,
    ::testing::Values(MatrixFamily::kBanded, MatrixFamily::kStencil,
                      MatrixFamily::kUniformRandom, MatrixFamily::kPowerLaw,
                      MatrixFamily::kBlockRandom, MatrixFamily::kGeomGraph));

class MergeParallelPartitions : public ::testing::TestWithParam<index_t> {};

TEST_P(MergeParallelPartitions, RowSpanningManyPartitions) {
  // One enormous row followed by many small ones: the big row spans many
  // merge partitions, exercising the carry fix-up heavily.
  std::vector<Triplet<double>> t;
  Rng rng(3);
  for (index_t c = 0; c < 3000; c += 2) t.push_back({0, c, rng.uniform()});
  for (index_t r = 1; r < 400; ++r)
    t.push_back({r, rng.uniform_int(0, 2999), rng.uniform()});
  const auto m = Csr<double>::from_triplets(400, 3000, std::move(t));
  const auto x = random_x(m.cols(), 4);
  std::vector<double> expect(400);
  spmv_reference(m, x, expect);

  const auto merge = MergeCsr<double>::from_csr(m, GetParam());
  std::vector<double> y(400);
  spmv_parallel(merge, x, y);
  for (index_t r = 0; r < 400; ++r)
    ASSERT_LT(rel_err(y[static_cast<std::size_t>(r)],
                      expect[static_cast<std::size_t>(r)]),
              1e-10)
        << "parts=" << GetParam() << " row " << r;
}

INSTANTIATE_TEST_SUITE_P(Partitions, MergeParallelPartitions,
                         ::testing::Values(1, 2, 3, 17, 64, 500, 1900));

TEST(ParallelSpmv, SerialAndParallelCsrBitIdentical) {
  // Same summation order per row -> bit-identical, not just close.
  GenSpec spec;
  spec.family = MatrixFamily::kUniformRandom;
  spec.rows = 800;
  spec.cols = 800;
  spec.row_mu = 11.0;
  spec.seed = 5;
  const auto m = generate(spec);
  const auto x = random_x(m.cols(), 6);
  std::vector<double> serial(800), parallel(800);
  m.spmv(x, serial);
  spmv_parallel(m, x, parallel);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelSpmv, EmptyRowsProduceZero) {
  Csr<double> m(5, 3, {0, 0, 2, 2, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  const std::vector<double> x = {1.0, 1.0, 1.0};
  std::vector<double> y(5, -7.0);
  spmv_parallel(MergeCsr<double>::from_csr(m, 4), x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[4], 3.0);
}

// The tasks for_each_spmv_task runs, as count-by-begin (0 where no task
// begins).
std::vector<index_t> task_counts(ThreadPool& pool, index_t units,
                                 index_t unit_rows) {
  std::vector<index_t> counts(static_cast<std::size_t>(units), 0);
  for_each_spmv_task(
      units, unit_rows,
      [&](index_t begin, index_t count) {
        counts[static_cast<std::size_t>(begin)] = count;
      },
      pool);
  return counts;
}

index_t num_tasks(ThreadPool& pool, index_t units, index_t unit_rows = 1) {
  const auto counts = task_counts(pool, units, unit_rows);
  return static_cast<index_t>(
      std::count_if(counts.begin(), counts.end(),
                    [](index_t c) { return c > 0; }));
}

// Every unit is covered exactly once, interior task edges fall on
// kTaskAlignRows-row boundaries (when unit_rows divides it) and no task
// but the last is under kMinTaskRows rows.
void expect_valid_split(ThreadPool& pool, index_t units, index_t unit_rows) {
  const auto counts = task_counts(pool, units, unit_rows);
  index_t covered = 0;
  for (index_t begin = 0; begin < units; ++begin) {
    const index_t count = counts[static_cast<std::size_t>(begin)];
    if (count == 0) continue;
    ASSERT_EQ(begin, covered) << "units=" << units << " unit_rows="
                              << unit_rows << ": gap or overlap";
    covered += count;
    if (kTaskAlignRows % unit_rows == 0) {
      EXPECT_EQ(begin * unit_rows % kTaskAlignRows, 0) << "begin " << begin;
    }
    if (covered < units) {
      EXPECT_GE(count * unit_rows, kMinTaskRows) << "begin " << begin;
    }
  }
  EXPECT_EQ(covered, units) << "unit_rows=" << unit_rows;
}

TEST(ParallelSpmvTasks, LargeMatrixGetsATaskPerThread) {
  at_each_thread_count([](ThreadPool& pool, int threads) {
    EXPECT_EQ(parallel_threads(pool), threads);
    EXPECT_GE(num_tasks(pool, 40000), threads);
    EXPECT_GE(num_tasks(pool, 40000 / 32, 32), threads);
  });
}

TEST(ParallelSpmvTasks, BelowMinimumTaskSizeIsOneTask) {
  at_each_thread_count([](ThreadPool& pool, int) {
    EXPECT_EQ(num_tasks(pool, 1), 1);
    EXPECT_EQ(num_tasks(pool, kMinTaskRows), 1);
    EXPECT_EQ(num_tasks(pool, kMinTaskRows + 1), 2);
    EXPECT_EQ(num_tasks(pool, kMinTaskRows / 32, 32), 1);
    EXPECT_EQ(num_tasks(pool, kMinTaskRows / 32 + 1, 32), 2);
    EXPECT_EQ(num_tasks(pool, 0), 0);
  });
}

TEST(ParallelSpmvTasks, TasksCoverRowsOnceOnAlignedEdges) {
  at_each_thread_count([](ThreadPool& pool, int) {
    for (index_t rows : {1, 511, 512, 513, 4095, 4097, 40001, 100000})
      expect_valid_split(pool, rows, 1);
  });
}

TEST(ParallelSpmvTasks, TasksCoverSlicesOnceOnAlignedEdges) {
  at_each_thread_count([](ThreadPool& pool, int) {
    for (index_t c : {1, 3, 4, 32, 64, 128})
      for (index_t rows : {1, 511, 513, 4097, 40001})
        expect_valid_split(pool, (rows + c - 1) / c, c);
  });
}

// Rows of 1..12 entries, every 97th row 40 long: enough skew that HYB
// spills to COO and SELL's sort permutes, yet ELL stays small at 40k rows.
Csr<double> sweep_matrix(index_t rows) {
  const index_t cols = rows + 64;
  Rng rng(static_cast<std::uint64_t>(rows));
  std::vector<Triplet<double>> t;
  for (index_t r = 0; r < rows; ++r) {
    const index_t len = r % 97 == 0 ? 40 : rng.uniform_int(1, 12);
    const index_t start = rng.uniform_int(0, cols - 1);
    for (index_t k = 0; k < len; ++k)
      t.push_back({r, (start + k * 37) % cols, rng.uniform(-1.0, 1.0)});
  }
  return Csr<double>::from_triplets(rows, cols, std::move(t));
}

class ParallelSpmvSweep : public ::testing::TestWithParam<index_t> {};

// Sizes straddle the minimum task and the old 4096-row block, up to a
// matrix that splits into a task per thread.
TEST_P(ParallelSpmvSweep, BitwiseMatchesSerialAtEveryThreadCount) {
  const index_t rows = GetParam();
  const auto m = sweep_matrix(rows);
  const auto x = random_x(m.cols(), 8);
  const auto n = static_cast<std::size_t>(rows);
  std::vector<double> serial(n), parallel(n);

  const auto expect_same = [&](const auto& a, const char* what,
                               ThreadPool& pool, int threads) {
    a.spmv(x, serial);
    std::fill(parallel.begin(), parallel.end(), -7.0);
    spmv_parallel(a, x, parallel, pool);
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(), n * sizeof(double)),
              0)
        << what << " rows=" << rows << " threads=" << threads;
  };

  const auto ell = Ell<double>::from_csr(m);
  const auto sell1 = Sell<double>::from_csr(m, 1, 1);
  const auto sell32 = Sell<double>::from_csr(m, 32, 128);
  const auto hyb = Hyb<double>::from_csr(m);
  const auto merge1 = MergeCsr<double>::from_csr(m, 1);
  const auto merge3 = MergeCsr<double>::from_csr(m, 3);
  const auto merge256 = MergeCsr<double>::from_csr(m, 256);
  at_each_thread_count([&](ThreadPool& pool, int threads) {
    expect_same(m, "CSR", pool, threads);
    expect_same(ell, "ELL", pool, threads);
    expect_same(sell1, "SELL C=1", pool, threads);
    expect_same(sell32, "SELL C=32", pool, threads);
    expect_same(hyb, "HYB", pool, threads);
    expect_same(merge1, "merge-CSR parts=1", pool, threads);
    expect_same(merge3, "merge-CSR parts=3", pool, threads);
    expect_same(merge256, "merge-CSR parts=256", pool, threads);
  });
}

INSTANTIATE_TEST_SUITE_P(Rows, ParallelSpmvSweep,
                         ::testing::Values(1, 511, 513, 4095, 4097, 40001));

}  // namespace
}  // namespace spmvml
