// Shared-memory parallel SpMV kernels on the thread pool (parallel_for).
//
// The serial kernels in each format class are the reference semantics and
// every variant here is built from the SAME simd primitives (simd::dot,
// Ell::spmv_rows, MergeCsr::walk_partition), so serial, SIMD and parallel
// runs produce bitwise-identical y — the contract the differential test
// suite enforces.
//
// Every kernel takes the pool it runs on; the default is
// ThreadPool::current() (see common/parallel.hpp).
//
// Task rule (for_each_spmv_task): ELL and SELL split their rows into about
// 4 x parallel_threads(pool) contiguous tasks, each at least kMinTaskRows rows
// and a multiple of kTaskAlignRows rows (64 doubles = 8 cache lines, so
// with a line-aligned y neighbouring ELL tasks never share a y cache
// line); SELL counts in whole slices. Any split with two or more tasks
// enters the parallel region. A task edge only decides which thread
// computes a row, never the order of that row's adds — every kernel below
// owns each y row in exactly one task — so the split is free to follow
// the thread count.
//
// The formats whose work decomposes cleanly:
//   * CSR  — row-parallel (each row owned by one iteration; no races).
//   * ELL  — parallel over row tasks of the column-major slots; the
//     kernel is elementwise per (row, slot) so blocking cannot change
//     any row's accumulation order.
//   * HYB  — parallel ELL part (same row tasks) + serial COO spill (the
//            spill is small by construction).
//   * SELL — parallel over slice tasks; the sorted-row permutation
//     partitions output rows across slices (each y row is owned by
//     exactly one slice), so blocking cannot race or reorder any row's
//     ascending-slot-column accumulation.
//   * merge-CSR — the real merge-path decomposition over the partitions
//     fixed at conversion (they already balance nnz): every partition
//     assigns the rows whose boundary it owns (each such flush is unique
//     to one partition, so writes are race-free), and one trailing carry
//     (row, partial) per partition is added in a serial second phase —
//     exactly the CUDA kernel's fix-up pass. For a
//     row spanning partitions p..q only partition p can flush directly
//     (any later partition's flush into it is that partition's first and
//     goes to a carry), and carries land in partition order, so the adds
//     into each y[r] replay the serial walk exactly.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"
#include "sparse/merge_csr.hpp"
#include "sparse/sell.hpp"
#include "sparse/simd.hpp"

namespace spmvml {

/// Task edges fall on multiples of this many rows.
inline constexpr index_t kTaskAlignRows = 64;
/// No task is shorter than this many rows (except the last, or a lone one).
inline constexpr index_t kMinTaskRows = 512;

/// Runs fn(begin, count) over the tasks of the rule above, for `units`
/// contiguous units of `unit_rows` rows each (1 for ELL rows, the slice
/// height for SELL slices). A task is a whole number of
/// max(1, kTaskAlignRows / unit_rows) units — a multiple of kTaskAlignRows
/// rows whenever unit_rows divides it; the last task takes the remainder.
template <typename Fn>
void for_each_spmv_task(index_t units, index_t unit_rows, Fn&& fn,
                        ThreadPool& pool = ThreadPool::current()) {
  unit_rows = std::max<index_t>(1, unit_rows);
  const index_t align = std::max<index_t>(1, kTaskAlignRows / unit_rows);
  const auto round_up = [align](index_t n) {
    return std::max<index_t>(1, (n + align - 1) / align) * align;
  };
  const index_t want = 4 * static_cast<index_t>(parallel_threads(pool));
  const index_t per_task =
      std::max(round_up((kMinTaskRows + unit_rows - 1) / unit_rows),
               round_up((units + want - 1) / want));
  parallel_for((units + per_task - 1) / per_task, /*min_parallel_n=*/2,
               [&](index_t t) {
                 const index_t begin = t * per_task;
                 fn(begin, std::min(per_task, units - begin));
               },
               pool);
}

/// y = A*x, rows in parallel.
template <typename ValueT>
void spmv_parallel(const Csr<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y,
                   ThreadPool& pool = ThreadPool::current()) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const auto dot = simd::dot_kernel<ValueT>();
  parallel_for(a.rows(), /*min_parallel_n=*/1024, [&](index_t r) {
    const index_t begin = row_ptr[static_cast<std::size_t>(r)];
    y[static_cast<std::size_t>(r)] =
        dot(values.data() + begin, col_idx.data() + begin, x.data(),
            row_ptr[static_cast<std::size_t>(r) + 1] - begin);
  }, pool);
}

/// y = A*x, parallel over row tasks of the ELL slots.
template <typename ValueT>
void spmv_parallel(const Ell<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y,
                   ThreadPool& pool = ThreadPool::current()) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  for_each_spmv_task(
      a.rows(), 1,
      [&](index_t begin, index_t count) {
        std::fill(y.begin() + begin, y.begin() + begin + count, ValueT{});
        a.spmv_rows(x, y, begin, count);
      },
      pool);
}

/// y = A*x, parallel over SELL slice tasks (each slice owns the y rows
/// its permutation entries name — race-free by construction).
template <typename ValueT>
void spmv_parallel(const Sell<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y,
                   ThreadPool& pool = ThreadPool::current()) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  for_each_spmv_task(a.num_slices(), a.slice_height(),
                     [&](index_t begin, index_t count) {
                       a.spmv_slices(x, y, begin, count);
                     },
                     pool);
}

/// y = A*x: parallel ELL prefix + serial COO spill.
template <typename ValueT>
void spmv_parallel(const Hyb<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y,
                   ThreadPool& pool = ThreadPool::current()) {
  spmv_parallel(a.ell_part(), x, y, pool);
  a.coo_part().spmv_accumulate(x, y);
}

/// y = A*x via the two-phase parallel merge-path algorithm.
template <typename ValueT>
void spmv_parallel(const MergeCsr<ValueT>& a,
                   std::type_identity_t<std::span<const ValueT>> x,
                   std::type_identity_t<std::span<ValueT>> y,
                   ThreadPool& pool = ThreadPool::current()) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  const index_t parts = a.num_partitions();

  struct Carry {
    index_t row = -1;
    ValueT value{};
  };
  std::vector<Carry> carries(static_cast<std::size_t>(parts));

  // No zero-fill pass: besides its first flush, a partition starting in
  // row r flushes each row of (r, its end row] exactly once, and those
  // ranges tile (0, rows). So phase 1 assigns every row but row 0 exactly
  // once, and phase 2 adds the carries.
  if (a.rows() > 0) y[0] = ValueT{};

  parallel_for(parts, /*min_parallel_n=*/2, [&](index_t part) {
    auto& carry = carries[static_cast<std::size_t>(part)];
    bool first_flush = true;
    // The first flush of a partition may belong to a row begun in an
    // earlier partition: stash it for the serial fix-up. Later flushes
    // (including the trailing partial) are unique to this partition.
    const auto handle = [&](index_t row, ValueT sum) {
      if (first_flush) {
        carry.row = row;
        carry.value = sum;
        first_flush = false;
      } else {
        y[static_cast<std::size_t>(row)] = sum;
      }
    };
    a.walk_partition(x, part, handle, handle);
  }, pool);

  // Phase 2: serial carry fix-up, in partition order.
  for (const auto& c : carries)
    if (c.row >= 0 && c.row < a.rows())
      y[static_cast<std::size_t>(c.row)] += c.value;
}

}  // namespace spmvml
