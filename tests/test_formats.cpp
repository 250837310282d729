// Unit tests for each storage format: construction, conversion, SpMV on
// hand-checked matrices, invariants, and edge cases (empty rows, empty
// matrices, single entries, dense rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/spmv.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

/// The 4x6 example of the paper's Fig. 1 style: mixed row lengths,
/// a contiguous run, and an empty-ish pattern.
Csr<double> small_matrix() {
  // row 0: (0,0)=1 (0,1)=2
  // row 1: (1,2)=3
  // row 2: (2,0)=4 (2,3)=5 (2,4)=6 (2,5)=7
  // row 3: empty
  return Csr<double>(4, 6, {0, 2, 3, 7, 7}, {0, 1, 2, 0, 3, 4, 5},
                     {1, 2, 3, 4, 5, 6, 7});
}

std::vector<double> unit_x(index_t n) {
  std::vector<double> x(static_cast<std::size_t>(n));
  std::iota(x.begin(), x.end(), 1.0);  // 1, 2, 3, ...
  return x;
}

TEST(Csr, SpmvMatchesHandResult) {
  const auto m = small_matrix();
  const auto x = unit_x(6);
  std::vector<double> y(4);
  m.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1 * 1 + 2 * 2);
  EXPECT_DOUBLE_EQ(y[1], 3 * 3);
  EXPECT_DOUBLE_EQ(y[2], 4 * 1 + 5 * 4 + 6 * 5 + 7 * 6);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(Csr, FromTripletsSortsAndSumsDuplicates) {
  std::vector<Triplet<double>> t = {
      {1, 2, 1.0}, {0, 1, 2.0}, {1, 2, 3.0}, {0, 0, 4.0}};
  const auto m = Csr<double>::from_triplets(2, 3, t);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.col_idx()[0], 0);
  EXPECT_EQ(m.col_idx()[1], 1);
  EXPECT_DOUBLE_EQ(m.values()[2], 4.0);  // 1+3 summed at (1,2)
}

/// Reference CSR build: stable sort by (row, col), then sum duplicates
/// left to right, i.e. in input order.
Csr<double> reference_from_triplets(index_t rows, index_t cols,
                                    std::vector<Triplet<double>> t) {
  std::stable_sort(t.begin(), t.end(), [](const auto& a, const auto& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::vector<index_t> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<double> values;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0 && t[i].row == t[i - 1].row && t[i].col == t[i - 1].col) {
      values.back() += t[i].value;
      continue;
    }
    ++row_ptr[static_cast<std::size_t>(t[i].row) + 1];
    col_idx.push_back(t[i].col);
    values.push_back(t[i].value);
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  return Csr<double>(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

bool bitwise_equal(const Csr<double>& a, const Csr<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.nnz() == b.nnz() &&
         std::memcmp(a.row_ptr().data(), b.row_ptr().data(),
                     a.row_ptr().size_bytes()) == 0 &&
         std::memcmp(a.col_idx().data(), b.col_idx().data(),
                     a.col_idx().size_bytes()) == 0 &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size_bytes()) == 0;
}

TEST(CsrFromTriplets, MatchesStableSortReference) {
  // Random unsorted triplets with duplicates drawn from a small column
  // range, rows left empty at random, and every 50th matrix with no rows.
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const index_t rows = trial % 50 == 0 ? 0 : rng.uniform_int(1, 40);
    const index_t cols = rng.uniform_int(1, 12);
    const auto n = rows == 0 ? 0 : rng.uniform_int(0, 3 * rows);
    std::vector<Triplet<double>> t;
    for (index_t i = 0; i < n; ++i)
      t.push_back({rng.uniform_int(0, rows - 1), rng.uniform_int(0, cols - 1),
                   rng.uniform(-1e3, 1e3)});
    const auto expect = reference_from_triplets(rows, cols, t);
    const auto got = Csr<double>::from_triplets(rows, cols, t);
    ASSERT_TRUE(bitwise_equal(got, expect)) << "trial " << trial;

    // Canonical (sorted, duplicate-free) input comes back bit for bit.
    std::vector<Triplet<double>> sorted;
    for (index_t r = 0; r < got.rows(); ++r)
      for (index_t p = got.row_ptr()[r]; p < got.row_ptr()[r + 1]; ++p)
        sorted.push_back({r, got.col_idx()[p], got.values()[p]});
    ASSERT_TRUE(bitwise_equal(Csr<double>::from_triplets(rows, cols, sorted),
                              got))
        << "trial " << trial;
  }
}

TEST(Csr, RejectsOutOfRangeTriplets) {
  std::vector<Triplet<double>> t = {{0, 5, 1.0}};
  EXPECT_THROW(Csr<double>::from_triplets(2, 3, t), Error);
}

TEST(Csr, ValidateCatchesBadRowPtr) {
  EXPECT_THROW(Csr<double>(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}), Error);
}

TEST(Csr, ValidateCatchesUnsortedColumns) {
  EXPECT_THROW(Csr<double>(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}), Error);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  const auto m = small_matrix();
  const auto tt = m.transpose().transpose();
  EXPECT_EQ(m, tt);
}

TEST(Csr, TransposeSpmvConsistent) {
  // (A^T x)_j == sum_i A_ij x_i
  const auto m = small_matrix();
  const auto t = m.transpose();
  const auto x = unit_x(4);
  std::vector<double> y(6);
  t.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1 * 1 + 4 * 3);  // col 0 entries: (0,0)=1,(2,0)=4
  EXPECT_DOUBLE_EQ(y[5], 7 * 3);
}

TEST(Bandwidth, HandComputed) {
  Csr<double> m(3, 3, {0, 2, 3, 4}, {0, 2, 1, 0}, {1, 2, 3, 4});
  EXPECT_EQ(bandwidth(m), 2);  // entries (0,2) and (2,0)
  Csr<double> empty(2, 2, {0, 0, 0}, {}, {});
  EXPECT_EQ(bandwidth(empty), 0);
}

TEST(Bandwidth, CountsEitherSideOfTheDiagonal) {
  Csr<double> diagonal(3, 3, {0, 1, 2, 3}, {0, 1, 2}, {1, 1, 1});
  EXPECT_EQ(bandwidth(diagonal), 0);
  // Lower bidiagonal: (1,0) and (2,1) sit one below the diagonal.
  Csr<double> lower(3, 3, {0, 1, 3, 5}, {0, 0, 1, 1, 2}, {1, 1, 1, 1, 1});
  EXPECT_EQ(bandwidth(lower), 1);
  // One far corner entry sets the bandwidth on its own.
  Csr<double> corner(4, 4, {0, 2, 2, 2, 2}, {0, 3}, {1, 1});
  EXPECT_EQ(bandwidth(corner), 3);
}

TEST(Bandwidth, RectangularMatrices) {
  Csr<double> wide(2, 6, {0, 1, 2}, {5, 1}, {1, 1});
  EXPECT_EQ(bandwidth(wide), 5);  // (0,5)
  Csr<double> tall(6, 2, {0, 0, 0, 0, 0, 0, 1}, {1}, {1});
  EXPECT_EQ(bandwidth(tall), 4);  // (5,1)
}

TEST(Csr, EmptyMatrix) {
  Csr<double> m(0, 0, {0}, {}, {});
  std::vector<double> x, y;
  m.spmv(x, y);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(Coo, RoundTripThroughCsr) {
  const auto m = small_matrix();
  const auto coo = Coo<double>::from_csr(m);
  const auto back = Csr<double>::from_coo(coo);
  EXPECT_EQ(m, back);
}

TEST(Coo, SpmvMatchesReference) {
  const auto m = small_matrix();
  const auto coo = Coo<double>::from_csr(m);
  const auto x = unit_x(6);
  std::vector<double> expect(4), y(4);
  spmv_reference(m, x, expect);
  coo.spmv(x, y);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], expect[i]);
}

TEST(Coo, ValidateRejectsUnsorted) {
  EXPECT_THROW(Coo<double>(2, 2, {1, 0}, {0, 0}, {1.0, 1.0}), Error);
}

TEST(Coo, ValidateRejectsDuplicates) {
  EXPECT_THROW(Coo<double>(2, 2, {0, 0}, {1, 1}, {1.0, 1.0}), Error);
}

TEST(Ell, WidthIsMaxRowLength) {
  const auto ell = Ell<double>::from_csr(small_matrix());
  EXPECT_EQ(ell.width(), 4);
  EXPECT_EQ(ell.nnz(), 7);
}

TEST(Ell, PaddingRatio) {
  const auto ell = Ell<double>::from_csr(small_matrix());
  // 4 rows x width 4 = 16 slots over 7 entries.
  EXPECT_DOUBLE_EQ(ell.padding_ratio(), 16.0 / 7.0);
}

TEST(Ell, ColumnMajorLayoutSlots) {
  const auto ell = Ell<double>::from_csr(small_matrix());
  EXPECT_EQ(ell.col_at(0, 0), 0);
  EXPECT_EQ(ell.col_at(0, 1), 1);
  EXPECT_EQ(ell.col_at(0, 2), Ell<double>::kPad);
  EXPECT_EQ(ell.col_at(3, 0), Ell<double>::kPad);  // empty row fully padded
}

TEST(Ell, SpmvMatchesReference) {
  const auto m = small_matrix();
  const auto ell = Ell<double>::from_csr(m);
  const auto x = unit_x(6);
  std::vector<double> expect(4), y(4);
  spmv_reference(m, x, expect);
  ell.spmv(x, y);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], expect[i]);
}

TEST(Ell, RejectsWidthSmallerThanLongestRow) {
  EXPECT_THROW(Ell<double>::from_csr(small_matrix(), 2), Error);
}

TEST(Hyb, SplitsAtMeanRowLength) {
  const auto m = small_matrix();  // mu = 7/4 -> width ceil = 2
  const auto hyb = Hyb<double>::from_csr(m, HybThreshold::kNnzMu);
  EXPECT_EQ(hyb.ell_width(), 2);
  EXPECT_EQ(hyb.ell_part().nnz() + hyb.coo_part().nnz(), 7);
  EXPECT_EQ(hyb.coo_part().nnz(), 2);  // row 2 spills entries 3 and 4
}

TEST(Hyb, CooFraction) {
  const auto hyb = Hyb<double>::from_csr(small_matrix());
  EXPECT_NEAR(hyb.coo_fraction(), 2.0 / 7.0, 1e-12);
}

TEST(Hyb, SpmvMatchesReference) {
  const auto m = small_matrix();
  for (auto rule : {HybThreshold::kNnzMu, HybThreshold::kBellGarland}) {
    const auto hyb = Hyb<double>::from_csr(m, rule);
    const auto x = unit_x(6);
    std::vector<double> expect(4), y(4);
    spmv_reference(m, x, expect);
    hyb.spmv(x, y);
    for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], expect[i]);
  }
}

TEST(Hyb, ZeroWidthPutsEverythingInCoo) {
  const auto hyb = Hyb<double>::from_csr_with_width(small_matrix(), 0);
  EXPECT_EQ(hyb.ell_part().nnz(), 0);
  EXPECT_EQ(hyb.coo_part().nnz(), 7);
  const auto x = unit_x(6);
  std::vector<double> y(4);
  hyb.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
}

TEST(Csr5, TileCountAndPermutation) {
  const auto m = small_matrix();
  const auto c5 = Csr5<double>::from_csr(m, 2, 2);  // tile = 4 entries
  EXPECT_EQ(c5.num_full_tiles(), 1);  // 7 nnz -> 1 full tile + tail of 3
  EXPECT_EQ(c5.nnz(), 7);
}

TEST(Csr5, SpmvMatchesReferenceAcrossTileShapes) {
  const auto m = small_matrix();
  const auto x = unit_x(6);
  std::vector<double> expect(4);
  spmv_reference(m, x, expect);
  for (index_t omega : {1, 2, 3, 32}) {
    for (index_t sigma : {1, 2, 5, 16}) {
      const auto c5 = Csr5<double>::from_csr(m, omega, sigma);
      std::vector<double> y(4);
      c5.spmv(x, y);
      for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(y[i], expect[i])
            << "omega=" << omega << " sigma=" << sigma;
    }
  }
}

TEST(Csr5, RejectsBadTileShape) {
  EXPECT_THROW(Csr5<double>::from_csr(small_matrix(), 0, 4), Error);
}

TEST(MergeCsr, PartitionEndpoints) {
  const auto m = small_matrix();
  const auto mc = MergeCsr<double>::from_csr(m, 3);
  mc.validate();
  EXPECT_EQ(mc.partition_start(0).row, 0);
  EXPECT_EQ(mc.partition_start(0).nz, 0);
  const auto last = mc.partition_start(mc.num_partitions());
  EXPECT_EQ(last.row, 4);
  EXPECT_EQ(last.nz, 7);
}

TEST(MergeCsr, MergePathSearchSplitsEvenly) {
  // Merge path of small_matrix: rows+nnz = 11 decisions.
  const auto m = small_matrix();
  const auto mid = MergeCsr<double>::merge_path_search(
      5, m.row_ptr(), m.rows(), m.nnz());
  EXPECT_EQ(mid.row + mid.nz, 5);
  // Coordinate must be a valid path point: nz within the row's span.
  EXPECT_GE(mid.nz, m.row_ptr()[mid.row]);
}

TEST(MergeCsr, SpmvMatchesReferenceForAnyPartitionCount) {
  const auto m = small_matrix();
  const auto x = unit_x(6);
  std::vector<double> expect(4);
  spmv_reference(m, x, expect);
  for (index_t parts : {1, 2, 3, 5, 11, 64}) {
    const auto mc = MergeCsr<double>::from_csr(m, parts);
    std::vector<double> y(4);
    mc.spmv(x, y);
    for (int i = 0; i < 4; ++i)
      EXPECT_DOUBLE_EQ(y[i], expect[i]) << "parts=" << parts;
  }
}

std::vector<double> random_x(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

TEST(Sell, PaddingBetweenOneAndEll) {
  GenSpec spec;
  spec.family = MatrixFamily::kUniformRandom;
  spec.rows = 2000;
  spec.cols = 2000;
  spec.row_mu = 10;
  spec.row_cv = 1.5;
  spec.seed = 6;
  const auto m = generate(spec);
  const auto sell = Sell<double>::from_csr(m, 32, 256);
  sell.validate();
  const auto ell = Ell<double>::from_csr(m);
  EXPECT_GE(sell.padding_ratio(), 1.0);
  EXPECT_LT(sell.padding_ratio(), 0.5 * ell.padding_ratio());
}

TEST(Sell, SortingWindowReducesPadding) {
  GenSpec spec;
  spec.family = MatrixFamily::kPowerLaw;
  spec.rows = 3000;
  spec.cols = 3000;
  spec.row_mu = 8;
  spec.seed = 7;
  const auto m = generate(spec);
  const auto unsorted = Sell<double>::from_csr(m, 32, 32);
  const auto sorted = Sell<double>::from_csr(m, 32, 1024);
  EXPECT_LT(sorted.padding_ratio(), unsorted.padding_ratio());
}

TEST(Sell, SpmvMatchesReferenceAcrossShapes) {
  GenSpec spec;
  spec.family = MatrixFamily::kPowerLaw;
  spec.rows = 500;
  spec.cols = 520;
  spec.row_mu = 7;
  spec.seed = 8;
  const auto m = generate(spec);
  const auto x = random_x(m.cols(), 9);
  std::vector<double> expect(static_cast<std::size_t>(m.rows()));
  spmv_reference(m, x, expect);
  for (auto [c, sigma] : {std::pair<index_t, index_t>{1, 1},
                          {4, 16},
                          {32, 32},
                          {32, 512},
                          {64, 128}}) {
    const auto sell = Sell<double>::from_csr(m, c, sigma);
    sell.validate();
    std::vector<double> y(static_cast<std::size_t>(m.rows()));
    sell.spmv(x, y);
    for (index_t r = 0; r < m.rows(); ++r)
      ASSERT_NEAR(y[static_cast<std::size_t>(r)],
                  expect[static_cast<std::size_t>(r)], 1e-10)
          << "C=" << c << " sigma=" << sigma;
  }
}

TEST(Sell, RejectsBadParameters) {
  const auto m = small_matrix();
  EXPECT_THROW(Sell<double>::from_csr(m, 32, 16), Error);  // sigma below C
  EXPECT_THROW(Sell<double>::from_csr(m, 0, 128), Error);  // non-positive C
  EXPECT_THROW(Sell<double>::from_csr(m, -4, 128), Error);
  // Hostile slice height: capped so padding cannot explode toward C
  // slots per stored row (mirrors the mmio reserve-cap hardening).
  EXPECT_THROW(
      Sell<double>::from_csr(m, (index_t{1} << 20) + 1, index_t{1} << 40),
      Error);
  // sigma need not be a multiple of C (slices may straddle windows) —
  // the result must still be a valid, equivalent matrix.
  const auto sell = Sell<double>::from_csr(m, 32, 48);
  sell.validate();
  EXPECT_EQ(sell.to_csr(), m);
}

TEST(Sell, EmptyRowsHandled) {
  Csr<double> m(5, 5, {0, 0, 2, 2, 2, 3}, {1, 3, 0}, {1.0, 2.0, 3.0});
  const std::vector<double> x = {1, 1, 1, 1, 1};
  std::vector<double> expect(5);
  spmv_reference(m, x, expect);
  std::vector<double> y(5, -1);
  Sell<double>::from_csr(m, 2, 4).spmv(x, y);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(y[i], expect[i]);
}

TEST(AnyMatrix, DispatchesAllFormats) {
  const auto m = small_matrix();
  const auto x = unit_x(6);
  std::vector<double> expect(4);
  spmv_reference(m, x, expect);
  for (Format f : kAllFormats) {
    const auto any = AnyMatrix<double>::build(f, m);
    EXPECT_EQ(any.format(), f);
    EXPECT_EQ(any.rows(), 4);
    EXPECT_EQ(any.cols(), 6);
    EXPECT_EQ(any.nnz(), 7);
    EXPECT_GT(any.bytes(), 0);
    std::vector<double> y(4);
    any.spmv(x, y);
    for (int i = 0; i < 4; ++i)
      EXPECT_DOUBLE_EQ(y[i], expect[i]) << format_name(f);
  }
}

TEST(Format, NamesRoundTrip) {
  for (Format f : kAllFormats) EXPECT_EQ(parse_format(format_name(f)), f);
  EXPECT_THROW(parse_format("DIA"), Error);
}

TEST(FormatBytes, EllCostsMoreThanCsrOnSkewedMatrix) {
  const auto m = small_matrix();
  EXPECT_GT(Ell<double>::from_csr(m).bytes(), m.bytes());
}

TEST(FloatFormats, SpmvWorksInSinglePrecision) {
  Csr<float> m(2, 2, {0, 1, 2}, {0, 1}, {2.0f, 3.0f});
  std::vector<float> x = {1.0f, 2.0f}, y(2);
  for (Format f : kAllFormats) {
    const auto any = AnyMatrix<float>::build(f, m);
    any.spmv(x, y);
    EXPECT_FLOAT_EQ(y[0], 2.0f) << format_name(f);
    EXPECT_FLOAT_EQ(y[1], 6.0f) << format_name(f);
  }
}

}  // namespace
}  // namespace spmvml
