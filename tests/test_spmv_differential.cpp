// Differential tests of the SIMD/parallel SpMV contract (DESIGN.md §5g):
// for every format and every synthetic matrix family, the serial scalar
// fallback, the runtime-dispatched SIMD tier, and the parallel kernels
// must produce *byte-identical* y — no tolerances. The same suite pins
// the simd primitive semantics (lane accumulation, the short-row
// sequential rule, the pairwise reduction tree) against hand-rolled
// replays, and proves every format round-trips back to its CSR master
// copy bit-for-bit.
//
// In an SPMVML_FORCE_SCALAR build (tools/check.sh --simd-off) the SIMD
// path *is* the scalar path, so the comparisons still run and still
// must hold — the suite degrades to checking parallel == serial.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sparse/parallel_spmv.hpp"
#include "sparse/simd.hpp"
#include "sparse/spmv.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

/// Restores the process-wide SIMD toggle on scope exit so a failing
/// assertion cannot leak a disabled state into later tests.
struct SimdGuard {
  bool saved;
  SimdGuard() : saved(simd::enabled()) {}
  ~SimdGuard() { simd::set_enabled(saved); }
};

std::vector<double> random_x(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

/// Parallel kernel for the formats that decompose; COO and CSR5 have no
/// parallel variant (their segmented carries are sequential) and use the
/// serial kernel.
void spmv_parallel_any(const AnyMatrix<double>& m,
                       const std::vector<double>& x, std::vector<double>& y) {
  switch (m.format()) {
    case Format::kCsr: return spmv_parallel(m.get<Csr<double>>(), x, y);
    case Format::kEll: return spmv_parallel(m.get<Ell<double>>(), x, y);
    case Format::kHyb: return spmv_parallel(m.get<Hyb<double>>(), x, y);
    case Format::kMergeCsr:
      return spmv_parallel(m.get<MergeCsr<double>>(), x, y);
    case Format::kSell: return spmv_parallel(m.get<Sell<double>>(), x, y);
    case Format::kCoo:
    case Format::kCsr5: return m.spmv(x, y);
  }
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

using Param = std::tuple<MatrixFamily, double /*mu*/, double /*cv*/,
                         std::uint64_t /*seed*/, index_t /*rows*/>;

class SpmvDifferential : public ::testing::TestWithParam<Param> {};

TEST_P(SpmvDifferential, SerialSimdParallelBitwiseIdentical) {
  const auto [family, mu, cv, seed, rows] = GetParam();
  GenSpec spec;
  spec.family = family;
  spec.rows = rows;
  spec.cols = rows * 47 / 50;  // 470 at 500 rows
  spec.row_mu = mu;
  spec.row_cv = cv;
  spec.seed = seed;
  const auto csr = generate(spec);
  const auto x = random_x(csr.cols(), seed ^ 0x51D5ULL);

  SimdGuard guard;
  std::vector<double> y_scalar(static_cast<std::size_t>(csr.rows()));
  std::vector<double> y_simd(y_scalar.size());
  std::vector<double> y_par(y_scalar.size());
  for (const Format f : kAllFormats) {
    const auto m = AnyMatrix<double>::build(f, csr);
    simd::set_enabled(false);
    m.spmv(x, y_scalar);
    simd::set_enabled(true);  // no-op when the build is scalar-only
    m.spmv(x, y_simd);
    spmv_parallel_any(m, x, y_par);
    EXPECT_TRUE(bytes_equal(y_scalar, y_simd))
        << format_name(f) << ": SIMD y differs from scalar y, family "
        << family_name(family);
    EXPECT_TRUE(bytes_equal(y_scalar, y_par))
        << format_name(f) << ": parallel y differs from scalar y, family "
        << family_name(family);
  }
}

TEST_P(SpmvDifferential, FromCsrToCsrRoundTrips) {
  // The round trip does not depend on how the parallel kernels split the
  // rows, so it keeps one small shape whatever the rows parameter.
  const auto [family, mu, cv, seed, rows] = GetParam();
  (void)rows;
  GenSpec spec;
  spec.family = family;
  spec.rows = 300;
  spec.cols = 310;
  spec.row_mu = mu;
  spec.row_cv = cv;
  spec.seed = seed;
  const auto csr = generate(spec);
  for (const Format f : kAllFormats) {
    const auto m = AnyMatrix<double>::build(f, csr);
    EXPECT_EQ(m.to_csr(), csr)
        << format_name(f) << " round trip, family " << family_name(family);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, SpmvDifferential,
    ::testing::Combine(
        ::testing::Values(MatrixFamily::kBanded, MatrixFamily::kStencil,
                          MatrixFamily::kUniformRandom,
                          MatrixFamily::kPowerLaw, MatrixFamily::kBlockRandom,
                          MatrixFamily::kGeomGraph),
        ::testing::Values(4.0, 24.0),  // below and above the dot cutoff
        ::testing::Values(0.3, 1.2),
        ::testing::Values(7ULL, 1234ULL),
        ::testing::Values(index_t{500})));

// 500 rows is below kMinTaskRows, so every parallel kernel above runs as
// one task; these 2048-row matrices split into several.
INSTANTIATE_TEST_SUITE_P(
    MultiTask, SpmvDifferential,
    ::testing::Combine(::testing::Values(MatrixFamily::kUniformRandom,
                                         MatrixFamily::kBanded),
                       ::testing::Values(16.0), ::testing::Values(0.3),
                       ::testing::Values(42ULL),
                       ::testing::Values(index_t{2048})));

// --- SELL-C-sigma across the (C, sigma) tuning surface ---------------------
// The generic suite above covers SELL at the default (32, 128); this one
// sweeps C in {4, 32} x sigma in {C, 4C, rows} over all six families,
// asserting the same three-way bitwise contract plus the CSR round trip
// for every tuning — including sigma = rows, which does not divide the
// row count and exercises slices straddling sort-window boundaries.
using SellParam = std::tuple<MatrixFamily, index_t /*C*/, int /*sigma kind*/>;

class SellDifferential : public ::testing::TestWithParam<SellParam> {};

TEST_P(SellDifferential, SerialSimdParallelBitwiseIdenticalAllTunings) {
  const auto [family, c, sigma_kind] = GetParam();
  GenSpec spec;
  spec.family = family;
  spec.rows = 500;
  spec.cols = 470;
  spec.row_mu = 10.0;
  spec.row_cv = 1.2;
  spec.seed = 42;
  const auto csr = generate(spec);
  const index_t sigma =
      sigma_kind == 0 ? c : (sigma_kind == 1 ? 4 * c : csr.rows());
  const auto sell = Sell<double>::from_csr(csr, c, sigma);
  sell.validate();
  EXPECT_EQ(sell.to_csr(), csr);

  const auto x = random_x(csr.cols(), 0x5E11ULL ^ static_cast<std::uint64_t>(c));
  SimdGuard guard;
  std::vector<double> y_scalar(static_cast<std::size_t>(csr.rows()));
  std::vector<double> y_simd(y_scalar.size());
  std::vector<double> y_par(y_scalar.size());
  simd::set_enabled(false);
  sell.spmv(x, y_scalar);
  simd::set_enabled(true);
  sell.spmv(x, y_simd);
  spmv_parallel(sell, std::span<const double>(x), std::span<double>(y_par));
  EXPECT_TRUE(bytes_equal(y_scalar, y_simd))
      << "C=" << c << " sigma=" << sigma << " family " << family_name(family);
  EXPECT_TRUE(bytes_equal(y_scalar, y_par))
      << "C=" << c << " sigma=" << sigma << " family " << family_name(family);
}

INSTANTIATE_TEST_SUITE_P(
    Tunings, SellDifferential,
    ::testing::Combine(
        ::testing::Values(MatrixFamily::kBanded, MatrixFamily::kStencil,
                          MatrixFamily::kUniformRandom,
                          MatrixFamily::kPowerLaw, MatrixFamily::kBlockRandom,
                          MatrixFamily::kGeomGraph),
        ::testing::Values(index_t{4}, index_t{32}),
        ::testing::Values(0, 1, 2)));  // sigma = C, 4C, rows

// --- Primitive semantics ---------------------------------------------------
// The scalar reference *is* the contract; these pin its definition so a
// future "optimisation" cannot silently redefine the bits every tier
// must reproduce.

struct DotCase {
  std::vector<double> vals;
  std::vector<index_t> cols;
  std::vector<double> x;
};

DotCase make_dot_case(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  DotCase c;
  const index_t xn = std::max<index_t>(n * 2, 8);
  c.x.resize(static_cast<std::size_t>(xn));
  for (auto& v : c.x) v = rng.uniform(-2.0, 2.0);
  c.vals.resize(static_cast<std::size_t>(n));
  c.cols.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    c.vals[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
    c.cols[static_cast<std::size_t>(i)] =
        static_cast<index_t>(rng() % static_cast<std::uint64_t>(xn));
  }
  return c;
}

TEST(SimdContract, ShortRowsSumSequentially) {
  for (index_t n = 0; n < simd::kDotSequentialCutoff<double>; ++n) {
    const auto c = make_dot_case(n, 100 + static_cast<std::uint64_t>(n));
    double expect = 0.0;
    for (index_t i = 0; i < n; ++i)
      expect += c.vals[static_cast<std::size_t>(i)] *
                c.x[static_cast<std::size_t>(c.cols[static_cast<std::size_t>(i)])];
    const double got = simd::dot(c.vals.data(), c.cols.data(), c.x.data(), n);
    EXPECT_EQ(std::memcmp(&expect, &got, sizeof(double)), 0) << "n=" << n;
  }
}

TEST(SimdContract, LongRowsUseLaneAccumulators) {
  constexpr index_t W = simd::kLanes<double>;
  for (const index_t n : {simd::kDotSequentialCutoff<double>, index_t{37},
                          index_t{64}, index_t{129}}) {
    const auto c = make_dot_case(n, 900 + static_cast<std::uint64_t>(n));
    // Manual replay of the contract: element i -> lane i mod W over the
    // full blocks, tail element full+j -> lane j, pairwise halving tree.
    double acc[W] = {};
    const index_t full = n - n % W;
    for (index_t i = 0; i < full; ++i)
      acc[i % W] += c.vals[static_cast<std::size_t>(i)] *
                    c.x[static_cast<std::size_t>(c.cols[static_cast<std::size_t>(i)])];
    for (index_t j = 0; j < n - full; ++j)
      acc[j] += c.vals[static_cast<std::size_t>(full + j)] *
                c.x[static_cast<std::size_t>(
                    c.cols[static_cast<std::size_t>(full + j)])];
    for (index_t w = W / 2; w >= 1; w /= 2)
      for (index_t j = 0; j < w; ++j) acc[j] = acc[2 * j] + acc[2 * j + 1];
    const double expect = acc[0];
    const double got = simd::dot(c.vals.data(), c.cols.data(), c.x.data(), n);
    EXPECT_EQ(std::memcmp(&expect, &got, sizeof(double)), 0) << "n=" << n;
  }
}

TEST(SimdContract, DotCutoffBoundaryMatchesScalarBothSides) {
  // The exact boundary where dot() switches summation rules: both tiers
  // must switch at the same n or the bits diverge.
  SimdGuard guard;
  const index_t cutoff = simd::kDotSequentialCutoff<double>;
  for (const index_t n : {cutoff - 1, cutoff, cutoff + 1}) {
    const auto c = make_dot_case(n, 4000 + static_cast<std::uint64_t>(n));
    const double scalar =
        simd::detail::dot_scalar(c.vals.data(), c.cols.data(), c.x.data(), n);
    simd::set_enabled(true);
    const double active =
        simd::dot(c.vals.data(), c.cols.data(), c.x.data(), n);
    EXPECT_EQ(std::memcmp(&scalar, &active, sizeof(double)), 0) << "n=" << n;
  }
}

TEST(SimdContract, FloatDotMatchesScalar) {
  SimdGuard guard;
  Rng rng(77);
  for (const index_t n : {index_t{5}, index_t{31}, index_t{32}, index_t{100}}) {
    std::vector<float> vals(static_cast<std::size_t>(n));
    std::vector<index_t> cols(static_cast<std::size_t>(n));
    std::vector<float> x(256);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (index_t i = 0; i < n; ++i) {
      vals[static_cast<std::size_t>(i)] =
          static_cast<float>(rng.uniform(-1.0, 1.0));
      cols[static_cast<std::size_t>(i)] =
          static_cast<index_t>(rng() % 256);
    }
    const float scalar =
        simd::detail::dot_scalar(vals.data(), cols.data(), x.data(), n);
    simd::set_enabled(true);
    const float active = simd::dot(vals.data(), cols.data(), x.data(), n);
    EXPECT_EQ(std::memcmp(&scalar, &active, sizeof(float)), 0) << "n=" << n;
  }
}

TEST(SimdContract, MaskedGatherAxpyMatchesScalarWithPads) {
  SimdGuard guard;
  constexpr index_t kPad = -1;
  Rng rng(55);
  for (const index_t n : {index_t{1}, index_t{4}, index_t{7}, index_t{64},
                          index_t{101}}) {
    std::vector<double> vals(static_cast<std::size_t>(n));
    std::vector<index_t> cols(static_cast<std::size_t>(n));
    std::vector<double> x(128);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    for (index_t i = 0; i < n; ++i) {
      vals[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
      // ~1/3 padded slots, including whole padded blocks when n is long.
      const bool pad = (i >= 8 && i < 16) || rng() % 3 == 0;
      cols[static_cast<std::size_t>(i)] =
          pad ? kPad : static_cast<index_t>(rng() % 128);
    }
    std::vector<double> y_scalar(static_cast<std::size_t>(n), 0.5);
    std::vector<double> y_active(y_scalar);
    simd::detail::masked_gather_axpy_scalar(vals.data(), cols.data(), x.data(),
                                            y_scalar.data(), n, kPad);
    simd::set_enabled(true);
    simd::masked_gather_axpy(vals.data(), cols.data(), x.data(),
                             y_active.data(), n, kPad);
    EXPECT_TRUE(bytes_equal(y_scalar, y_active)) << "n=" << n;
  }
}

TEST(SimdContract, MaskedScatterAxpyMatchesScalarWithPads) {
  // The SELL slot-column update: like the gather axpy but the += lands
  // through an output-row indirection (the sorted-row permutation).
  SimdGuard guard;
  constexpr index_t kPad = -1;
  Rng rng(58);
  for (const index_t n : {index_t{1}, index_t{4}, index_t{7}, index_t{64},
                          index_t{101}}) {
    std::vector<double> vals(static_cast<std::size_t>(n));
    std::vector<index_t> cols(static_cast<std::size_t>(n));
    std::vector<index_t> rows(static_cast<std::size_t>(n));
    std::vector<double> x(128);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    // rows = a genuine permutation of [0, n) (shuffled), as in SELL.
    for (index_t i = 0; i < n; ++i) rows[static_cast<std::size_t>(i)] = i;
    for (index_t i = n - 1; i > 0; --i)
      std::swap(rows[static_cast<std::size_t>(i)],
                rows[static_cast<std::size_t>(
                    rng() % static_cast<std::uint64_t>(i + 1))]);
    for (index_t i = 0; i < n; ++i) {
      vals[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
      // ~1/3 padded slots plus a whole padded block when n is long.
      const bool pad = (i >= 8 && i < 16) || rng() % 3 == 0;
      cols[static_cast<std::size_t>(i)] =
          pad ? kPad : static_cast<index_t>(rng() % 128);
    }
    std::vector<double> y_scalar(static_cast<std::size_t>(n), 0.5);
    std::vector<double> y_active(y_scalar);
    simd::detail::masked_scatter_axpy_scalar(vals.data(), cols.data(),
                                             x.data(), y_scalar.data(),
                                             rows.data(), n, kPad);
    simd::set_enabled(true);
    simd::masked_scatter_axpy(vals.data(), cols.data(), x.data(),
                              y_active.data(), rows.data(), n, kPad);
    EXPECT_TRUE(bytes_equal(y_scalar, y_active)) << "n=" << n;
  }
}

TEST(SimdContract, MulGatherMatchesScalar) {
  SimdGuard guard;
  Rng rng(66);
  for (const index_t n : {index_t{1}, index_t{6}, index_t{33}, index_t{128}}) {
    std::vector<double> vals(static_cast<std::size_t>(n));
    std::vector<index_t> cols(static_cast<std::size_t>(n));
    std::vector<double> x(64);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    for (index_t i = 0; i < n; ++i) {
      vals[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
      cols[static_cast<std::size_t>(i)] = static_cast<index_t>(rng() % 64);
    }
    std::vector<double> out_scalar(static_cast<std::size_t>(n));
    std::vector<double> out_active(static_cast<std::size_t>(n));
    simd::detail::mul_gather_scalar(vals.data(), cols.data(), x.data(),
                                    out_scalar.data(), n);
    simd::set_enabled(true);
    simd::mul_gather(vals.data(), cols.data(), x.data(), out_active.data(), n);
    EXPECT_TRUE(bytes_equal(out_scalar, out_active)) << "n=" << n;
  }
}

TEST(SimdContract, DotKernelPointerMatchesDispatchedDot) {
  SimdGuard guard;
  for (const bool on : {false, true}) {
    simd::set_enabled(on);
    const auto kernel = simd::dot_kernel<double>();
    const auto c = make_dot_case(50, 31337);
    const double via_ptr = kernel(c.vals.data(), c.cols.data(), c.x.data(), 50);
    const double via_dot = simd::dot(c.vals.data(), c.cols.data(), c.x.data(), 50);
    EXPECT_EQ(std::memcmp(&via_ptr, &via_dot, sizeof(double)), 0)
        << "enabled=" << on;
  }
}

TEST(SimdContract, SelfCheckPassesAndIsaIsKnown) {
  EXPECT_TRUE(simd::self_check());
  const std::string isa = simd::active_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "portable" || isa == "scalar") << isa;
  if (!simd::compiled_in()) EXPECT_EQ(isa, "scalar");
}

TEST(SimdContract, SetEnabledRoundTrips) {
  SimdGuard guard;
  simd::set_enabled(false);
  EXPECT_FALSE(simd::enabled());
  simd::set_enabled(true);
  // In a scalar-only build set_enabled(true) must stay false.
  EXPECT_EQ(simd::enabled(), simd::compiled_in());
}

// --- Regression cases ------------------------------------------------------

TEST(SpmvDifferentialRegression, EmptyRowsAndEmptyMatrix) {
  SimdGuard guard;
  // Rows 1 and 3 empty; row 2 exactly at the sequential cutoff.
  std::vector<Triplet<double>> t;
  for (index_t j = 0; j < simd::kDotSequentialCutoff<double>; ++j)
    t.push_back({2, j, 0.25 * static_cast<double>(j + 1)});
  t.push_back({0, 0, 1.5});
  const auto csr = Csr<double>::from_triplets(5, 40, t);
  const auto x = random_x(csr.cols(), 9);
  std::vector<double> y_scalar(5), y_simd(5), y_par(5);
  for (const Format f : kAllFormats) {
    const auto m = AnyMatrix<double>::build(f, csr);
    simd::set_enabled(false);
    m.spmv(x, y_scalar);
    simd::set_enabled(true);
    m.spmv(x, y_simd);
    spmv_parallel_any(m, x, y_par);
    EXPECT_TRUE(bytes_equal(y_scalar, y_simd)) << format_name(f);
    EXPECT_TRUE(bytes_equal(y_scalar, y_par)) << format_name(f);
    EXPECT_EQ(y_scalar[1], 0.0) << format_name(f);
    EXPECT_EQ(y_scalar[3], 0.0) << format_name(f);
  }

  const auto empty = Csr<double>::from_triplets(3, 3, {});
  for (const Format f : kAllFormats) {
    const auto m = AnyMatrix<double>::build(f, empty);
    std::vector<double> y(3, 7.0), x3(3, 1.0);
    m.spmv(x3, y);
    EXPECT_EQ(y, std::vector<double>(3, 0.0)) << format_name(f);
    EXPECT_EQ(m.to_csr(), empty) << format_name(f);
  }
}

TEST(SpmvDifferentialRegression, SingleLongRowCrossesLaneBlocks) {
  // One dense row of 1000: stresses the lane tail handling and the
  // merge-CSR carry chain (every partition lands inside the same row).
  SimdGuard guard;
  std::vector<Triplet<double>> t;
  for (index_t j = 0; j < 1000; ++j)
    t.push_back({0, j, std::ldexp(1.0, static_cast<int>(j % 31) - 15)});
  const auto csr = Csr<double>::from_triplets(1, 1000, t);
  const auto x = random_x(1000, 17);
  std::vector<double> y_scalar(1), y_simd(1), y_par(1);
  for (const Format f : kAllFormats) {
    const auto m = AnyMatrix<double>::build(f, csr);
    simd::set_enabled(false);
    m.spmv(x, y_scalar);
    simd::set_enabled(true);
    m.spmv(x, y_simd);
    spmv_parallel_any(m, x, y_par);
    EXPECT_TRUE(bytes_equal(y_scalar, y_simd)) << format_name(f);
    EXPECT_TRUE(bytes_equal(y_scalar, y_par)) << format_name(f);
  }
}

TEST(SpmvDifferentialRegression, CatastrophicCancellationStaysBitwise) {
  // Values engineered so different summation orders give *different*
  // floats — exactly the case where an "approximately equal" check
  // would hide a reassociating kernel. 1e16 + 1 - 1e16 style rows.
  SimdGuard guard;
  std::vector<Triplet<double>> t;
  const index_t n = 48;
  for (index_t j = 0; j < n; ++j) {
    const double v = (j % 2 == 0) ? 1e16 : -1e16;
    t.push_back({0, j, v + static_cast<double>(j)});
    t.push_back({1, j, 1.0 / 3.0});
  }
  const auto csr = Csr<double>::from_triplets(2, n, t);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y_scalar(2), y_simd(2), y_par(2);
  for (const Format f : kAllFormats) {
    const auto m = AnyMatrix<double>::build(f, csr);
    simd::set_enabled(false);
    m.spmv(x, y_scalar);
    simd::set_enabled(true);
    m.spmv(x, y_simd);
    spmv_parallel_any(m, x, y_par);
    EXPECT_TRUE(bytes_equal(y_scalar, y_simd)) << format_name(f);
    EXPECT_TRUE(bytes_equal(y_scalar, y_par)) << format_name(f);
  }
}

TEST(SpmvDifferentialRegression, SellCutoffStraddlingSliceWidths) {
  // Row lengths straddle the dot sequential cutoff (16 for double) so
  // consecutive slices get widths on both sides of every lane-block
  // boundary; C=4 keeps the scatter primitive on its vector+tail path.
  SimdGuard guard;
  std::vector<Triplet<double>> t;
  const index_t cutoff = simd::kDotSequentialCutoff<double>;
  const index_t rows = 37;  // not a multiple of C: short last slice
  for (index_t r = 0; r < rows; ++r) {
    const index_t len = cutoff - 3 + r % 7;  // 13..19 around the cutoff
    for (index_t j = 0; j < len; ++j)
      t.push_back({r, (r * 11 + j * 3) % 64,
                   0.5 + 0.01 * static_cast<double>(r * 64 + j)});
  }
  const auto csr = Csr<double>::from_triplets(rows, 64, t);
  const auto x = random_x(64, 23);
  for (const index_t c : {index_t{4}, index_t{5}, index_t{32}}) {
    const auto sell = Sell<double>::from_csr(csr, c, csr.rows());
    sell.validate();
    std::vector<double> y_scalar(static_cast<std::size_t>(rows));
    std::vector<double> y_simd(y_scalar.size()), y_par(y_scalar.size());
    simd::set_enabled(false);
    sell.spmv(x, y_scalar);
    simd::set_enabled(true);
    sell.spmv(x, y_simd);
    spmv_parallel(sell, std::span<const double>(x), std::span<double>(y_par));
    EXPECT_TRUE(bytes_equal(y_scalar, y_simd)) << "C=" << c;
    EXPECT_TRUE(bytes_equal(y_scalar, y_par)) << "C=" << c;
  }
}

TEST(SpmvDifferentialRegression, SellAllPadSliceAndEmptySlices) {
  // One long row atop 63 empty ones, C=32 sigma=32: slice 0 is width-20
  // with 31 all-pad lanes per slot column (whole 4-lane blocks fully
  // padded — the AVX2 skip path), and slice 1 is width 0 (no slots at
  // all). Empty rows must still come back exactly 0.0.
  SimdGuard guard;
  std::vector<Triplet<double>> t;
  for (index_t j = 0; j < 20; ++j)
    t.push_back({0, j * 2, 1.0 + static_cast<double>(j)});
  const auto csr = Csr<double>::from_triplets(64, 40, t);
  const auto x = random_x(40, 31);
  const auto sell = Sell<double>::from_csr(csr, 32, 32);
  sell.validate();
  EXPECT_EQ(sell.slice_width(0), 20);
  EXPECT_EQ(sell.slice_width(1), 0);
  EXPECT_EQ(sell.to_csr(), csr);
  std::vector<double> y_scalar(64), y_simd(64), y_par(64);
  simd::set_enabled(false);
  sell.spmv(x, y_scalar);
  simd::set_enabled(true);
  sell.spmv(x, y_simd);
  spmv_parallel(sell, std::span<const double>(x), std::span<double>(y_par));
  EXPECT_TRUE(bytes_equal(y_scalar, y_simd));
  EXPECT_TRUE(bytes_equal(y_scalar, y_par));
  for (index_t r = 1; r < 64; ++r) EXPECT_EQ(y_scalar[r], 0.0) << r;
}

TEST(SpmvDifferentialRegression, SellCancellationReplayUnderPermutation) {
  // Catastrophic-cancellation values under a *non-trivial* sorted-row
  // permutation, hand-replayed against the contract: each original row
  // accumulates its slots in ascending slot-column order k, one IEEE
  // mul and one add per slot, regardless of where the sort moved the
  // row. A kernel that reassociates — or reads the permutation on the
  // wrong side — produces different bits, not just different errors.
  SimdGuard guard;
  const index_t rows = 8, n = 48;
  std::vector<Triplet<double>> t;
  for (index_t r = 0; r < rows; ++r) {
    // Descending-then-ascending lengths force the window sort to permute.
    const index_t len = r % 2 == 0 ? n - r : 4 + r;
    for (index_t j = 0; j < len; ++j) {
      const double v = (j % 2 == 0 ? 1e16 : -1e16) +
                       static_cast<double>(r * 100 + j);
      t.push_back({r, j, v});
    }
  }
  const auto csr = Csr<double>::from_triplets(rows, n, t);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    x[static_cast<std::size_t>(j)] = 1.0 + 1e-13 * static_cast<double>(j);

  const auto sell = Sell<double>::from_csr(csr, 4, 8);
  sell.validate();
  // The permutation must actually reorder rows for this to pin anything.
  bool permuted = false;
  for (index_t s = 0; s < rows; ++s)
    if (sell.perm()[static_cast<std::size_t>(s)] != s) permuted = true;
  EXPECT_TRUE(permuted);

  // Hand replay from CSR: ascending k is ascending position within the
  // row (SELL preserves each row's column order).
  std::vector<double> expect(static_cast<std::size_t>(rows));
  for (index_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (index_t p = csr.row_ptr()[r]; p < csr.row_ptr()[r + 1]; ++p)
      acc += csr.values()[p] * x[static_cast<std::size_t>(csr.col_idx()[p])];
    expect[static_cast<std::size_t>(r)] = acc;
  }

  for (const bool on : {false, true}) {
    simd::set_enabled(on);
    std::vector<double> y(static_cast<std::size_t>(rows));
    sell.spmv(x, y);
    EXPECT_TRUE(bytes_equal(expect, y)) << "simd=" << on;
    std::vector<double> y_par(static_cast<std::size_t>(rows));
    spmv_parallel(sell, std::span<const double>(x), std::span<double>(y_par));
    EXPECT_TRUE(bytes_equal(expect, y_par)) << "simd=" << on;
  }
}

}  // namespace
}  // namespace spmvml
