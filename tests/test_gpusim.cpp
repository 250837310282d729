// GPU simulator tests: RowSummary digest correctness on hand matrices,
// cost-model mechanism assertions (padding hurts ELL, skew hurts CSR,
// merge/CSR5 stay balanced), and oracle noise/determinism behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/oracle.hpp"
#include "gpusim/row_summary.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

Csr<double> small_matrix() {
  return Csr<double>(4, 6, {0, 2, 3, 7, 7}, {0, 1, 2, 0, 3, 4, 5},
                     {1, 2, 3, 4, 5, 6, 7});
}

TEST(RowSummary, HandComputedDigest) {
  const auto s = summarize(small_matrix());
  EXPECT_EQ(s.rows, 4);
  EXPECT_EQ(s.cols, 6);
  EXPECT_EQ(s.nnz, 7);
  EXPECT_DOUBLE_EQ(s.row_mu, 7.0 / 4.0);
  EXPECT_EQ(s.row_max, 4);
  EXPECT_EQ(s.row_min, 0);
  EXPECT_EQ(s.empty_rows, 1);
  // Chunks: row0 [0,1]; row1 [2]; row2 [0] and [3,4,5] -> 4 chunks.
  EXPECT_EQ(s.total_chunks, 4);
  EXPECT_DOUBLE_EQ(s.chunk_size_mu, 7.0 / 4.0);
  // HYB split at width ceil(1.75)=2: rows keep min(len,2): 2+1+2+0 = 5.
  EXPECT_EQ(s.hyb_width, 2);
  EXPECT_EQ(s.hyb_ell_entries, 5);
  EXPECT_EQ(s.hyb_spill, 2);
}

TEST(RowSummary, CsrLaneStepsHandComputed) {
  const auto s = summarize(small_matrix());
  // Vector kernel: ceil(len/32)*32 per non-empty row = 32*3 (empty row: 0).
  EXPECT_DOUBLE_EQ(s.csr_vector_lane_steps, 96.0);
  // Scalar kernel: one 4-row group, max len 4 -> 4*32.
  EXPECT_DOUBLE_EQ(s.csr_scalar_lane_steps, 128.0);
}

TEST(RowSummary, EmptyMatrix) {
  Csr<double> m(0, 0, {0}, {}, {});
  const auto s = summarize(m);
  EXPECT_EQ(s.nnz, 0);
  EXPECT_EQ(s.row_max, 0);
  EXPECT_DOUBLE_EQ(s.ell_padding_ratio(), 1.0);
}

TEST(Arch, TestbedsMatchTableThree) {
  const auto k = tesla_k40c();
  EXPECT_EQ(k.sms, 13);
  EXPECT_EQ(k.cores_per_sm, 192);
  EXPECT_NEAR(k.clock_ghz, 0.824, 1e-9);
  const auto p = tesla_p100();
  EXPECT_EQ(p.sms, 56);
  EXPECT_EQ(p.cores_per_sm, 64);
  EXPECT_NEAR(p.clock_ghz, 1.328, 1e-9);
  EXPECT_GT(p.mem_bw_gbps, k.mem_bw_gbps);
  EXPECT_GT(p.l2_bytes, k.l2_bytes);
}

TEST(Arch, DoublePrecisionThrottle) {
  const auto k = tesla_k40c();
  EXPECT_LT(k.peak_flops(Precision::kDouble), k.peak_flops(Precision::kSingle));
}

RowSummary summary_for(MatrixFamily family, double mu, double cv,
                       std::uint64_t seed, index_t rows = 40000) {
  GenSpec spec;
  spec.family = family;
  spec.rows = rows;
  spec.cols = rows;
  spec.row_mu = mu;
  spec.row_cv = cv;
  spec.seed = seed;
  return summarize(generate(spec));
}

TEST(CostModel, MoreNnzCostsMore) {
  const auto small = summary_for(MatrixFamily::kUniformRandom, 5.0, 0.3, 1);
  const auto large = summary_for(MatrixFamily::kUniformRandom, 50.0, 0.3, 1);
  const auto arch = tesla_p100();
  for (Format f : kAllFormats) {
    EXPECT_GT(simulate_time(large, f, arch, Precision::kDouble),
              simulate_time(small, f, arch, Precision::kDouble))
        << format_name(f);
  }
}

TEST(CostModel, P100FasterThanKepler) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 20.0, 0.5, 2);
  for (Format f : kAllFormats) {
    EXPECT_LT(simulate_time(s, f, tesla_p100(), Precision::kDouble),
              simulate_time(s, f, tesla_k40c(), Precision::kDouble))
        << format_name(f);
  }
}

TEST(CostModel, DoubleSlowerThanSingle) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 20.0, 0.5, 3);
  for (Format f : kAllFormats) {
    EXPECT_LT(simulate_time(s, f, tesla_p100(), Precision::kSingle),
              simulate_time(s, f, tesla_p100(), Precision::kDouble))
        << format_name(f);
  }
}

TEST(CostModel, RowSkewPunishesEllButNotMerge) {
  const auto regular = summary_for(MatrixFamily::kUniformRandom, 10.0, 0.05, 4);
  const auto skewed = summary_for(MatrixFamily::kPowerLaw, 10.0, 0.0, 4);
  ASSERT_GT(skewed.ell_padding_ratio(), 3.0 * regular.ell_padding_ratio());
  const auto arch = tesla_p100();

  auto per_nnz = [&](const RowSummary& s, Format f) {
    return simulate_time(s, f, arch, Precision::kDouble) /
           static_cast<double>(s.nnz);
  };
  // ELL per-nonzero cost must blow up with padding...
  EXPECT_GT(per_nnz(skewed, Format::kEll), 3.0 * per_nnz(regular, Format::kEll));
  // ...while merge-CSR stays within a modest factor.
  EXPECT_LT(per_nnz(skewed, Format::kMergeCsr),
            2.0 * per_nnz(regular, Format::kMergeCsr));
}

TEST(CostModel, EllCompetitiveOnRegularRows) {
  const auto regular = summary_for(MatrixFamily::kBanded, 12.0, 0.0, 5);
  const auto arch = tesla_k40c();
  const double ell = simulate_time(regular, Format::kEll, arch, Precision::kSingle);
  const double coo = simulate_time(regular, Format::kCoo, arch, Precision::kSingle);
  EXPECT_LT(ell, coo);  // no padding -> ELL beats COO's 2-index traffic
}

TEST(CostModel, LaunchOverheadDominatesTinyMatrices) {
  GenSpec spec;
  spec.family = MatrixFamily::kUniformRandom;
  spec.rows = 50;
  spec.cols = 50;
  spec.row_mu = 3.0;
  spec.seed = 6;
  const auto s = summarize(generate(spec));
  const auto arch = tesla_p100();
  const auto breakdown =
      simulate_cost(s, Format::kCsr, arch, Precision::kDouble);
  EXPECT_GT(breakdown.launch_time, 0.5 * breakdown.total_time);
}

TEST(CostModel, BreakdownComponentsAreConsistent) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 20.0, 0.5, 7);
  const auto b = simulate_cost(s, Format::kCsr5, tesla_p100(),
                               Precision::kDouble);
  EXPECT_GT(b.traffic_bytes, 0.0);
  EXPECT_GT(b.memory_time, 0.0);
  EXPECT_GE(b.total_time, b.launch_time);
  EXPECT_GE(b.total_time,
            std::max({b.memory_time, b.exec_time, b.flop_time}));
}

TEST(CostModel, GatherCheaperWhenXFitsInL2) {
  // Same structure, shrink columns below L2 capacity.
  const auto big = summary_for(MatrixFamily::kUniformRandom, 10.0, 0.3, 8,
                               2000000);
  const auto small = summary_for(MatrixFamily::kUniformRandom, 10.0, 0.3, 8,
                                 20000);
  const auto arch = tesla_k40c();
  const auto b_big = simulate_cost(big, Format::kCsr, arch, Precision::kDouble);
  const auto b_small =
      simulate_cost(small, Format::kCsr, arch, Precision::kDouble);
  EXPECT_GT(b_big.gather_bytes / static_cast<double>(big.nnz),
            b_small.gather_bytes / static_cast<double>(small.nnz));
}

TEST(CostModel, BandedGathersLessThanRandom) {
  const auto banded = summary_for(MatrixFamily::kBanded, 10.0, 0.0, 9, 300000);
  const auto random =
      summary_for(MatrixFamily::kUniformRandom, 10.0, 0.3, 9, 300000);
  const auto arch = tesla_k40c();
  EXPECT_LT(
      simulate_cost(banded, Format::kCsr, arch, Precision::kDouble).gather_bytes /
          static_cast<double>(banded.nnz),
      simulate_cost(random, Format::kCsr, arch, Precision::kDouble).gather_bytes /
          static_cast<double>(random.nnz));
}

TEST(CostModel, GflopsHelper) {
  RowSummary s;
  s.nnz = 1000000;
  EXPECT_DOUBLE_EQ(to_gflops(s, 1e-3), 2.0);
  EXPECT_THROW(to_gflops(s, 0.0), Error);
}

TEST(Oracle, DeterministicForSameIdentity) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 15.0, 0.5, 10);
  const MeasurementOracle oracle(tesla_p100(), Precision::kDouble);
  const auto a = oracle.measure(s, Format::kCsr, 1234);
  const auto b = oracle.measure(s, Format::kCsr, 1234);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

TEST(Oracle, DifferentMatricesGetDifferentNoise) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 15.0, 0.5, 10);
  const MeasurementOracle oracle(tesla_p100(), Precision::kDouble);
  EXPECT_NE(oracle.measure(s, Format::kCsr, 1).seconds,
            oracle.measure(s, Format::kCsr, 2).seconds);
}

TEST(Oracle, MeanTracksModelWithinNoiseBand) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 15.0, 0.5, 11);
  MeasurementConfig cfg;
  cfg.systematic_sigma = 0.07;
  const MeasurementOracle oracle(tesla_p100(), Precision::kDouble, cfg);
  const double model = simulate_time(s, Format::kCsr, tesla_p100(),
                                     Precision::kDouble);
  const double measured = oracle.measure(s, Format::kCsr, 42).seconds;
  EXPECT_GT(measured, model * 0.6);
  EXPECT_LT(measured, model * 1.6);
}

TEST(Oracle, MoreRepsShrinkJitter) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 15.0, 0.5, 12);
  MeasurementConfig noisy;
  noisy.reps = 1;
  noisy.systematic_sigma = 0.0;
  MeasurementConfig averaged;
  averaged.reps = 200;
  averaged.systematic_sigma = 0.0;
  const double model =
      simulate_time(s, Format::kCsr, tesla_p100(), Precision::kDouble);

  auto spread = [&](const MeasurementConfig& cfg) {
    const MeasurementOracle oracle(tesla_p100(), Precision::kDouble, cfg);
    double worst = 0.0;
    for (std::uint64_t id = 0; id < 50; ++id) {
      const double m = oracle.measure(s, Format::kCsr, id).seconds;
      worst = std::max(worst, std::abs(m - model) / model);
    }
    return worst;
  };
  EXPECT_LT(spread(averaged), spread(noisy));
}

TEST(Oracle, MeasureAllCoversEveryFormat) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 15.0, 0.5, 13);
  const MeasurementOracle oracle(tesla_k40c(), Precision::kSingle);
  const auto all = oracle.measure_all(s, 7);
  for (int f = 0; f < kNumFormats; ++f) {
    EXPECT_GT(all[static_cast<std::size_t>(f)].seconds, 0.0);
    EXPECT_GT(all[static_cast<std::size_t>(f)].gflops, 0.0);
  }
}

TEST(CostModel, TextureFactorOnlyHelpsEllAndHyb) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 10.0, 0.5, 40,
                             400000);
  CostParams base;
  CostParams no_texture = base;
  no_texture.texture_gather_factor = 1.0;
  const auto arch = tesla_k40c();
  for (Format f : kAllFormats) {
    const double with = simulate_time(s, f, arch, Precision::kDouble, base);
    const double without =
        simulate_time(s, f, arch, Precision::kDouble, no_texture);
    if (f == Format::kEll || f == Format::kHyb || f == Format::kSell) {
      EXPECT_LE(with, without) << format_name(f);
    } else {
      EXPECT_DOUBLE_EQ(with, without) << format_name(f);
    }
  }
}

TEST(CostModel, LocalityKnobsChangeOnlyGather) {
  const auto s = summary_for(MatrixFamily::kUniformRandom, 10.0, 0.5, 41,
                             400000);
  CostParams flat;
  flat.min_miss = 1.0;  // constant full-miss gather
  const auto b_default =
      simulate_cost(s, Format::kCsr, tesla_p100(), Precision::kDouble);
  const auto b_flat =
      simulate_cost(s, Format::kCsr, tesla_p100(), Precision::kDouble, flat);
  EXPECT_GT(b_flat.gather_bytes, b_default.gather_bytes);
  EXPECT_DOUBLE_EQ(b_flat.launch_time, b_default.launch_time);
  EXPECT_DOUBLE_EQ(b_flat.exec_time, b_default.exec_time);
}

TEST(CostModel, TailZeroForBalancedFormats) {
  const auto s = summary_for(MatrixFamily::kPowerLaw, 12.0, 0.0, 42, 100000);
  for (Format f : {Format::kCoo, Format::kCsr5, Format::kMergeCsr}) {
    EXPECT_DOUBLE_EQ(
        simulate_cost(s, f, tesla_k40c(), Precision::kDouble).tail_time, 0.0)
        << format_name(f);
  }
  EXPECT_GT(
      simulate_cost(s, Format::kEll, tesla_k40c(), Precision::kDouble)
          .tail_time,
      0.0);
}

TEST(Oracle, RejectsBadConfig) {
  MeasurementConfig cfg;
  cfg.reps = 0;
  EXPECT_THROW(MeasurementOracle(tesla_p100(), Precision::kDouble, cfg),
               Error);
}

TEST(HostOracle, MeasuresEveryFormat) {
  GenSpec spec;
  spec.family = MatrixFamily::kUniformRandom;
  spec.rows = 500;
  spec.cols = 500;
  spec.row_mu = 8;
  spec.seed = 14;
  const auto csr = generate(spec);
  HostOracle oracle(2);
  const auto all = oracle.measure_all(csr);
  for (Format f : kAllFormats) {
    const Measurement& m = all[static_cast<std::size_t>(f)];
    EXPECT_TRUE(std::isfinite(m.seconds)) << format_name(f);
    EXPECT_GT(m.seconds, 0.0) << format_name(f);
    EXPECT_DOUBLE_EQ(m.gflops,
                     2.0 * static_cast<double>(csr.nnz()) / m.seconds / 1e9)
        << format_name(f);
  }
  EXPECT_THROW(HostOracle(0), Error);
}

}  // namespace
}  // namespace spmvml
