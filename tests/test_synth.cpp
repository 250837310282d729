// Synthetic generator + corpus plan tests: determinism, statistical
// targets, family-specific structure signatures, Table-I bucket layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

GenSpec base_spec(MatrixFamily family, std::uint64_t seed = 5) {
  GenSpec s;
  s.family = family;
  s.rows = 2000;
  s.cols = 2000;
  s.row_mu = 10.0;
  s.row_cv = 0.5;
  s.seed = seed;
  return s;
}

StreamingStats row_lengths(const Csr<double>& m) {
  StreamingStats s;
  for (index_t r = 0; r < m.rows(); ++r)
    s.add(static_cast<double>(m.row_nnz(r)));
  return s;
}

TEST(Generators, DeterministicForSameSpec) {
  for (int fi = 0; fi < kNumFamilies; ++fi) {
    const auto spec = base_spec(static_cast<MatrixFamily>(fi));
    const auto a = generate(spec);
    const auto b = generate(spec);
    EXPECT_EQ(a, b) << family_name(spec.family);
  }
}

TEST(Generators, DifferentSeedsGiveDifferentMatrices) {
  const auto a = generate(base_spec(MatrixFamily::kUniformRandom, 1));
  const auto b = generate(base_spec(MatrixFamily::kUniformRandom, 2));
  EXPECT_NE(a, b);
}

TEST(Generators, AllFamiliesProduceValidMatrices) {
  for (int fi = 0; fi < kNumFamilies; ++fi) {
    const auto m = generate(base_spec(static_cast<MatrixFamily>(fi)));
    m.validate();  // throws on broken invariants
    EXPECT_GT(m.nnz(), 0) << family_name(static_cast<MatrixFamily>(fi));
  }
}

TEST(Generators, UniformHitsTargetMean) {
  auto spec = base_spec(MatrixFamily::kUniformRandom);
  spec.row_mu = 15.0;
  const auto stats = row_lengths(generate(spec));
  EXPECT_NEAR(stats.mean(), 15.0, 2.0);
}

TEST(Generators, UniformRowCvControlsVariance) {
  auto low = base_spec(MatrixFamily::kUniformRandom, 9);
  low.row_cv = 0.1;
  auto high = low;
  high.row_cv = 2.0;
  const auto s_low = row_lengths(generate(low));
  const auto s_high = row_lengths(generate(high));
  EXPECT_LT(s_low.stddev() / s_low.mean(), 0.3);
  EXPECT_GT(s_high.stddev() / s_high.mean(),
            2.0 * s_low.stddev() / s_low.mean());
}

TEST(Generators, BandedStaysNearDiagonal) {
  auto spec = base_spec(MatrixFamily::kBanded);
  spec.band_frac = 0.01;
  const auto m = generate(spec);
  index_t near = 0;
  const auto window = static_cast<index_t>(0.1 * static_cast<double>(m.cols()));
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p)
      if (std::llabs(m.col_idx()[p] - r) <= window) ++near;
  EXPECT_GT(static_cast<double>(near) / static_cast<double>(m.nnz()), 0.95);
}

TEST(Generators, BandedHasLowRowVariance) {
  const auto stats = row_lengths(generate(base_spec(MatrixFamily::kBanded)));
  EXPECT_LT(stats.stddev() / stats.mean(), 0.25);
}

TEST(Generators, StencilIsSquareAndRegular) {
  auto spec = base_spec(MatrixFamily::kStencil);
  spec.row_mu = 5.0;
  const auto m = generate(spec);
  EXPECT_EQ(m.rows(), m.cols());
  const auto stats = row_lengths(m);
  // Interior rows have exactly 5 entries, boundary rows fewer.
  EXPECT_LE(stats.max(), 5.0);
  EXPECT_GE(stats.mean(), 4.0);
}

TEST(Generators, PowerLawHasHeavyTail) {
  auto spec = base_spec(MatrixFamily::kPowerLaw);
  spec.alpha = 1.5;
  const auto stats = row_lengths(generate(spec));
  // Max degree far above the mean is the power-law signature.
  EXPECT_GT(stats.max(), 8.0 * stats.mean());
}

TEST(Generators, BlockFamilyHasLongChunks) {
  auto spec = base_spec(MatrixFamily::kBlockRandom);
  spec.block_size = 8;
  spec.row_mu = 16.0;
  const auto m = generate(spec);
  // Average contiguous-run length should exceed loose uniform baseline.
  StreamingStats runs;
  for (index_t r = 0; r < m.rows(); ++r) {
    index_t run = 0;
    for (index_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p) {
      if (p > m.row_ptr()[r] && m.col_idx()[p] == m.col_idx()[p - 1] + 1) {
        ++run;
      } else {
        if (run > 0) runs.add(static_cast<double>(run + 1));
        run = 0;
      }
    }
    if (run > 0) runs.add(static_cast<double>(run + 1));
  }
  EXPECT_GT(runs.mean(), 2.0);
}

TEST(Generators, GeomGraphIsSquare) {
  const auto m = generate(base_spec(MatrixFamily::kGeomGraph));
  EXPECT_EQ(m.rows(), m.cols());
}

TEST(Generators, RejectsNonPositiveDims) {
  GenSpec s;
  s.rows = 0;
  EXPECT_THROW(generate(s), Error);
}

TEST(Corpus, PaperBucketsMatchTableOne) {
  const auto buckets = paper_buckets();
  ASSERT_EQ(buckets.size(), 8u);
  EXPECT_EQ(buckets[0].paper_count, 747);
  EXPECT_EQ(buckets[3].paper_count, 362);
  EXPECT_EQ(buckets[7].paper_count, 9);
  int total = 0;
  for (const auto& b : buckets) total += b.paper_count;
  EXPECT_EQ(total, 2299);  // the paper's ~2300 matrices
}

TEST(Corpus, PlanCountsScaleWithFactor) {
  const auto full = make_corpus_plan(1.0, 2018);
  EXPECT_EQ(full.size(), 2299u);
  const auto tenth = make_corpus_plan(0.1, 2018);
  EXPECT_NEAR(static_cast<double>(tenth.size()), 230.0, 10.0);
}

TEST(Corpus, PlanIsDeterministic) {
  const auto a = make_corpus_plan(0.05, 7);
  const auto b = make_corpus_plan(0.05, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.specs[i].seed, b.specs[i].seed);
    EXPECT_EQ(a.specs[i].rows, b.specs[i].rows);
    EXPECT_EQ(a.bucket_of[i], b.bucket_of[i]);
  }
}

TEST(Corpus, SampledNnzLandsInBucketRange) {
  const auto plan = make_corpus_plan(0.02, 3);
  const auto buckets = paper_buckets();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& bucket = buckets[static_cast<std::size_t>(plan.bucket_of[i])];
    const auto m = generate(plan.specs[i]);
    // Generated nnz tracks the sampled target loosely (dedup shrinks it);
    // allow a generous factor but require the right order of magnitude.
    EXPECT_GT(m.nnz(), bucket.nnz_lo / 5) << "matrix " << i;
    EXPECT_LT(m.nnz(), bucket.nnz_hi * 3) << "matrix " << i;
  }
}

TEST(ShuffleLabels, PreservesGraphDestroysLocality) {
  auto spec = base_spec(MatrixFamily::kBanded);
  spec.cols = spec.rows;  // square required
  const auto m = generate(spec);
  const auto shuffled = shuffle_labels(m, 99);
  EXPECT_EQ(shuffled.nnz(), m.nnz());
  EXPECT_EQ(shuffled.rows(), m.rows());
  shuffled.validate();

  // Row-degree multiset is preserved (it is a relabeling).
  std::vector<index_t> deg_a, deg_b;
  for (index_t r = 0; r < m.rows(); ++r) {
    deg_a.push_back(m.row_nnz(r));
    deg_b.push_back(shuffled.row_nnz(r));
  }
  std::sort(deg_a.begin(), deg_a.end());
  std::sort(deg_b.begin(), deg_b.end());
  EXPECT_EQ(deg_a, deg_b);

  // Banding is destroyed: mean |col - row| explodes.
  auto mean_offset = [](const Csr<double>& mat) {
    double sum = 0.0;
    for (index_t r = 0; r < mat.rows(); ++r)
      for (index_t p = mat.row_ptr()[r]; p < mat.row_ptr()[r + 1]; ++p)
        sum += std::abs(static_cast<double>(mat.col_idx()[p] - r));
    return sum / static_cast<double>(mat.nnz());
  };
  EXPECT_GT(mean_offset(shuffled), 10.0 * mean_offset(m));
}

TEST(ShuffleLabels, DeterministicPerSeed) {
  auto spec = base_spec(MatrixFamily::kGeomGraph, 3);
  const auto m = generate(spec);
  EXPECT_EQ(shuffle_labels(m, 5), shuffle_labels(m, 5));
  EXPECT_NE(shuffle_labels(m, 5), shuffle_labels(m, 6));
}

TEST(ShuffleLabels, RejectsRectangular) {
  Csr<double> m(2, 3, {0, 1, 2}, {0, 2}, {1.0, 1.0});
  EXPECT_THROW(shuffle_labels(m, 1), Error);
}

TEST(Corpus, SmallPlanHasRequestedSize) {
  const auto plan = make_small_plan(12, 5);
  EXPECT_EQ(plan.size(), 12u);
  for (const auto& spec : plan.specs) {
    const auto m = generate(spec);
    EXPECT_GT(m.nnz(), 0);
  }
}

// ---------------------------------------------------------------------------
// Generator contract: generate() is pinned bit for bit. Every plan shape
// is generated as every family, plus one wide shape per family whose long
// (and, for powerlaw, hub-heavy) rows take the row sort's bucket path.

std::vector<GenSpec> contract_specs(MatrixFamily family) {
  std::vector<GenSpec> specs = make_small_plan(12, 2018).specs;
  GenSpec wide = base_spec(family, 31);
  wide.rows = 3000;
  wide.cols = 3000;
  wide.row_mu = 60.0;
  wide.alpha = 1.5;
  specs.push_back(wide);
  for (GenSpec& s : specs) s.family = family;
  return specs;
}

std::uint64_t matrix_hash(const Csr<double>& m, std::uint64_t h) {
  h = hash_combine(h, static_cast<std::uint64_t>(m.rows()));
  h = hash_combine(h, static_cast<std::uint64_t>(m.cols()));
  h = hash_bytes(m.row_ptr().data(), m.row_ptr().size_bytes(), h);
  h = hash_bytes(m.col_idx().data(), m.col_idx().size_bytes(), h);
  return hash_bytes(m.values().data(), m.values().size_bytes(), h);
}

TEST(GeneratorContract, HashesPinnedForEveryFamily) {
  // Computed before the row sort changed; any correct sort of integers
  // must leave every family's matrices bit for bit the same.
  constexpr std::array<std::uint64_t, kNumFamilies> kPinned = {
      16534702504853563650ULL, 12524995112043257367ULL,
      14831986008715056520ULL, 15676354437908817435ULL,
      8203114559646696047ULL,  5573101063571530630ULL};
  for (int fi = 0; fi < kNumFamilies; ++fi) {
    const auto family = static_cast<MatrixFamily>(fi);
    std::uint64_t h = 0;
    for (const GenSpec& s : contract_specs(family))
      h = matrix_hash(generate(s), h);
    EXPECT_EQ(h, kPinned[static_cast<std::size_t>(fi)]) << family_name(family);
  }
}

TEST(GeneratorContract, PatternIsGenerateWithoutValues) {
  for (int fi = 0; fi < kNumFamilies; ++fi) {
    const auto family = static_cast<MatrixFamily>(fi);
    for (const GenSpec& s : contract_specs(family)) {
      const Csr<double> m = generate(s);
      const CsrPattern p = generate_pattern(s);
      EXPECT_EQ(p.rows, m.rows()) << family_name(family);
      EXPECT_EQ(p.cols, m.cols()) << family_name(family);
      EXPECT_TRUE(std::ranges::equal(p.row_ptr, m.row_ptr()))
          << family_name(family);
      EXPECT_TRUE(std::ranges::equal(p.col_idx, m.col_idx()))
          << family_name(family);
    }
  }
}

/// RowSorter must agree with std::sort on every input.
void expect_sorts_like_std(RowSorter& sorter, std::vector<index_t> row,
                           const std::string& what) {
  std::vector<index_t> expected = row;
  std::sort(expected.begin(), expected.end());
  sorter(row);
  EXPECT_EQ(row, expected) << what << " n=" << expected.size();
}

TEST(RowSorter, MatchesStdSortOnRandomRows) {
  RowSorter sorter;  // reused across rows, as the generators do
  Rng rng(17);
  for (const std::size_t n : {0u, 1u, 2u, 15u, 16u, 17u, 45u, 300u, 5000u}) {
    for (const index_t range : {index_t{3}, static_cast<index_t>(n / 4 + 1),
                                index_t{1'000'000}, index_t{1} << 40}) {
      std::vector<index_t> row(n);
      for (auto& c : row) c = rng.uniform_int(0, range - 1);
      expect_sorts_like_std(sorter, row, "range " + std::to_string(range));
    }
  }
}

TEST(RowSorter, MatchesStdSortOnAdversarialRows) {
  RowSorter sorter;
  Rng rng(18);
  expect_sorts_like_std(sorter, std::vector<index_t>(500, 7), "all equal");

  std::vector<index_t> hot;  // one bucket holds 90% of the row
  for (int i = 0; i < 450; ++i) hot.push_back(1000 + rng.uniform_int(0, 9));
  for (int i = 0; i < 50; ++i) hot.push_back(rng.uniform_int(0, 1'000'000));
  expect_sorts_like_std(sorter, hot, "one hot bucket");

  std::vector<index_t> sorted;
  for (index_t c = 0; c < 2000; ++c) sorted.push_back(c * 37 + (c % 5));
  expect_sorts_like_std(sorter, sorted, "sorted");
  std::reverse(sorted.begin(), sorted.end());
  expect_sorts_like_std(sorter, sorted, "reversed");

  // Banded rows: a contiguous run at the diagonal plus normal scatter.
  std::vector<index_t> banded;
  for (index_t c = 0; c < 300; ++c) banded.push_back(50'000 + c);
  for (int i = 0; i < 130; ++i)
    banded.push_back(50'000 + static_cast<index_t>(rng.normal(0.0, 2000.0)));
  expect_sorts_like_std(sorter, banded, "banded run");

  // Powerlaw hub rows, drawn like gen_powerlaw: half the columns crowd
  // toward 0 (u^3), half are uniform.
  for (const index_t cols : {index_t{40'000}, index_t{2'000'000}}) {
    std::vector<index_t> hub;
    for (int i = 0; i < 20'000; ++i) {
      if (rng.bernoulli(0.5)) {
        const double u = rng.uniform();
        hub.push_back(static_cast<index_t>(static_cast<double>(cols) * u * u * u));
      } else {
        hub.push_back(rng.uniform_int(0, cols - 1));
      }
    }
    expect_sorts_like_std(sorter, hub, "powerlaw hub");
  }
}

TEST(Corpus, LargestFirstOrdersByEstimatedNnz) {
  const auto plan = make_corpus_plan(0.02, 3);
  const auto order = largest_first(plan);
  ASSERT_EQ(order.size(), plan.size());
  std::vector<std::size_t> seen = order;
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  const auto estimate = [&](std::size_t i) {
    return static_cast<double>(plan.specs[i].rows) * plan.specs[i].row_mu;
  };
  for (std::size_t k = 1; k < order.size(); ++k) {
    const std::size_t a = order[k - 1], b = order[k];
    EXPECT_TRUE(estimate(a) > estimate(b) ||
                (estimate(a) == estimate(b) && a < b))
        << "position " << k;
  }
  // Plan buckets ascend in size, so the order starts in the last bucket.
  EXPECT_EQ(plan.bucket_of[order.front()], plan.bucket_of.back());
}

}  // namespace
}  // namespace spmvml
