#include "synth/corpus.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace spmvml {

std::vector<BucketSpec> paper_buckets() {
  // label, scaled nnz range, paper: count, avg rows, avg cols, density%,
  // nnz_mu, nnz_sigma. Top three buckets are nnz-compressed (DESIGN.md §2).
  return {
      {"0~10K", 100, 10'000, 747, 639, 759, 4.62, 7, 4.5, 7},
      {"10K~50K", 10'000, 50'000, 508, 3'590, 4'248, 1.29, 15, 18, 15},
      {"50K~100K", 50'000, 100'000, 209, 8'881, 10'974, 1.03, 34, 31, 34},
      {"100K~500K", 100'000, 500'000, 362, 24'695, 30'714, 0.69, 69, 50, 69},
      {"500K~1M", 500'000, 1'000'000, 147, 70'669, 92'925, 0.75, 155, 128, 155},
      {"1M~5M", 1'000'000, 2'000'000, 208, 173'473, 205'277, 0.61, 214, 72, 170},
      {"5M~50M", 2'000'000, 4'000'000, 109, 1'290'926, 1'302'773, 0.43, 852, 42, 360},
      {">50M", 4'000'000, 6'000'000, 9, 8'101'908, 8'101'908, 0.002, 29, 5, 25},
  };
}

namespace {

MatrixFamily sample_family(Rng& rng) {
  // Mixture approximating SuiteSparse's domain spread: FEM/structural
  // (banded+stencil) ~35%, unstructured ~25%, graphs/networks ~30%,
  // multi-physics blocks ~10%.
  const double u = rng.uniform();
  if (u < 0.20) return MatrixFamily::kBanded;
  if (u < 0.35) return MatrixFamily::kStencil;
  if (u < 0.60) return MatrixFamily::kUniformRandom;
  if (u < 0.80) return MatrixFamily::kPowerLaw;
  if (u < 0.90) return MatrixFamily::kBlockRandom;
  return MatrixFamily::kGeomGraph;
}

GenSpec sample_spec(const BucketSpec& bucket, Rng& rng, std::uint64_t seed) {
  GenSpec spec;
  spec.family = sample_family(rng);
  spec.seed = seed;

  // Target nnz log-uniform inside the bucket.
  const double log_lo = std::log(static_cast<double>(bucket.nnz_lo));
  const double log_hi = std::log(static_cast<double>(bucket.nnz_hi));
  const double nnz = std::exp(rng.uniform(log_lo, log_hi));

  // Row mean spread around the bucket's (possibly nnz-compressed) target;
  // wide enough that buckets overlap in mu the way SuiteSparse does. The
  // sqrt(nnz)/5 cap keeps density in the sparse regime (paper Table I).
  double mu = bucket.sampled_mu * std::exp(rng.normal(0.0, 0.8));
  mu = std::clamp(mu, 1.5, std::max(3.0, std::sqrt(nnz) / 5.0));
  spec.row_mu = mu;

  const auto rows =
      std::max<index_t>(8, static_cast<index_t>(std::llround(nnz / mu)));
  spec.rows = rows;
  spec.cols = std::max<index_t>(
      8, static_cast<index_t>(std::llround(
             static_cast<double>(rows) * rng.uniform(0.9, 1.35))));

  // Row-length variance: the knob that separates ELL-friendly from
  // merge/CSR5-friendly matrices. Log-uniform over [0.05, 3].
  spec.row_cv = std::exp(rng.uniform(std::log(0.05), std::log(3.0)));
  spec.alpha = rng.uniform(1.3, 2.6);
  spec.band_frac = std::exp(rng.uniform(std::log(0.002), std::log(0.05)));
  spec.block_size = static_cast<index_t>(rng.uniform_int(4, 16));
  return spec;
}

}  // namespace

CorpusPlan make_corpus_plan(double scale, std::uint64_t seed) {
  SPMVML_ENSURE(scale > 0.0, "corpus scale must be positive");
  CorpusPlan plan;
  const auto buckets = paper_buckets();
  Rng rng(hash_combine(seed, 0xC0123456789ABCDEULL));
  std::uint64_t matrix_id = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const int count = std::max(
        1, static_cast<int>(std::llround(buckets[b].paper_count * scale)));
    for (int i = 0; i < count; ++i) {
      plan.specs.push_back(
          sample_spec(buckets[b], rng, hash_combine(seed, ++matrix_id)));
      plan.bucket_of.push_back(static_cast<int>(b));
    }
  }
  return plan;
}

CorpusPlan make_small_plan(int n, std::uint64_t seed) {
  SPMVML_ENSURE(n > 0, "need at least one matrix");
  CorpusPlan plan;
  const auto buckets = paper_buckets();
  Rng rng(hash_combine(seed, 0x5A11E57ULL));
  for (int i = 0; i < n; ++i) {
    // Round-robin the first three (cheap) buckets so tests stay fast.
    const std::size_t b = static_cast<std::size_t>(i) % 3;
    plan.specs.push_back(
        sample_spec(buckets[b], rng,
                    hash_combine(seed, static_cast<std::uint64_t>(i) + 1)));
    plan.bucket_of.push_back(static_cast<int>(b));
  }
  return plan;
}

std::vector<std::size_t> largest_first(const CorpusPlan& plan) {
  const auto estimated_nnz = [&plan](std::size_t i) {
    return static_cast<double>(plan.specs[i].rows) * plan.specs[i].row_mu;
  };
  std::vector<std::size_t> order(plan.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimated_nnz(a) > estimated_nnz(b);
                   });
  return order;
}

std::uint64_t plan_fingerprint(const CorpusPlan& plan) {
  const auto mix_double = [](std::uint64_t h, double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return hash_combine(h, bits);
  };
  std::uint64_t h = hash_combine(0x90A5F1A4ULL, plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const GenSpec& s = plan.specs[i];
    h = hash_combine(h, static_cast<std::uint64_t>(s.family));
    h = hash_combine(h, static_cast<std::uint64_t>(s.rows));
    h = hash_combine(h, static_cast<std::uint64_t>(s.cols));
    h = mix_double(h, s.row_mu);
    h = mix_double(h, s.row_cv);
    h = mix_double(h, s.band_frac);
    h = mix_double(h, s.alpha);
    h = hash_combine(h, static_cast<std::uint64_t>(s.block_size));
    h = hash_combine(h, s.seed);
    h = hash_combine(h, static_cast<std::uint64_t>(plan.bucket_of[i]));
  }
  return h;
}

}  // namespace spmvml
