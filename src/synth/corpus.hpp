// SuiteSparse-like corpus plan (stand-in for the paper's 2300 matrices).
//
// The plan reproduces the *population statistics* of the paper's Table I:
// the same eight nnz buckets with the same matrix counts (scaled by
// SPMVML_CORPUS_SCALE) and per-bucket average nnz-per-row targets, drawn
// from a fixed mixture of structure families. nnz ranges of the top three
// buckets are compressed (see DESIGN.md §2) so the corpus streams through
// a single CPU core; bucket identity and relative ordering are preserved.
//
// A plan is a list of GenSpecs — matrices are *generated on demand* and
// never all held in memory.
#pragma once

#include <string>
#include <vector>

#include "synth/generators.hpp"

namespace spmvml {

/// One Table-I row: the paper's published bucket statistics plus our
/// scaled nnz sampling range.
struct BucketSpec {
  std::string label;        // e.g. "100K~500K"
  index_t nnz_lo = 0;       // our sampled-nnz range (scaled)
  index_t nnz_hi = 0;
  int paper_count = 0;      // number of matrices in the paper's bucket
  double paper_avg_rows = 0.0;
  double paper_avg_cols = 0.0;
  double paper_avg_density = 0.0;  // percent
  double paper_nnz_mu = 0.0;
  double paper_nnz_sigma = 0.0;
  /// nnz-per-row target used when sampling. Equals paper_nnz_mu for
  /// uncompressed buckets; compressed buckets scale it by
  /// sqrt(scaled_nnz / paper_nnz) so density stays in the paper's regime.
  double sampled_mu = 0.0;
};

/// The eight buckets of the paper's Table I.
std::vector<BucketSpec> paper_buckets();

/// A fully-specified corpus: matrix i is generate(specs[i]) and belongs to
/// Table-I bucket bucket_of[i].
struct CorpusPlan {
  std::vector<GenSpec> specs;
  std::vector<int> bucket_of;

  std::size_t size() const { return specs.size(); }
};

/// Build the full corpus plan. `scale` multiplies per-bucket counts
/// (scale=1 gives the paper's 2299 matrices); `seed` drives every random
/// choice, so identical (scale, seed) pairs give identical corpora.
CorpusPlan make_corpus_plan(double scale, std::uint64_t seed);

/// A small deterministic plan (n matrices across all families/buckets) for
/// unit tests and smoke benches.
CorpusPlan make_small_plan(int n, std::uint64_t seed);

/// Plan indices by descending estimated nnz (rows x row_mu), ties in plan
/// order: a pure function of the plan. Parallel label collection submits
/// in this order so the largest matrices, which bound the run's critical
/// path, start first rather than last.
std::vector<std::size_t> largest_first(const CorpusPlan& plan);

/// Content hash over every GenSpec and bucket assignment in the plan.
/// Two plans with the same size but different scale/seed/bucket mix get
/// different fingerprints — label caches carry this so a stale cache from
/// a same-sized but different plan is never silently reused.
std::uint64_t plan_fingerprint(const CorpusPlan& plan);

}  // namespace spmvml
