// The paper's 17 sparse-matrix features (Table II), named as in Figs. 4/5.
//
// "Block" below means a maximal run of consecutive nonzero columns within
// one row (a contiguous nnz chunk): nnzb_* are statistics of the number of
// chunks per row, snzb_* of chunk sizes. Set 1 is O(1) given CSR metadata;
// sets 2 and 3 need the one O(nnz) scan this module performs.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sparse/csr.hpp"

namespace spmvml {

inline constexpr int kNumFeatures = 17;

/// Index of each feature inside FeatureVector::values.
enum FeatureId : int {
  kNRows = 0,
  kNCols = 1,
  kNnzTot = 2,
  kNnzMu = 3,
  kNnzFrac = 4,  // density (percent)
  kNnzMax = 5,
  kNnzMin = 6,
  kNnzSigma = 7,
  kNnzbTot = 8,    // total number of contiguous chunks
  kNnzbMu = 9,     // mean chunks per row
  kNnzbSigma = 10,
  kNnzbMax = 11,
  kNnzbMin = 12,
  kSnzbMu = 13,    // mean chunk size
  kSnzbSigma = 14,
  kSnzbMax = 15,
  kSnzbMin = 16,
};

/// The three nested feature sets of Table II (by feature index).
enum class FeatureSet : int {
  kSet1 = 0,       // 5 O(1) features
  kSet12 = 1,      // + set 2 = 11 features (Sedaghati et al.)
  kSet123 = 2,     // all 17
  kImportant = 3,  // top-7 by XGBoost importance ("imp." features, Table X)
};

inline constexpr int kNumFeatureSets = 4;

const char* feature_name(int id);
const char* feature_set_name(FeatureSet set);

/// Feature indices belonging to a set. For kImportant, returns the paper's
/// top-7 (n_rows, nnz_max, nnz_tot, nnz_sigma, nnz_frac, nnzb_tot, nnz_mu)
/// unless a custom ranking is supplied to select_features().
std::vector<int> feature_set_indices(FeatureSet set);

struct FeatureVector {
  std::array<double, kNumFeatures> values{};

  double operator[](int id) const { return values[static_cast<std::size_t>(id)]; }

  /// Project onto a feature set (order = ascending feature id).
  std::vector<double> select(FeatureSet set) const;
  std::vector<double> select(std::span<const int> indices) const;
};

/// One O(nnz) scan over the CSR structure (values are never read). A
/// matrix of more than 4096 rows is scanned in fixed 4096-row blocks,
/// cooperatively on `pool` (ThreadPool::cooperative_for: idle workers
/// help, the caller participates, so a saturated pool degrades to the
/// caller scanning alone instead of deadlocking), and the block
/// accumulators merge in row order via the exact StreamingStats::merge:
/// the result is byte-identical at any pool size, including when the
/// caller is itself a pool worker (the serving batch path).
FeatureVector extract_features(CsrPatternView m,
                               ThreadPool& pool = ThreadPool::current());

/// Approximate extraction from a random row sample (O(nnz * fraction)):
/// set-1 features stay exact (they are O(1) from CSR metadata); set-2/3
/// statistics are estimated from ~`row_fraction` of the rows and count
/// totals are rescaled. Deterministic in `seed`. fraction >= 1 degrades
/// to the exact scan. The accuracy/cost trade-off is the deployment
/// concern behind the paper's O(1)-vs-O(nnz) feature-set split (§IV-A).
FeatureVector extract_features_sampled(CsrPatternView m,
                                       double row_fraction,
                                       std::uint64_t seed = 1);

}  // namespace spmvml
