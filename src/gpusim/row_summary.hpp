// Structural digest of a sparse matrix for the GPU cost model.
//
// Computed in one O(nnz) scan and then shared by all seven per-format
// cost models, so labelling a matrix for 7 formats x 2 GPUs x 2
// precisions costs one scan. Crucially, the digest contains *column locality*
// information (avg_stride, span, band fraction) derived from the actual
// column indices — information the paper's 17 features do NOT capture —
// which is what keeps the ML problem realistically hard (DESIGN.md §6.1).
#pragma once

#include "sparse/csr.hpp"

namespace spmvml {

/// The default SELL-C-sigma tuning the digest (and hence the cost
/// model's slot accounting) assumes — must mirror Sell::from_csr's
/// default (C, sigma) = (32, 128).
inline constexpr index_t kSellDefaultC = 32;
inline constexpr index_t kSellDefaultSigma = 128;

struct RowSummary {
  index_t rows = 0;
  index_t cols = 0;
  index_t nnz = 0;

  // Row-length distribution.
  double row_mu = 0.0;     // mean nnz per row
  double row_sigma = 0.0;  // population stddev of nnz per row
  index_t row_max = 0;
  index_t row_min = 0;
  index_t empty_rows = 0;

  // Contiguous-chunk ("block") structure, as in feature sets 2/3.
  index_t total_chunks = 0;   // nnzb_tot
  double chunk_size_mu = 0.0; // mean length of a contiguous run

  // Column-access locality (beyond the paper's features).
  double avg_stride = 0.0;   // mean gap between consecutive cols in a row
  double span_mu = 0.0;      // mean (max_col - min_col + 1) per row
  double band_fraction = 0.0;  // share of nnz with |col - row*cols/rows| small

  // Kernel-shape statistics (second pass over row lengths only).
  // Vector (warp-per-row) CSR: lane-steps including intra-warp idle lanes.
  double csr_vector_lane_steps = 0.0;  // sum over rows of ceil(len/32)*32
  // Scalar (thread-per-row) CSR: warp executes the max row in its group.
  double csr_scalar_lane_steps = 0.0;  // sum over 32-row groups of max*32
  // HYB split at width ceil(row_mu): entries kept in ELL vs spilled to COO.
  index_t hyb_width = 0;
  index_t hyb_ell_entries = 0;
  index_t hyb_spill = 0;
  // SELL-C-sigma stored slots (incl. per-slice padding) at the default
  // (C, sigma) = (32, 128): rows sort by descending length inside each
  // sigma window, each C-row slice pads to its own max. Always within
  // [nnz, rows * row_max]; the widest slice equals row_max.
  index_t sell_slots = 0;

  /// Padded ELL work: rows * row_max over nnz (1.0 = no padding).
  double ell_padding_ratio() const {
    if (nnz == 0) return 1.0;
    return static_cast<double>(rows) * static_cast<double>(row_max) /
           static_cast<double>(nnz);
  }

  /// Padded SELL work: sell_slots over nnz (1.0 = no padding; never
  /// exceeds ell_padding_ratio()).
  double sell_padding_ratio() const {
    if (nnz == 0) return 1.0;
    return static_cast<double>(sell_slots) / static_cast<double>(nnz);
  }

  /// Coefficient of variation of row lengths.
  double row_cv() const { return row_mu > 0.0 ? row_sigma / row_mu : 0.0; }
};

/// One-pass digest of `m`'s sparsity pattern.
RowSummary summarize(CsrPatternView m);

}  // namespace spmvml
