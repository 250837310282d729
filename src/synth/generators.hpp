// Synthetic sparse-matrix generators.
//
// Stand-in for the SuiteSparse collection (see DESIGN.md §2): each family
// mimics a real application domain's sparsity signature —
//   * kBanded          — structural/FEM stencils: near-diagonal bands,
//                        uniform row lengths, strong column locality.
//   * kStencil         — regular grid stencils (5/9/27-point patterns).
//   * kUniformRandom   — unstructured, controllable row-length variance.
//   * kPowerLaw        — graphs/networks: Zipf-ish degrees, hub columns.
//   * kBlockRandom     — block-structured (multi-physics coupling).
//   * kGeomGraph       — random geometric graph (the paper's Fig. 2
//                        rgg_n_2_19 exemplar).
//
// All generators are deterministic in (spec, seed) and emit canonical CSR.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace spmvml {

enum class MatrixFamily : int {
  kBanded = 0,
  kStencil = 1,
  kUniformRandom = 2,
  kPowerLaw = 3,
  kBlockRandom = 4,
  kGeomGraph = 5,
};

inline constexpr int kNumFamilies = 6;

const char* family_name(MatrixFamily f);

/// Parameters for one synthetic matrix. Unused knobs are ignored by
/// families that do not need them.
struct GenSpec {
  MatrixFamily family = MatrixFamily::kUniformRandom;
  index_t rows = 1000;
  index_t cols = 1000;
  /// Target average nonzeros per row.
  double row_mu = 8.0;
  /// Coefficient of variation of row lengths (sigma/mu), where the family
  /// allows control (uniform/block; power-law's tail dominates).
  double row_cv = 0.5;
  /// Banded/stencil: half-bandwidth as fraction of cols.
  double band_frac = 0.01;
  /// Power-law exponent (smaller = heavier tail).
  double alpha = 1.8;
  /// Block families: edge length of dense-ish blocks.
  index_t block_size = 8;
  std::uint64_t seed = 1;
};

/// Generate the matrix described by `spec`. Values are uniform in
/// [0.5, 1.5] so SpMV results are well-conditioned for correctness checks.
Csr<double> generate(const GenSpec& spec);

/// generate(spec)'s row_ptr and col_idx without the values: the same code
/// draws the same pattern, then stops before the one draw per nonzero
/// that fills the value array. Label collection uses it, so a matrix in
/// flight holds half the bytes.
CsrPattern generate_pattern(const GenSpec& spec);

/// Sorts one generated row's candidate columns (non-negative indices).
/// A counting pass spreads the row's n entries over n buckets spanning
/// its [min, max]; one insertion sort then finishes the row, moving
/// entries only within their bucket: O(n) on the spread-out rows
/// generators draw. A bucket above 16 entries (duplicates, a hub, a
/// contiguous run) is std::sort-ed first, so the worst case stays
/// O(n log n). Any correct sort yields the same array, so generate()
/// does not depend on this choice. Holds its scratch between rows.
class RowSorter {
 public:
  void operator()(std::span<index_t> cols);

 private:
  std::vector<index_t> buffer_;
  std::vector<std::uint32_t> bucket_end_;
};

/// Human-readable one-line description, e.g. "powerlaw r=10000 mu=12.0".
std::string describe(const GenSpec& spec);

/// Relabel a square matrix's rows/columns with one random permutation
/// (A' = P A P^T). Destroys index locality while preserving the graph —
/// how an arbitrarily-ordered SuiteSparse matrix differs from a
/// bandwidth-reduced one.
Csr<double> shuffle_labels(const Csr<double>& m, std::uint64_t seed);

}  // namespace spmvml
