// Compressed Sparse Row (CSR) — the hub format of the library.
//
// All other formats convert from/to Csr; the synthetic generators emit Csr;
// feature extraction and the GPU simulator's structural digest both scan
// Csr. Invariants (sorted row_ptr, in-range sorted column indices) are
// checked by validate() and established by the canonical constructors.
#pragma once

#include <span>
#include <vector>

#include "sparse/types.hpp"

namespace spmvml {

template <typename ValueT>
class Coo;  // forward declaration; defined in sparse/coo.hpp

/// Read-only view of a CSR sparsity pattern: row pointers and column
/// indices, no values. Structure-only consumers (feature extraction, the
/// gpusim digest) take this, so label collection never materializes a
/// value array. Every Csr converts to it implicitly.
class CsrPatternView {
 public:
  CsrPatternView(index_t rows, index_t cols, std::span<const index_t> row_ptr,
                 std::span<const index_t> col_idx)
      : rows_(rows), cols_(cols), row_ptr_(row_ptr), col_idx_(col_idx) {}

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(col_idx_.size()); }
  std::span<const index_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }

 private:
  index_t rows_;
  index_t cols_;
  std::span<const index_t> row_ptr_;
  std::span<const index_t> col_idx_;
};

/// An owned sparsity pattern (what a generator draws before any value).
struct CsrPattern {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> row_ptr = {0};
  std::vector<index_t> col_idx;

  operator CsrPatternView() const { return {rows, cols, row_ptr, col_idx}; }
};

/// CSR sparse matrix: row_ptr (rows+1), col_idx and values (nnz each),
/// entries of a row stored contiguously with strictly increasing columns.
template <typename ValueT>
class Csr {
 public:
  Csr() = default;

  /// Takes ownership of prebuilt arrays; validates invariants.
  Csr(index_t rows, index_t cols, std::vector<index_t> row_ptr,
      std::vector<index_t> col_idx, std::vector<ValueT> values);

  /// Build from (possibly unsorted, possibly duplicated) triplets;
  /// duplicates are summed, matching Matrix Market semantics. Entries of a
  /// row keep their input order until sorted by column (a stable counting
  /// sort), so duplicates are summed left to right in input order.
  static Csr from_triplets(index_t rows, index_t cols,
                           std::vector<Triplet<ValueT>> entries);

  /// Convert from COO (asserts the COO is sorted row-major).
  static Csr from_coo(const Coo<ValueT>& coo);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(values_.size()); }

  std::span<const index_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const ValueT> values() const { return values_; }
  std::span<ValueT> values_mut() { return values_; }

  /// The sparsity pattern. Implicit, so structure-only APIs take a Csr.
  operator CsrPatternView() const {
    return {rows_, cols_, row_ptr_, col_idx_};
  }

  /// Number of stored entries in row i.
  index_t row_nnz(index_t i) const { return row_ptr_[i + 1] - row_ptr_[i]; }

  /// y = A*x. Sequential row-wise kernel (the "scalar CSR" kernel of
  /// Bell & Garland, executed on CPU). x.size()==cols, y.size()==rows.
  void spmv(std::span<const ValueT> x, std::span<ValueT> y) const;

  /// Device-memory footprint in bytes for the given value width.
  /// Index arrays are counted at 4 bytes each, matching the 32-bit
  /// indices GPU SpMV libraries use.
  std::int64_t bytes() const;

  /// Throws spmvml::Error if any structural invariant is violated.
  void validate() const;

  /// Transpose (used by the CG example for A^T when needed).
  Csr transpose() const;

  bool operator==(const Csr& other) const = default;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_ = {0};
  std::vector<index_t> col_idx_;
  std::vector<ValueT> values_;
};

extern template class Csr<float>;
extern template class Csr<double>;

/// Matrix bandwidth: max |col - row| over stored entries (0 if empty).
index_t bandwidth(const Csr<double>& m);

}  // namespace spmvml
