#include "sparse/csr.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "sparse/coo.hpp"
#include "sparse/simd.hpp"

namespace spmvml {

template <typename ValueT>
Csr<ValueT>::Csr(index_t rows, index_t cols, std::vector<index_t> row_ptr,
                 std::vector<index_t> col_idx, std::vector<ValueT> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  validate();
}

template <typename ValueT>
Csr<ValueT> Csr<ValueT>::from_triplets(index_t rows, index_t cols,
                                       std::vector<Triplet<ValueT>> entries) {
  SPMVML_ENSURE(rows >= 0 && cols >= 0, "negative dimensions");
  // Counting sort by row: count, prefix-sum, then scatter in input order,
  // so each row holds its entries in the order they were given.
  std::vector<index_t> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  // Whether the input is already in CSR order: rows ascending, columns
  // strictly increasing within a row (so no duplicates either).
  bool csr_order = true;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    SPMVML_ENSURE(e.row >= 0 && e.row < rows, "triplet row out of range");
    SPMVML_ENSURE(e.col >= 0 && e.col < cols, "triplet col out of range");
    ++row_ptr[static_cast<std::size_t>(e.row) + 1];
    if (i > 0) {
      const auto& p = entries[i - 1];
      csr_order &= p.row < e.row || (p.row == e.row && p.col < e.col);
    }
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::vector<index_t> col_idx(entries.size());
  std::vector<ValueT> values(entries.size());
  {
    std::vector<index_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
    for (const auto& e : entries) {
      const auto dst =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.row)]++);
      col_idx[dst] = e.col;
      values[dst] = e.value;
    }
  }
  entries = {};
  // Input in CSR order is now in its final arrays.
  if (csr_order)
    return Csr(rows, cols, std::move(row_ptr), std::move(col_idx),
               std::move(values));

  // Only rows whose columns are not already strictly increasing get a
  // stable sort by column. Duplicates are then adjacent and in input
  // order, and the compaction sums them left to right.
  std::vector<std::pair<index_t, ValueT>> row;
  index_t out = 0;
  for (index_t r = 0; r < rows; ++r) {
    const auto begin = static_cast<std::size_t>(row_ptr[r]);
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    row_ptr[r] = out;
    bool sorted = true;
    for (std::size_t p = begin + 1; p < end && sorted; ++p)
      sorted = col_idx[p - 1] < col_idx[p];
    if (!sorted) {
      row.clear();
      for (std::size_t p = begin; p < end; ++p)
        row.emplace_back(col_idx[p], values[p]);
      std::stable_sort(row.begin(), row.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      for (std::size_t i = 0; i < row.size(); ++i)
        std::tie(col_idx[begin + i], values[begin + i]) = row[i];
    }
    for (std::size_t p = begin; p < end; ++p) {
      const auto o = static_cast<std::size_t>(out);
      if (out > row_ptr[r] && col_idx[o - 1] == col_idx[p]) {
        values[o - 1] += values[p];
      } else {
        col_idx[o] = col_idx[p];
        values[o] = values[p];
        ++out;
      }
    }
  }
  row_ptr[static_cast<std::size_t>(rows)] = out;
  col_idx.resize(static_cast<std::size_t>(out));
  values.resize(static_cast<std::size_t>(out));
  return Csr(rows, cols, std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

template <typename ValueT>
Csr<ValueT> Csr<ValueT>::from_coo(const Coo<ValueT>& coo) {
  std::vector<Triplet<ValueT>> entries;
  entries.reserve(static_cast<std::size_t>(coo.nnz()));
  for (index_t i = 0; i < coo.nnz(); ++i)
    entries.push_back({coo.row_idx()[i], coo.col_idx()[i], coo.values()[i]});
  return from_triplets(coo.rows(), coo.cols(), std::move(entries));
}

template <typename ValueT>
void Csr<ValueT>::spmv(std::span<const ValueT> x, std::span<ValueT> y) const {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == cols_, "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == rows_, "y size != rows");
  // Lane-accumulated row dot products (simd::dot semantics): the SIMD
  // path and the scalar fallback share one summation order, and
  // spmv_parallel() calls the same helper per row — serial, SIMD, and
  // parallel outputs are bitwise-identical. The kernel pointer is
  // resolved once so short rows don't re-check the runtime toggle.
  const auto dot = simd::dot_kernel<ValueT>();
  for (index_t r = 0; r < rows_; ++r) {
    const index_t begin = row_ptr_[static_cast<std::size_t>(r)];
    const index_t len = row_ptr_[static_cast<std::size_t>(r) + 1] - begin;
    // Short rows inline the sequential rule (same bits as the kernel's
    // own short-row branch) instead of paying an indirect call.
    y[static_cast<std::size_t>(r)] =
        len < simd::kDotSequentialCutoff<ValueT>
            ? simd::detail::dot_sequential(values_.data() + begin,
                                           col_idx_.data() + begin, x.data(),
                                           len)
            : dot(values_.data() + begin, col_idx_.data() + begin, x.data(),
                  len);
  }
}

template <typename ValueT>
std::int64_t Csr<ValueT>::bytes() const {
  const std::int64_t idx = 4;  // 32-bit device indices
  return (rows_ + 1) * idx + nnz() * idx +
         nnz() * static_cast<std::int64_t>(sizeof(ValueT));
}

template <typename ValueT>
void Csr<ValueT>::validate() const {
  SPMVML_ENSURE(rows_ >= 0 && cols_ >= 0, "negative dimensions");
  SPMVML_ENSURE(static_cast<index_t>(row_ptr_.size()) == rows_ + 1,
                "row_ptr size must be rows+1");
  SPMVML_ENSURE(row_ptr_.front() == 0, "row_ptr[0] must be 0");
  SPMVML_ENSURE(row_ptr_.back() == static_cast<index_t>(col_idx_.size()),
                "row_ptr[rows] must equal nnz");
  SPMVML_ENSURE(col_idx_.size() == values_.size(),
                "col_idx and values must have equal length");
  for (index_t r = 0; r < rows_; ++r) {
    SPMVML_ENSURE(row_ptr_[r] <= row_ptr_[r + 1], "row_ptr must be monotone");
    for (index_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      SPMVML_ENSURE(col_idx_[p] >= 0 && col_idx_[p] < cols_,
                    "column index out of range");
      if (p > row_ptr_[r])
        SPMVML_ENSURE(col_idx_[p - 1] < col_idx_[p],
                      "columns within a row must be strictly increasing");
    }
  }
}

template <typename ValueT>
Csr<ValueT> Csr<ValueT>::transpose() const {
  std::vector<index_t> row_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (index_t p = 0; p < nnz(); ++p)
    ++row_ptr[static_cast<std::size_t>(col_idx_[p]) + 1];
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());

  std::vector<index_t> col_idx(static_cast<std::size_t>(nnz()));
  std::vector<ValueT> values(static_cast<std::size_t>(nnz()));
  std::vector<index_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const index_t dst = cursor[static_cast<std::size_t>(col_idx_[p])]++;
      col_idx[static_cast<std::size_t>(dst)] = r;
      values[static_cast<std::size_t>(dst)] = values_[p];
    }
  }
  return Csr(cols_, rows_, std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

template class Csr<float>;
template class Csr<double>;

index_t bandwidth(const Csr<double>& m) {
  index_t bw = 0;
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p)
      bw = std::max(bw, std::abs(m.col_idx()[p] - r));
  return bw;
}

}  // namespace spmvml
