// Runtime-dispatched SpMV over any of the seven formats.
//
// AnyMatrix owns one concrete representation; build(format, csr) converts
// a CSR master copy into the requested format. This is the type the
// format-selector examples hand back to users.
#pragma once

#include <span>
#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr5.hpp"
#include "sparse/ell.hpp"
#include "sparse/format.hpp"
#include "sparse/hyb.hpp"
#include "sparse/merge_csr.hpp"
#include "sparse/sell.hpp"

namespace spmvml {

/// Sum-type over the seven storage formats.
template <typename ValueT>
class AnyMatrix {
 public:
  AnyMatrix() = default;

  /// Convert `csr` into the requested format.
  static AnyMatrix build(Format format, const Csr<ValueT>& csr) {
    AnyMatrix m;
    m.rebuild(format, csr);
    return m;
  }

  /// Convert `csr` into the requested format in place. When the variant
  /// already holds the target alternative its buffers are reused (the
  /// ConversionArena warm path allocates nothing); otherwise the
  /// alternative is emplaced fresh. `scratch`, if given, supplies the
  /// CSR5 conversion workspace. SELL converts with Sell's default
  /// (C, sigma), the pair the cost model assumes.
  void rebuild(Format format, const Csr<ValueT>& csr,
               ConversionScratch* scratch = nullptr) {
    format_ = format;
    switch (format) {
      case Format::kCoo: ensure<Coo<ValueT>>().assign_from_csr(csr); break;
      case Format::kCsr: ensure<Csr<ValueT>>() = csr; break;
      case Format::kEll: ensure<Ell<ValueT>>().assign_from_csr(csr); break;
      case Format::kHyb: ensure<Hyb<ValueT>>().assign_from_csr(csr); break;
      case Format::kCsr5:
        ensure<Csr5<ValueT>>().assign_from_csr(csr, 32, 16, scratch);
        break;
      case Format::kMergeCsr:
        ensure<MergeCsr<ValueT>>().assign_from_csr(csr);
        break;
      case Format::kSell:
        ensure<Sell<ValueT>>().assign_from_csr(csr);
        break;
    }
  }

  /// Recover the CSR master copy from whatever format is stored.
  Csr<ValueT> to_csr() const {
    return std::visit(
        [](const auto& m) {
          if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                       Csr<ValueT>>) {
            return m;
          } else {
            return m.to_csr();
          }
        },
        impl_);
  }

  Format format() const { return format_; }

  index_t rows() const {
    return std::visit([](const auto& m) { return m.rows(); }, impl_);
  }
  index_t cols() const {
    return std::visit([](const auto& m) { return m.cols(); }, impl_);
  }
  index_t nnz() const {
    return std::visit([](const auto& m) { return m.nnz(); }, impl_);
  }
  std::int64_t bytes() const {
    return std::visit([](const auto& m) { return m.bytes(); }, impl_);
  }

  /// y = A*x using the stored format's kernel.
  void spmv(std::span<const ValueT> x, std::span<ValueT> y) const {
    std::visit([&](const auto& m) { m.spmv(x, y); }, impl_);
  }

  /// The concrete representation (tests and kernels that need the
  /// format-specific API).
  template <typename Alt>
  const Alt& get() const {
    return std::get<Alt>(impl_);
  }

  bool operator==(const AnyMatrix&) const = default;

 private:
  /// Reference to the variant's Alt alternative, emplacing it only when a
  /// different format is currently held (so buffers survive rebuilds).
  template <typename Alt>
  Alt& ensure() {
    if (!std::holds_alternative<Alt>(impl_)) impl_.template emplace<Alt>();
    return std::get<Alt>(impl_);
  }

  // Default-constructed AnyMatrix holds an empty COO (the variant's first
  // alternative); format_ matches it.
  Format format_ = Format::kCoo;
  std::variant<Coo<ValueT>, Csr<ValueT>, Ell<ValueT>, Hyb<ValueT>,
               Csr5<ValueT>, MergeCsr<ValueT>, Sell<ValueT>>
      impl_;
};

/// Dense reference y = A*x computed straight from CSR with per-row
/// long-double accumulation; the oracle all format kernels are tested
/// against.
template <typename ValueT>
void spmv_reference(const Csr<ValueT>& a,
                    std::type_identity_t<std::span<const ValueT>> x,
                    std::type_identity_t<std::span<ValueT>> y) {
  SPMVML_ENSURE(static_cast<index_t>(x.size()) == a.cols(), "x size != cols");
  SPMVML_ENSURE(static_cast<index_t>(y.size()) == a.rows(), "y size != rows");
  for (index_t r = 0; r < a.rows(); ++r) {
    long double sum = 0.0L;
    for (index_t p = a.row_ptr()[r]; p < a.row_ptr()[r + 1]; ++p)
      sum += static_cast<long double>(a.values()[p]) *
             static_cast<long double>(x[a.col_idx()[p]]);
    y[r] = static_cast<ValueT>(sum);
  }
}

}  // namespace spmvml
