// Reusable conversion arena (DESIGN.md §5g).
//
// Converting a CSR master copy into a selected format is on the serving
// hot path (a format decision is worthless if acting on it re-allocates
// megabytes per request). ConversionArena keeps one AnyMatrix slot per
// format plus the CSR5 index workspace; rebuilding a slot reuses every
// buffer whose capacity already suffices, so converting a stream of
// same-shaped (or shrinking) matrices performs no heap allocation after
// the first round — a property test_arena.cpp proves with a global
// allocation counter.
//
// Not thread-safe: one arena per worker thread (serving uses a
// thread_local instance per service worker).
#pragma once

#include <array>

#include "sparse/format.hpp"
#include "sparse/spmv.hpp"

namespace spmvml {

template <typename ValueT>
class ConversionArena {
 public:
  /// Convert `csr` into `format`, reusing the slot's previous buffers.
  /// The reference stays valid until the next convert() for the same
  /// format (other formats' slots are untouched).
  const AnyMatrix<ValueT>& convert(Format format, const Csr<ValueT>& csr) {
    AnyMatrix<ValueT>& slot = slots_[static_cast<std::size_t>(format)];
    slot.rebuild(format, csr, &scratch_);
    return slot;
  }

  /// Drop all cached capacity (slots revert to empty COO).
  void clear() {
    for (auto& slot : slots_) slot = AnyMatrix<ValueT>{};
    scratch_ = ConversionScratch{};
  }

 private:
  std::array<AnyMatrix<ValueT>, kNumFormats> slots_;
  ConversionScratch scratch_;
};

}  // namespace spmvml
