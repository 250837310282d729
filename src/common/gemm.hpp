// Small dense GEMM kernels for the ML hot paths (batched MLP training).
//
// These are not a BLAS: operand shapes here are mini-batch x layer-width
// (tens to low hundreds), where library-call overhead would dominate.
// What matters is (a) contiguous row-major operands — no per-sample
// std::vector allocation, (b) loop tiling over the reduction dimension so
// the working set stays in L1, and (c) a deterministic accumulation
// order: every output element sums its reduction in ascending-k order and
// is owned by exactly one parallel_for iteration, so results are bitwise
// identical for any thread count. Each kernel runs on the pool it is
// given, by default ThreadPool::current().
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/parallel.hpp"

namespace spmvml {

/// Rows of C that one parallel_for task handles; also the minimum row
/// count before going parallel at all.
inline constexpr std::int64_t kGemmRowGrain = 8;
/// Reduction-dimension tile: 256 doubles = 2 KB per operand row, safely
/// inside L1 alongside the C row being accumulated.
inline constexpr int kGemmTileK = 256;

/// C (m x n) = A (m x k) * B^T, with B stored row-major n x k, plus an
/// optional bias broadcast over rows (pass nullptr for none). This is the
/// MLP forward shape: activations (batch x in) times a weight matrix
/// stored out x in.
inline void gemm_nt(int m, int n, int k, const double* a, const double* b,
                    const double* bias, double* c,
                    ThreadPool& pool = ThreadPool::current()) {
  parallel_for(m, kGemmRowGrain, [&](std::int64_t i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (int j = 0; j < n; ++j) crow[j] = bias != nullptr ? bias[j] : 0.0;
    for (int k0 = 0; k0 < k; k0 += kGemmTileK) {
      const int k1 = std::min(k, k0 + kGemmTileK);
      for (int j = 0; j < n; ++j) {
        const double* brow = b + static_cast<std::int64_t>(j) * k;
        double sum = crow[j];
        for (int kk = k0; kk < k1; ++kk) sum += arow[kk] * brow[kk];
        crow[j] = sum;
      }
    }
  }, pool);
}

/// C (m x n) = A (m x k) * B (k x n), both row-major. This is the MLP
/// delta back-propagation shape: batch x out deltas times the out x in
/// weight matrix.
inline void gemm_nn(int m, int n, int k, const double* a, const double* b,
                    double* c,
                    ThreadPool& pool = ThreadPool::current()) {
  parallel_for(m, kGemmRowGrain, [&](std::int64_t i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    std::fill(crow, crow + n, 0.0);
    // kk-major order keeps the B row streaming and still accumulates each
    // C element in ascending-kk order (determinism).
    for (int kk = 0; kk < k; ++kk) {
      const double av = arow[kk];
      if (av == 0.0) continue;  // ReLU deltas are often sparse
      const double* brow = b + static_cast<std::int64_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }, pool);
}

/// C (m x n) = A^T * B where A is k x m and B is k x n, both row-major.
/// This is the MLP weight-gradient shape: (batch x out)^T deltas times
/// batch x in activations, reducing over the batch.
inline void gemm_tn(int m, int n, int k, const double* a, const double* b,
                    double* c,
                    ThreadPool& pool = ThreadPool::current()) {
  parallel_for(m, kGemmRowGrain, [&](std::int64_t i) {
    double* crow = c + i * n;
    std::fill(crow, crow + n, 0.0);
    for (int kk = 0; kk < k; ++kk) {
      const double av = a[static_cast<std::int64_t>(kk) * m + i];
      if (av == 0.0) continue;
      const double* brow = b + static_cast<std::int64_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }, pool);
}

}  // namespace spmvml
