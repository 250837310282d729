#include "gpusim/row_summary.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>

#include "common/stats.hpp"

namespace spmvml {

RowSummary summarize(CsrPatternView m) {
  RowSummary s;
  s.rows = m.rows();
  s.cols = m.cols();
  s.nnz = m.nnz();

  StreamingStats row_len, chunk_size, stride, span;
  index_t band_hits = 0;
  // "Banded" means within a window of the structural diagonal; window
  // grows with matrix size but stays a small constant fraction.
  const double diag_scale =
      s.rows > 1 ? static_cast<double>(s.cols) / static_cast<double>(s.rows)
                 : 1.0;
  const auto band_window = std::max<index_t>(
      64, static_cast<index_t>(static_cast<double>(s.cols) * 0.02));

  s.row_min = s.rows > 0 ? std::numeric_limits<index_t>::max() : 0;
  for (index_t r = 0; r < s.rows; ++r) {
    const index_t begin = m.row_ptr()[r], end = m.row_ptr()[r + 1];
    const index_t len = end - begin;
    row_len.add(static_cast<double>(len));
    s.row_max = std::max(s.row_max, len);
    s.row_min = std::min(s.row_min, len);
    if (len == 0) {
      ++s.empty_rows;
      continue;
    }
    const auto diag =
        static_cast<index_t>(static_cast<double>(r) * diag_scale);
    index_t run = 1;
    for (index_t p = begin; p < end; ++p) {
      const index_t c = m.col_idx()[p];
      if (std::llabs(c - diag) <= band_window) ++band_hits;
      if (p > begin) {
        const index_t gap = c - m.col_idx()[p - 1];
        stride.add(static_cast<double>(gap));
        if (gap == 1) {
          ++run;
        } else {
          chunk_size.add(static_cast<double>(run));
          ++s.total_chunks;
          run = 1;
        }
      }
    }
    chunk_size.add(static_cast<double>(run));
    ++s.total_chunks;
    span.add(static_cast<double>(m.col_idx()[end - 1] -
                                 m.col_idx()[begin] + 1));
  }
  if (s.rows == 0) s.row_min = 0;

  s.row_mu = row_len.mean();
  s.row_sigma = row_len.stddev();
  s.chunk_size_mu = chunk_size.count() > 0 ? chunk_size.mean() : 0.0;
  s.avg_stride = stride.count() > 0 ? stride.mean() : 1.0;
  s.span_mu = span.count() > 0 ? span.mean() : 0.0;
  s.band_fraction =
      s.nnz > 0 ? static_cast<double>(band_hits) / static_cast<double>(s.nnz)
                : 0.0;

  // Second pass over row lengths only (O(rows)): kernel-shape statistics.
  s.hyb_width = static_cast<index_t>(std::ceil(s.row_mu));
  index_t group_max = 0;
  for (index_t r = 0; r < s.rows; ++r) {
    const index_t len = m.row_ptr()[r + 1] - m.row_ptr()[r];
    s.csr_vector_lane_steps += std::ceil(static_cast<double>(len) / 32.0) * 32.0;
    group_max = std::max(group_max, len);
    if ((r & 31) == 31 || r == s.rows - 1) {
      s.csr_scalar_lane_steps += static_cast<double>(group_max) * 32.0;
      group_max = 0;
    }
    s.hyb_ell_entries += std::min(len, s.hyb_width);
  }
  s.hyb_spill = s.nnz - s.hyb_ell_entries;

  // SELL-C-sigma slots at the default (32, 128), mirroring
  // Sell::assign_from_csr exactly: sort each sigma window's lengths
  // descending (sigma is a multiple of C and windows start on slice
  // boundaries, so slices never straddle windows), then every C-row
  // chunk pads to its own max; the trailing chunk shrinks to the rows
  // that exist. The fixed window buffer keeps summarize() heap-free.
  std::array<index_t, kSellDefaultSigma> window;
  for (index_t w = 0; w < s.rows; w += kSellDefaultSigma) {
    const index_t n = std::min<index_t>(kSellDefaultSigma, s.rows - w);
    for (index_t i = 0; i < n; ++i)
      window[static_cast<std::size_t>(i)] =
          m.row_ptr()[w + i + 1] - m.row_ptr()[w + i];
    std::sort(window.begin(), window.begin() + n, std::greater<index_t>());
    for (index_t i = 0; i < n; i += kSellDefaultC)
      s.sell_slots += window[static_cast<std::size_t>(i)] *
                      std::min<index_t>(kSellDefaultC, n - i);
  }
  return s;
}

}  // namespace spmvml
