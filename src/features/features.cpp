#include "features/features.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace spmvml {

namespace {

/// The three structure accumulators every feature in sets 2/3 derives
/// from. Blocks merge in row order, so the merged result is a pure
/// function of the row partition — never of the thread count.
struct StructureStats {
  StreamingStats row_len;         // nonzeros per row
  StreamingStats chunks_per_row;  // contiguous column runs per row
  StreamingStats chunk_size;      // length of each run

  void merge(const StructureStats& other) {
    row_len.merge(other.row_len);
    chunks_per_row.merge(other.chunks_per_row);
    chunk_size.merge(other.chunk_size);
  }
};

/// Accumulate one CSR row: its length plus the contiguous-run structure
/// of its column indices.
inline void scan_row(const CsrPatternView& m, index_t r, StructureStats& s) {
  const index_t begin = m.row_ptr()[r], end = m.row_ptr()[r + 1];
  s.row_len.add(static_cast<double>(end - begin));
  if (begin == end) {
    s.chunks_per_row.add(0.0);
    return;
  }
  index_t row_chunks = 0;
  index_t run = 1;
  for (index_t p = begin + 1; p < end; ++p) {
    if (m.col_idx()[p] == m.col_idx()[p - 1] + 1) {
      ++run;
    } else {
      s.chunk_size.add(static_cast<double>(run));
      ++row_chunks;
      run = 1;
    }
  }
  s.chunk_size.add(static_cast<double>(run));
  ++row_chunks;
  s.chunks_per_row.add(static_cast<double>(row_chunks));
}

/// Rows per extraction block. Fixed (not derived from the thread count)
/// so the block partition — and therefore every merged statistic — is
/// identical whether the blocks run serially or in parallel.
constexpr index_t kFeatureRowBlock = 4096;

/// Scan all rows block-by-block on `pool`, merging block accumulators in
/// row order; the result is byte-identical to a serial scan.
StructureStats scan_structure(CsrPatternView m, ThreadPool& pool) {
  const index_t rows = m.rows();
  StructureStats total;
  if (rows <= kFeatureRowBlock) {
    for (index_t r = 0; r < rows; ++r) scan_row(m, r, total);
    return total;
  }
  const index_t blocks = (rows + kFeatureRowBlock - 1) / kFeatureRowBlock;
  std::vector<StructureStats> block_stats(static_cast<std::size_t>(blocks));
  const auto scan_block = [&](std::int64_t b) {
    // Accumulate locally: neighbouring slots share cache lines, and
    // another thread may be scanning the next block.
    StructureStats s;
    const index_t r0 = static_cast<index_t>(b) * kFeatureRowBlock;
    const index_t r1 = std::min(rows, r0 + kFeatureRowBlock);
    for (index_t r = r0; r < r1; ++r) scan_row(m, r, s);
    block_stats[static_cast<std::size_t>(b)] = s;
  };
  pool.cooperative_for(blocks, scan_block);
  for (const auto& s : block_stats) total.merge(s);
  return total;
}

}  // namespace

const char* feature_name(int id) {
  static constexpr const char* kNames[kNumFeatures] = {
      "n_rows",     "n_cols",     "nnz_tot",   "nnz_mu",    "nnz_frac",
      "nnz_max",    "nnz_min",    "nnz_sigma", "nnzb_tot",  "nnzb_mu",
      "nnzb_sigma", "nnzb_max",   "nnzb_min",  "snzb_mu",   "snzb_sigma",
      "snzb_max",   "snzb_min"};
  SPMVML_ENSURE(id >= 0 && id < kNumFeatures, "feature id out of range");
  return kNames[id];
}

const char* feature_set_name(FeatureSet set) {
  switch (set) {
    case FeatureSet::kSet1: return "feature set 1";
    case FeatureSet::kSet12: return "feature sets 1+2";
    case FeatureSet::kSet123: return "feature sets 1+2+3";
    case FeatureSet::kImportant: return "imp. features";
  }
  SPMVML_ENSURE(false, "unreachable: invalid FeatureSet");
  return "";
}

std::vector<int> feature_set_indices(FeatureSet set) {
  switch (set) {
    case FeatureSet::kSet1:
      return {kNRows, kNCols, kNnzTot, kNnzMu, kNnzFrac};
    case FeatureSet::kSet12:
      return {kNRows, kNCols, kNnzTot, kNnzMu, kNnzFrac, kNnzMax, kNnzSigma,
              kNnzbMu, kNnzbSigma, kSnzbMu, kSnzbSigma};
    case FeatureSet::kSet123: {
      std::vector<int> all(kNumFeatures);
      for (int i = 0; i < kNumFeatures; ++i) all[static_cast<std::size_t>(i)] = i;
      return all;
    }
    case FeatureSet::kImportant:
      // The intersection Figs. 4/5 report as stable across machines and
      // precisions: n_rows, nnz_max, nnz_tot, nnz_sigma, nnz_frac,
      // nnzb_tot, nnz_mu.
      return {kNRows, kNnzTot, kNnzMu, kNnzFrac, kNnzMax, kNnzSigma, kNnzbTot};
  }
  SPMVML_ENSURE(false, "unreachable: invalid FeatureSet");
  return {};
}

std::vector<double> FeatureVector::select(FeatureSet set) const {
  const auto idx = feature_set_indices(set);
  return select(idx);
}

std::vector<double> FeatureVector::select(std::span<const int> indices) const {
  std::vector<double> out;
  out.reserve(indices.size());
  for (int id : indices) {
    SPMVML_ENSURE(id >= 0 && id < kNumFeatures, "feature id out of range");
    out.push_back(values[static_cast<std::size_t>(id)]);
  }
  return out;
}

namespace {

/// Assemble the 17-feature vector from the structure scan.
FeatureVector assemble_features(CsrPatternView m,
                                const StructureStats& scan) {
  FeatureVector f;
  const index_t rows = m.rows(), cols = m.cols(), nnz = m.nnz();
  f.values[kNRows] = static_cast<double>(rows);
  f.values[kNCols] = static_cast<double>(cols);
  f.values[kNnzTot] = static_cast<double>(nnz);
  f.values[kNnzMu] =
      rows > 0 ? static_cast<double>(nnz) / static_cast<double>(rows) : 0.0;
  f.values[kNnzFrac] =
      rows > 0 && cols > 0
          ? 100.0 * static_cast<double>(nnz) /
                (static_cast<double>(rows) * static_cast<double>(cols))
          : 0.0;

  const StreamingStats& row_len = scan.row_len;
  const StreamingStats& chunks_per_row = scan.chunks_per_row;
  const StreamingStats& chunk_size = scan.chunk_size;

  f.values[kNnzMax] = row_len.max();
  f.values[kNnzMin] = row_len.min();
  f.values[kNnzSigma] = row_len.stddev();
  f.values[kNnzbTot] = chunk_size.count() > 0
                           ? static_cast<double>(chunk_size.count())
                           : 0.0;
  f.values[kNnzbMu] = chunks_per_row.mean();
  f.values[kNnzbSigma] = chunks_per_row.stddev();
  f.values[kNnzbMax] = chunks_per_row.max();
  f.values[kNnzbMin] = chunks_per_row.min();
  f.values[kSnzbMu] = chunk_size.mean();
  f.values[kSnzbSigma] = chunk_size.stddev();
  f.values[kSnzbMax] = chunk_size.max();
  f.values[kSnzbMin] = chunk_size.min();
  return f;
}

void count_extraction(CsrPatternView m, obs::TraceSpan& span) {
  span.arg("rows", static_cast<std::int64_t>(m.rows()))
      .arg("nnz", static_cast<std::int64_t>(m.nnz()));
  static obs::Counter extracted =
      obs::MetricsRegistry::global().counter("features.extracted");
  extracted.inc();
}

}  // namespace

FeatureVector extract_features(CsrPatternView m, ThreadPool& pool) {
  obs::TraceSpan span("features.extract");
  count_extraction(m, span);
  return assemble_features(m, scan_structure(m, pool));
}

FeatureVector extract_features_sampled(CsrPatternView m,
                                       double row_fraction,
                                       std::uint64_t seed) {
  SPMVML_ENSURE(row_fraction > 0.0, "row_fraction must be positive");
  if (row_fraction >= 1.0 || m.rows() == 0) return extract_features(m);

  const auto sample_count = std::max<index_t>(
      1, static_cast<index_t>(static_cast<double>(m.rows()) * row_fraction));

  FeatureVector f;
  const index_t rows = m.rows(), cols = m.cols(), nnz = m.nnz();
  // Set 1 is O(1) from CSR metadata — always exact.
  f.values[kNRows] = static_cast<double>(rows);
  f.values[kNCols] = static_cast<double>(cols);
  f.values[kNnzTot] = static_cast<double>(nnz);
  f.values[kNnzMu] = static_cast<double>(nnz) / static_cast<double>(rows);
  f.values[kNnzFrac] =
      cols > 0 ? 100.0 * static_cast<double>(nnz) /
                     (static_cast<double>(rows) * static_cast<double>(cols))
               : 0.0;

  // Sets 2/3: estimate from a random row sample (inherently serial — the
  // sampled row sequence is part of the deterministic contract).
  Rng rng(hash_combine(seed, 0xFEA7ULL));
  StructureStats scan;
  for (index_t s = 0; s < sample_count; ++s)
    scan_row(m, rng.uniform_int(0, rows - 1), scan);
  const StreamingStats& row_len = scan.row_len;
  const StreamingStats& chunks_per_row = scan.chunks_per_row;
  const StreamingStats& chunk_size = scan.chunk_size;

  f.values[kNnzMax] = row_len.max();  // biased low; the sample's max
  f.values[kNnzMin] = row_len.min();
  f.values[kNnzSigma] = row_len.stddev();
  // Totals rescale by the inverse sampling rate.
  const double scale =
      static_cast<double>(rows) / static_cast<double>(sample_count);
  f.values[kNnzbTot] =
      chunks_per_row.count() > 0 ? chunks_per_row.sum() * scale : 0.0;
  f.values[kNnzbMu] = chunks_per_row.mean();
  f.values[kNnzbSigma] = chunks_per_row.stddev();
  f.values[kNnzbMax] = chunks_per_row.max();
  f.values[kNnzbMin] = chunks_per_row.min();
  f.values[kSnzbMu] = chunk_size.mean();
  f.values[kSnzbSigma] = chunk_size.stddev();
  f.values[kSnzbMax] = chunk_size.max();
  f.values[kSnzbMin] = chunk_size.min();
  return f;
}

}  // namespace spmvml
