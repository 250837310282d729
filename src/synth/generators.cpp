#include "synth/generators.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace spmvml {
namespace {

/// Rows (and buckets) up to this length are insertion-sorted outright.
constexpr std::size_t kInsertionSortMax = 16;

void insertion_sort(index_t* a, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const index_t x = a[i];
    std::size_t j = i;
    for (; j > 0 && a[j - 1] > x; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

}  // namespace

void RowSorter::operator()(std::span<index_t> cols) {
  const std::size_t n = cols.size();
  if (n <= kInsertionSortMax) {
    insertion_sort(cols.data(), n);
    return;
  }
  const auto [min_it, max_it] = std::minmax_element(cols.begin(), cols.end());
  const index_t lo = *min_it;
  const auto span = static_cast<std::uint64_t>(*max_it - lo) + 1;
  // bucket(c) = floor((c - lo) * n / span) in 64.64 fixed point: monotone
  // in c and below n, without a division per element. A span no wider
  // than the row gets (almost) one bucket per column.
  const std::uint64_t scale =
      span <= n ? ~std::uint64_t{0}
                : static_cast<std::uint64_t>(
                      (static_cast<unsigned __int128>(n) << 64) / span);
  const auto bucket = [lo, scale](index_t c) {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(c - lo)) *
         scale) >> 64);
  };
  bucket_end_.assign(n, 0);
  for (const index_t c : cols) ++bucket_end_[bucket(c)];
  std::uint32_t begin = 0;
  bool crowded = false;
  for (std::uint32_t& end : bucket_end_) {  // counts -> bucket starts
    const std::uint32_t count = end;
    crowded |= count > kInsertionSortMax;
    end = begin;
    begin += count;
  }
  buffer_.assign(cols.begin(), cols.end());
  for (const index_t c : buffer_) cols[bucket_end_[bucket(c)]++] = c;
  if (crowded) {  // std::sort the crowded buckets; the pass below skims them
    begin = 0;
    for (const std::uint32_t end : bucket_end_) {
      if (end - begin > kInsertionSortMax)
        std::sort(cols.begin() + begin, cols.begin() + end);
      begin = end;
    }
  }
  // Buckets are in order, so one insertion sort over the whole row only
  // moves entries within their bucket.
  insertion_sort(cols.data(), n);
}

namespace {

/// One generated row: the candidate columns being drawn, plus the sorter
/// that orders them. Reused across rows so neither allocates per row.
struct RowScratch {
  std::vector<index_t> cols;
  RowSorter sort;

  /// Sort the row and drop duplicate columns.
  void sort_unique() {
    sort(cols);
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  }
};

/// Append `count` distinct sorted columns from a candidate generator into
/// `flat`, returning how many were kept after dedup/clamping.
template <typename NextCol>
index_t emit_row(std::vector<index_t>& flat, RowScratch& row, index_t count,
                 index_t cols, NextCol&& next_col) {
  std::vector<index_t>& scratch = row.cols;
  scratch.clear();
  const index_t want = std::min(count, cols);
  // Draw in rounds, deduplicating once per round (a handful of row sorts
  // instead of one per few draws). Each round sorts the kept columns and
  // the new draws together with RowSorter, a bucket pass that costs about
  // a third of std::sort on these short, spread-out rows. Rows denser than
  // the candidate distribution supports simply come out short.
  for (int round = 0; round < 4 && static_cast<index_t>(scratch.size()) < want;
       ++round) {
    const index_t need = want - static_cast<index_t>(scratch.size());
    const index_t draws = need + need / 4 + 8;
    for (index_t i = 0; i < draws; ++i) {
      index_t c = next_col();
      if (c < 0) c = 0;
      if (c >= cols) c = cols - 1;
      scratch.push_back(c);
    }
    row.sort_unique();
  }
  if (static_cast<index_t>(scratch.size()) > want)
    scratch.resize(static_cast<std::size_t>(want));
  flat.insert(flat.end(), scratch.begin(), scratch.end());
  return static_cast<index_t>(scratch.size());
}

/// Sample a row length with the given mean and coefficient of variation
/// from a log-normal, clamped to [0, cap].
index_t sample_length(Rng& rng, double mu, double cv, index_t cap) {
  if (mu <= 0.0) return 0;
  const double var_ln = std::log(1.0 + cv * cv);
  const double sigma_ln = std::sqrt(var_ln);
  const double mu_ln = std::log(mu) - 0.5 * var_ln;
  const double len = std::exp(rng.normal(mu_ln, sigma_ln));
  const auto rounded = static_cast<index_t>(std::llround(len));
  return std::clamp<index_t>(rounded, 0, cap);
}

/// `rows + 1` zero-initialized slots; generators store row r's length at
/// index r + 1 and assemble() turns the lengths into row pointers in place.
std::vector<index_t> row_lengths(index_t rows) {
  return std::vector<index_t>(static_cast<std::size_t>(rows) + 1, 0);
}

CsrPattern assemble(index_t rows, index_t cols, std::vector<index_t> row_ptr,
                    std::vector<index_t> flat_cols) {
  for (std::size_t r = 1; r < row_ptr.size(); ++r) row_ptr[r] += row_ptr[r - 1];
  return CsrPattern{rows, cols, std::move(row_ptr), std::move(flat_cols)};
}

CsrPattern gen_banded(const GenSpec& s, Rng& rng) {
  std::vector<index_t> counts = row_lengths(s.rows);
  std::vector<index_t> flat;
  flat.reserve(static_cast<std::size_t>(
      std::llround(static_cast<double>(s.rows) * s.row_mu * 1.05)));
  RowScratch row;
  const double hb_f = std::max(s.band_frac * static_cast<double>(s.cols),
                               s.row_mu + 2.0);
  const auto hb = static_cast<index_t>(hb_f);
  for (index_t r = 0; r < s.rows; ++r) {
    // Bands are regular structures: bounded +-10% jitter keeps row_max
    // close to the mean (real band matrices have near-constant rows).
    const index_t len = std::clamp<index_t>(
        static_cast<index_t>(
            std::llround(s.row_mu * rng.uniform(0.9, 1.1))),
        1, s.cols);
    const index_t diag = s.cols > 1 ? r * (s.cols - 1) / std::max<index_t>(s.rows - 1, 1)
                                    : 0;
    // ~70% of the row is one contiguous run at the diagonal; the rest are
    // scattered inside the band (gives non-trivial chunk statistics).
    const index_t run = std::max<index_t>(1, (len * 7) / 10);
    index_t emitted_in_run = 0;
    counts[static_cast<std::size_t>(r) + 1] = emit_row(
        flat, row, len, s.cols, [&]() -> index_t {
          if (emitted_in_run < run) {
            return diag - run / 2 + emitted_in_run++;
          }
          return diag + static_cast<index_t>(
                            std::llround(rng.normal(0.0,
                                                    static_cast<double>(hb))));
        });
  }
  return assemble(s.rows, s.cols, std::move(counts), std::move(flat));
}

CsrPattern gen_stencil(const GenSpec& s) {
  // Square grid; rows == cols == n*n (n from spec.rows).
  const auto n = static_cast<index_t>(
      std::max(2.0, std::floor(std::sqrt(static_cast<double>(s.rows)))));
  const index_t size = n * n;
  // Pick the stencil closest to the requested row_mu.
  struct Offset { index_t dx, dy; };
  std::vector<Offset> offsets = {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  if (s.row_mu > 7.0) {
    offsets.insert(offsets.end(),
                   {{1, 1}, {1, -1}, {-1, 1}, {-1, -1}});  // 9-point
  }
  if (s.row_mu > 13.0) {
    offsets.insert(offsets.end(), {{2, 0}, {-2, 0}, {0, 2}, {0, -2},
                                   {2, 1}, {-2, -1}, {1, 2}, {-1, -2}});
  }
  std::vector<index_t> counts = row_lengths(size);
  std::vector<index_t> flat;
  flat.reserve(static_cast<std::size_t>(size) * offsets.size());
  std::vector<index_t> row_cols;
  for (index_t y = 0; y < n; ++y) {
    for (index_t x = 0; x < n; ++x) {
      row_cols.clear();
      for (const auto& o : offsets) {
        const index_t nx = x + o.dx, ny = y + o.dy;
        if (nx >= 0 && nx < n && ny >= 0 && ny < n)
          row_cols.push_back(ny * n + nx);
      }
      std::sort(row_cols.begin(), row_cols.end());
      counts[static_cast<std::size_t>(y * n + x) + 1] =
          static_cast<index_t>(row_cols.size());
      flat.insert(flat.end(), row_cols.begin(), row_cols.end());
    }
  }
  return assemble(size, size, std::move(counts), std::move(flat));
}

CsrPattern gen_uniform(const GenSpec& s, Rng& rng) {
  std::vector<index_t> counts = row_lengths(s.rows);
  std::vector<index_t> flat;
  flat.reserve(static_cast<std::size_t>(
      std::llround(static_cast<double>(s.rows) * s.row_mu * 1.05)));
  RowScratch row;
  for (index_t r = 0; r < s.rows; ++r) {
    const index_t len = sample_length(rng, s.row_mu, s.row_cv, s.cols);
    counts[static_cast<std::size_t>(r) + 1] =
        emit_row(flat, row, len, s.cols,
                 [&]() { return rng.uniform_int(0, s.cols - 1); });
  }
  return assemble(s.rows, s.cols, std::move(counts), std::move(flat));
}

CsrPattern gen_powerlaw(const GenSpec& s, Rng& rng) {
  std::vector<index_t> counts = row_lengths(s.rows);
  std::vector<index_t> flat;
  flat.reserve(static_cast<std::size_t>(
      std::llround(static_cast<double>(s.rows) * s.row_mu * 1.1)));
  RowScratch row;
  // Pareto(alpha) has mean alpha/(alpha-1); rescale so E[len] ~= row_mu.
  const double scale =
      s.alpha > 1.05 ? s.row_mu * (s.alpha - 1.0) / s.alpha : s.row_mu * 0.3;
  for (index_t r = 0; r < s.rows; ++r) {
    const auto raw = static_cast<double>(rng.pareto_int(s.alpha, s.cols));
    const index_t len = std::clamp<index_t>(
        static_cast<index_t>(std::llround(raw * scale)), 1, s.cols);
    counts[static_cast<std::size_t>(r) + 1] = emit_row(
        flat, row, len, s.cols, [&]() -> index_t {
          // Half hub-preferential (Zipf-like), half uniform.
          if (rng.bernoulli(0.5)) {
            const double u = rng.uniform();
            return static_cast<index_t>(
                static_cast<double>(s.cols) * u * u * u);
          }
          return rng.uniform_int(0, s.cols - 1);
        });
  }
  return assemble(s.rows, s.cols, std::move(counts), std::move(flat));
}

CsrPattern gen_block(const GenSpec& s, Rng& rng) {
  const index_t bs = std::max<index_t>(2, s.block_size);
  const index_t block_cols = std::max<index_t>(1, s.cols / bs);
  const double fill = 0.8;  // density inside a selected block
  const auto blocks_per_row = std::max<index_t>(
      1, static_cast<index_t>(
             std::llround(s.row_mu / (static_cast<double>(bs) * fill))));
  std::vector<index_t> counts = row_lengths(s.rows);
  std::vector<index_t> flat;
  flat.reserve(static_cast<std::size_t>(
      std::llround(static_cast<double>(s.rows) * s.row_mu * 1.1)));
  RowScratch row;
  std::vector<index_t> picked;
  for (index_t r = 0; r < s.rows; ++r) {
    // Rows in the same block-row share their block choices via a seeded
    // draw, giving genuine block structure rather than per-row noise.
    Rng block_rng(hash_combine(s.seed, static_cast<std::uint64_t>(r / bs)));
    picked.clear();
    for (index_t b = 0; b < blocks_per_row; ++b)
      picked.push_back(block_rng.uniform_int(0, block_cols - 1));
    row.cols.clear();
    for (index_t bc : picked) {
      const index_t base = bc * bs;
      for (index_t k = 0; k < bs && base + k < s.cols; ++k)
        if (rng.bernoulli(fill)) row.cols.push_back(base + k);
    }
    row.sort_unique();
    counts[static_cast<std::size_t>(r) + 1] =
        static_cast<index_t>(row.cols.size());
    flat.insert(flat.end(), row.cols.begin(), row.cols.end());
  }
  return assemble(s.rows, s.cols, std::move(counts), std::move(flat));
}

CsrPattern gen_geom(const GenSpec& s, Rng& rng) {
  // Random geometric graph on a sqrt(R) x sqrt(R) grid embedding: each
  // vertex connects to ~row_mu spatial neighbours (2D offsets), so column
  // indices cluster at r + dx + n*dy.
  const auto n = static_cast<index_t>(
      std::max(2.0, std::floor(std::sqrt(static_cast<double>(s.rows)))));
  const index_t size = n * n;
  const double radius = std::max(1.0, std::sqrt(s.row_mu / std::numbers::pi));
  std::vector<index_t> counts = row_lengths(size);
  std::vector<index_t> flat;
  flat.reserve(static_cast<std::size_t>(
      std::llround(static_cast<double>(size) * s.row_mu * 1.1)));
  RowScratch row;
  for (index_t r = 0; r < size; ++r) {
    const index_t x = r % n, y = r / n;
    const index_t len =
        std::max<index_t>(1, sample_length(rng, s.row_mu, 0.25, size));
    counts[static_cast<std::size_t>(r) + 1] = emit_row(
        flat, row, len, size, [&]() -> index_t {
          const auto dx = static_cast<index_t>(
              std::llround(rng.normal(0.0, radius)));
          const auto dy = static_cast<index_t>(
              std::llround(rng.normal(0.0, radius)));
          const index_t nx = std::clamp<index_t>(x + dx, 0, n - 1);
          const index_t ny = std::clamp<index_t>(y + dy, 0, n - 1);
          return ny * n + nx;
        });
  }
  return assemble(size, size, std::move(counts), std::move(flat));
}

}  // namespace

const char* family_name(MatrixFamily f) {
  switch (f) {
    case MatrixFamily::kBanded: return "banded";
    case MatrixFamily::kStencil: return "stencil";
    case MatrixFamily::kUniformRandom: return "uniform";
    case MatrixFamily::kPowerLaw: return "powerlaw";
    case MatrixFamily::kBlockRandom: return "block";
    case MatrixFamily::kGeomGraph: return "geom";
  }
  SPMVML_ENSURE(false, "unreachable: invalid MatrixFamily");
  return "";
}

namespace {

Rng spec_rng(const GenSpec& spec) {
  SPMVML_ENSURE(spec.rows > 0 && spec.cols > 0, "spec needs positive dims");
  SPMVML_ENSURE(spec.row_mu >= 0.0, "negative row_mu");
  return Rng(hash_combine(spec.seed,
                          static_cast<std::uint64_t>(spec.family) * 7919));
}

/// The pattern every generator entry point shares. generate() keeps
/// drawing from `rng` for the values, so they follow the same stream.
CsrPattern draw_pattern(const GenSpec& spec, Rng& rng) {
  switch (spec.family) {
    case MatrixFamily::kBanded: return gen_banded(spec, rng);
    case MatrixFamily::kStencil: return gen_stencil(spec);
    case MatrixFamily::kUniformRandom: return gen_uniform(spec, rng);
    case MatrixFamily::kPowerLaw: return gen_powerlaw(spec, rng);
    case MatrixFamily::kBlockRandom: return gen_block(spec, rng);
    case MatrixFamily::kGeomGraph: return gen_geom(spec, rng);
  }
  SPMVML_ENSURE(false, "unreachable: invalid MatrixFamily");
  return {};
}

}  // namespace

CsrPattern generate_pattern(const GenSpec& spec) {
  Rng rng = spec_rng(spec);
  return draw_pattern(spec, rng);
}

Csr<double> generate(const GenSpec& spec) {
  Rng rng = spec_rng(spec);
  CsrPattern p = draw_pattern(spec, rng);
  std::vector<double> values(p.col_idx.size());
  for (auto& v : values) v = rng.uniform(0.5, 1.5);
  return Csr<double>(p.rows, p.cols, std::move(p.row_ptr),
                     std::move(p.col_idx), std::move(values));
}

Csr<double> shuffle_labels(const Csr<double>& m, std::uint64_t seed) {
  SPMVML_ENSURE(m.rows() == m.cols(), "shuffle_labels needs a square matrix");
  const index_t n = m.rows();
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  Rng rng(hash_combine(seed, 0x5AFF1EULL));
  for (index_t i = n; i > 1; --i)
    std::swap(perm[static_cast<std::size_t>(i - 1)],
              perm[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);

  std::vector<Triplet<double>> entries;
  entries.reserve(static_cast<std::size_t>(m.nnz()));
  for (index_t r = 0; r < n; ++r)
    for (index_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p)
      entries.push_back({perm[static_cast<std::size_t>(r)],
                         perm[static_cast<std::size_t>(m.col_idx()[p])],
                         m.values()[p]});
  return Csr<double>::from_triplets(n, n, std::move(entries));
}

std::string describe(const GenSpec& spec) {
  std::ostringstream os;
  os << family_name(spec.family) << " rows=" << spec.rows
     << " cols=" << spec.cols << " mu=" << spec.row_mu << " cv=" << spec.row_cv
     << " seed=" << spec.seed;
  return os.str();
}

}  // namespace spmvml
