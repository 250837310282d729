#include "sparse/mmio.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace spmvml {
namespace {

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Line reader over a fixed-size buffer: each refill carries the partial
/// last line over to the front, and lines come out as string_views into
/// the buffer, valid until the next call. The file is never held whole in
/// memory; the buffer grows only for a line longer than itself. Tolerates
/// CRLF line endings (strips one trailing '\r') and tracks the 1-based
/// line number for parse-error messages.
class LineReader {
 public:
  explicit LineReader(std::istream& in)
      : in_(in), buf_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {}

  bool next(std::string_view& line) {
    for (;;) {
      const char* begin = buf_.get() + head_;
      const auto* nl =
          static_cast<const char*>(std::memchr(begin, '\n', tail_ - head_));
      if (nl != nullptr) {
        line = {begin, static_cast<std::size_t>(nl - begin)};
        head_ += line.size() + 1;
        break;
      }
      if (eof_) {
        // Like getline: a last line without '\n' still counts.
        if (head_ == tail_) return false;
        line = {begin, tail_ - head_};
        head_ = tail_;
        break;
      }
      refill();
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++lineno_;
    return true;
  }

  std::size_t lineno() const { return lineno_; }

 private:
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 16;

  void refill() {
    const std::size_t carry = tail_ - head_;
    if (carry == size_) {
      size_ *= 2;
      auto grown = std::make_unique_for_overwrite<char[]>(size_);
      std::memcpy(grown.get(), buf_.get() + head_, carry);
      buf_ = std::move(grown);
    } else {
      std::memmove(buf_.get(), buf_.get() + head_, carry);
    }
    head_ = 0;
    tail_ = carry;
    in_.read(buf_.get() + tail_, static_cast<std::streamsize>(size_ - tail_));
    tail_ += static_cast<std::size_t>(in_.gcount());
    if (!in_) eof_ = true;  // short read: the stream is exhausted
  }

  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  std::size_t size_ = kBufferBytes;
  std::size_t head_ = 0;  // start of the unread bytes
  std::size_t tail_ = 0;  // end of the valid bytes
  bool eof_ = false;
  std::size_t lineno_ = 0;
};

bool is_blank(std::string_view line) {
  return line.find_first_not_of(" \t") == std::string_view::npos;
}

std::string at_line(std::size_t lineno) {
  return " (line " + std::to_string(lineno) + ")";
}

const char* skip_spaces(const char* p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t')) ++p;
  return p;
}

/// from_chars fast path for one `r c [v]` entry line — the per-entry
/// istringstream construction dominates cold-parse time on large files.
/// Returns false on anything unusual (sign prefixes, trailing tokens,
/// locale oddities); the caller then retries the original istream path,
/// so the accepted grammar is unchanged. Both parsers produce correctly
/// rounded doubles, so the values are bitwise-identical either way.
bool parse_entry_fast(std::string_view line, bool pattern, index_t& r,
                      index_t& c, double& v) {
  const char* p = line.data();
  const char* end = p + line.size();
  p = skip_spaces(p, end);
  auto [pr, ecr] = std::from_chars(p, end, r);
  if (ecr != std::errc{}) return false;
  p = skip_spaces(pr, end);
  auto [pc, ecc] = std::from_chars(p, end, c);
  if (ecc != std::errc{}) return false;
  p = pc;
  if (!pattern) {
    p = skip_spaces(p, end);
    auto [pv, ecv] = std::from_chars(p, end, v);
    if (ecv != std::errc{}) return false;
    p = pv;
  }
  return skip_spaces(p, end) == end;
}

/// Parse the banner, dimensions and entries into triplets (symmetric
/// entries mirrored). The read buffer is freed on return, before the CSR
/// build allocates its arrays.
std::vector<Triplet<double>> read_triplets(std::istream& in, index_t& rows,
                                           index_t& cols) {
  LineReader reader(in);
  std::string_view line;
  SPMVML_ENSURE_CAT(reader.next(line), ErrorCategory::kParse,
                    "empty Matrix Market stream");
  std::istringstream header{std::string(line)};
  std::string banner, object, fmt, field, symmetry;
  header >> banner >> object >> fmt >> field >> symmetry;
  SPMVML_ENSURE_CAT(banner == "%%MatrixMarket", ErrorCategory::kParse,
                    "missing %%MatrixMarket banner" + at_line(reader.lineno()));
  SPMVML_ENSURE_CAT(lowercase(object) == "matrix", ErrorCategory::kParse,
                    "only 'matrix' objects supported" +
                        at_line(reader.lineno()));
  SPMVML_ENSURE_CAT(lowercase(fmt) == "coordinate", ErrorCategory::kParse,
                    "only 'coordinate' (sparse) format supported" +
                        at_line(reader.lineno()));
  field = lowercase(field);
  symmetry = lowercase(symmetry);
  const bool pattern = field == "pattern";
  SPMVML_ENSURE_CAT(pattern || field == "real" || field == "integer",
                    ErrorCategory::kParse,
                    "unsupported field type: " + field +
                        at_line(reader.lineno()));
  const bool symmetric = symmetry == "symmetric";
  SPMVML_ENSURE_CAT(symmetric || symmetry == "general", ErrorCategory::kParse,
                    "unsupported symmetry: " + symmetry +
                        at_line(reader.lineno()));

  // Skip comments and blank lines before the dimensions line.
  bool have_dims = false;
  while (reader.next(line)) {
    if (is_blank(line) || line[line.find_first_not_of(" \t")] == '%') continue;
    have_dims = true;
    break;
  }
  SPMVML_ENSURE_CAT(have_dims, ErrorCategory::kParse,
                    "missing dimensions line" + at_line(reader.lineno()));
  std::istringstream dims{std::string(line)};
  index_t declared_nnz = 0;
  dims >> rows >> cols >> declared_nnz;
  SPMVML_ENSURE_CAT(!dims.fail() && rows > 0 && cols > 0 && declared_nnz >= 0,
                    ErrorCategory::kParse, "bad dimensions line" +
                        at_line(reader.lineno()));
  SPMVML_ENSURE_CAT(!symmetric || rows == cols, ErrorCategory::kParse,
                    "symmetric matrix must be square" +
                        at_line(reader.lineno()));

  std::vector<Triplet<double>> entries;
  // Cap the speculative reserve: the declared nnz is untrusted input and
  // a hostile header must fail on its missing entries (kParse), not on a
  // giant up-front allocation. The vector still grows as real entries
  // arrive.
  constexpr std::size_t kReserveCap = std::size_t{1} << 20;
  entries.reserve(std::min<std::size_t>(
      static_cast<std::size_t>(declared_nnz) * (symmetric ? 2 : 1),
      kReserveCap));
  for (index_t i = 0; i < declared_nnz; ++i) {
    SPMVML_ENSURE_CAT(reader.next(line), ErrorCategory::kParse,
                      "fewer entries than declared" + at_line(reader.lineno()));
    if (is_blank(line)) {
      --i;  // tolerate stray blank lines between entries
      continue;
    }
    index_t r = 0, c = 0;
    double v = 1.0;
    if (!parse_entry_fast(line, pattern, r, c, v)) {
      std::istringstream entry{std::string(line)};
      r = 0, c = 0, v = 1.0;
      entry >> r >> c;
      if (!pattern) entry >> v;
      SPMVML_ENSURE_CAT(!entry.fail(), ErrorCategory::kParse,
                        "malformed entry line: " + std::string(line) +
                            at_line(reader.lineno()));
    }
    SPMVML_ENSURE_CAT(r >= 1 && r <= rows && c >= 1 && c <= cols,
                      ErrorCategory::kParse,
                      "entry index out of range" + at_line(reader.lineno()));
    // The MM spec stores symmetric matrices lower-triangular; an entry
    // above the diagonal would silently double after mirroring.
    SPMVML_ENSURE_CAT(!symmetric || r >= c, ErrorCategory::kParse,
                      "symmetric entry above the diagonal" +
                          at_line(reader.lineno()));
    entries.push_back({r - 1, c - 1, v});
    if (symmetric && r != c) entries.push_back({c - 1, r - 1, v});
  }
  return entries;
}

}  // namespace

Csr<double> read_matrix_market(std::istream& in) {
  index_t rows = 0, cols = 0;
  auto entries = read_triplets(in, rows, cols);
  return Csr<double>::from_triplets(rows, cols, std::move(entries));
}

Csr<double> read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  SPMVML_ENSURE_CAT(in.good(), ErrorCategory::kIo, "cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Csr<double>& m) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by spmvml\n";
  out << m.rows() << ' ' << m.cols() << ' ' << m.nnz() << '\n';
  out.precision(17);
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p)
      out << (r + 1) << ' ' << (m.col_idx()[p] + 1) << ' ' << m.values()[p]
          << '\n';
}

void write_matrix_market(const std::string& path, const Csr<double>& m) {
  std::ofstream out(path);
  SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo,
                    "cannot open " + path + " for writing");
  write_matrix_market(out, m);
  SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo, "write failed for " + path);
}

}  // namespace spmvml
