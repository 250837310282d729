#include "sparse/mmio.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace spmvml {
namespace {

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Bytes per parse block, and blocks per read window. The window bounds
/// what the reader holds of the file at once (two windows while the next
/// one is read ahead; a window grows only for a line longer than itself);
/// the blocks are the unit the pool's workers claim.
constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
constexpr std::size_t kBlocksPerWindow = 4;

/// A fixed-size window over the stream. Hands out single lines (the
/// header) or every complete line it holds as one region (the entries),
/// as string_views into the window. A region stays valid while the next
/// window is read ahead into a second buffer (read_ahead), so reading can
/// overlap the parse of the region; advance() then moves to that buffer.
class Window {
 public:
  explicit Window(std::istream& in) : in_(in) {}

  /// The next line, one trailing '\r' stripped; counts lines for error
  /// messages.
  bool next_line(std::string_view& line) {
    for (;;) {
      const char* begin = cur_.data() + head_;
      const auto* nl = static_cast<const char*>(
          std::memchr(begin, '\n', cur_.tail - head_));
      if (nl != nullptr) {
        line = {begin, static_cast<std::size_t>(nl - begin)};
        head_ += line.size() + 1;
        break;
      }
      if (cur_.eof) {
        // Like getline: a last line without '\n' still counts.
        if (head_ == cur_.tail) return false;
        line = {begin, cur_.tail - head_};
        head_ = cur_.tail;
        break;
      }
      refill();
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++lineno_;
    return true;
  }

  /// Lines handed out by next_line.
  std::size_t lineno() const { return lineno_; }

  /// Every complete line the window holds (refilling first when it holds
  /// none), ending with its '\n' — or with the stream's last bytes once
  /// the stream is exhausted. Empty when nothing is left.
  std::string_view take_lines() {
    for (;;) {
      const std::string_view held(cur_.data() + head_, cur_.tail - head_);
      const std::size_t last = cur_.eof ? held.size() : held.rfind('\n');
      if (last != std::string_view::npos) {
        const std::size_t n = cur_.eof ? held.size() : last + 1;
        head_ += n;
        return held.substr(0, n);
      }
      refill();
    }
  }

  /// Read the next window into the second buffer: the unread tail of
  /// this one, then fresh bytes. A tail that fills the whole window (a
  /// line longer than it) doubles the window. Touches nothing take_lines
  /// handed out.
  void read_ahead() {
    if (cur_.eof) return;  // take_lines hands out the rest from cur_
    const std::size_t carry = cur_.tail - head_;
    const std::size_t size = std::max(
        kWindowBytes, carry == cur_.size() ? 2 * carry : cur_.size());
    if (next_.size() < size) next_ = Buffer(size);
    std::memcpy(next_.data(), cur_.data() + head_, carry);
    next_.tail = carry;
    fill(next_);
    ahead_ = true;
  }

  /// Continue in the buffer read_ahead filled (when it ran).
  void advance() {
    if (!ahead_) return;
    std::swap(cur_, next_);
    head_ = 0;
    ahead_ = false;
  }

 private:
  static constexpr std::size_t kWindowBytes = kBlockBytes * kBlocksPerWindow;

  struct Buffer {
    explicit Buffer(std::size_t n = 0)
        : bytes(std::make_unique_for_overwrite<char[]>(n)), capacity(n) {}
    char* data() const { return bytes.get(); }
    std::size_t size() const { return capacity; }
    std::unique_ptr<char[]> bytes;
    std::size_t capacity = 0;
    std::size_t tail = 0;  // end of the valid bytes
    bool eof = false;      // the stream is exhausted
  };

  /// Read into `b` after its `tail` valid bytes, up to its size.
  void fill(Buffer& b) {
    in_.read(b.data() + b.tail, static_cast<std::streamsize>(b.size() - b.tail));
    b.tail += static_cast<std::size_t>(in_.gcount());
    if (!in_) b.eof = true;  // short read: the stream is exhausted
  }

  /// More bytes when the current window holds no complete line.
  void refill() {
    read_ahead();
    advance();
  }

  std::istream& in_;
  Buffer cur_;            // empty until the first refill
  Buffer next_;
  std::size_t head_ = 0;  // start of the unread bytes in cur_
  bool ahead_ = false;    // next_ holds the next window
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

/// from_chars path for one `r c [v]` entry line (one trailing '\r'
/// already stripped). Returns false on anything unusual (sign prefixes,
/// trailing tokens, locale oddities); the caller then retries the
/// original istream path, so the accepted grammar is unchanged. Both
/// parsers produce correctly rounded doubles, so the values are
/// bitwise-identical either way.
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

/// An unsigned decimal of at most 18 digits (so it cannot overflow),
/// or nullptr.
const char* read_index(const char* p, const char* end, index_t& out) {
  const char* const start = p;
  std::uint64_t x = 0;
  while (p < end && static_cast<unsigned char>(*p - '0') < 10) {
    x = x * 10 + static_cast<std::uint64_t>(*p - '0');
    ++p;
  }
  if (p == start || p - start > 18) return nullptr;
  out = static_cast<index_t>(x);
  return p;
}

/// The common entry line, parsed in place from `p` (past its leading
/// blanks): unsigned indices, the value after blanks, then blanks, an
/// optional '\r' and the line's end. Returns the start of the next line,
/// or nullptr for any other shape. Every line it accepts parse_entry_fast
/// accepts with the same numbers.
const char* parse_entry_lean(const char* p, const char* end, bool pattern,
                             index_t& r, index_t& c, double& v) {
  const auto blank = [&] { return p < end && (*p == ' ' || *p == '\t'); };
  if ((p = read_index(p, end, r)) == nullptr || !blank()) return nullptr;
  if ((p = read_index(skip_spaces(p, end), end, c)) == nullptr)
    return nullptr;
  if (!pattern) {
    if (!blank()) return nullptr;
    p = skip_spaces(p, end);
    const auto [pv, ec] = std::from_chars(p, end, v);
    if (ec != std::errc{}) return nullptr;
    p = pv;
  }
  p = skip_spaces(p, end);
  if (p < end && *p == '\r') ++p;
  if (p == end) return p;
  return *p == '\n' ? p + 1 : nullptr;
}

/// What the header says about the entries.
struct Shape {
  index_t rows = 0;
  index_t cols = 0;
  bool pattern = false;
  bool symmetric = false;
};

/// One block's parse. Padded to a cache line: blocks on different
/// threads write neighbouring results.
struct alignas(64) BlockResult {
  index_t entries = 0;          // entry lines parsed (before any error)
  index_t blanks = 0;           // blank lines skipped (likewise)
  const char* check = nullptr;  // the failed check, when a line is bad
  std::string error;            // its message, without the line number
};

/// Parse the entry lines of one line-aligned block into `out`, stopping
/// after `limit` entries or at the first bad line. Lines are not counted
/// as they go: an error's line number is derived from the counts.
void parse_block(std::string_view block, const Shape& shape, index_t limit,
                 std::vector<Triplet<double>>& out, BlockResult& res) {
  const char* p = block.data();
  const char* const end = p + block.size();
  index_t entries = 0, blanks = 0;
  while (p < end && entries < limit) {
    const char* const line = p;
    p = skip_spaces(p, end);
    if (p == end || *p == '\n' ||
        (*p == '\r' && (p + 1 == end || p[1] == '\n'))) {
      // Blank (spaces, tabs, one '\r'): tolerated, not an entry.
      p += p < end && *p == '\r';
      p += p < end;
      ++blanks;
      continue;
    }
    index_t r = 0, c = 0;
    double v = 1.0;
    const char* next = parse_entry_lean(p, end, shape.pattern, r, c, v);
    if (next == nullptr) {
      // Anything unusual goes through the general path on the whole line.
      const auto* nl =
          static_cast<const char*>(std::memchr(line, '\n', end - line));
      next = nl != nullptr ? nl + 1 : end;
      std::string_view text(line, (nl != nullptr ? nl : end) - line);
      if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
      if (!parse_entry_fast(text, shape.pattern, r, c, v)) {
        std::istringstream entry{std::string(text)};
        r = 0, c = 0, v = 1.0;
        entry >> r >> c;
        if (!shape.pattern) entry >> v;
        if (entry.fail()) {
          res.check = "!entry.fail()";
          res.error = "malformed entry line: " + std::string(text);
          break;
        }
      }
    }
    if (!(r >= 1 && r <= shape.rows && c >= 1 && c <= shape.cols)) {
      res.check = "r >= 1 && r <= rows && c >= 1 && c <= cols";
      res.error = "entry index out of range";
      break;
    }
    // The MM spec stores symmetric matrices lower-triangular; an entry
    // above the diagonal would silently double after mirroring.
    if (shape.symmetric && r < c) {
      res.check = "!symmetric || r >= c";
      res.error = "symmetric entry above the diagonal";
      break;
    }
    out.push_back({r - 1, c - 1, v});
    if (shape.symmetric && r != c) out.push_back({c - 1, r - 1, v});
    ++entries;
    p = next;
  }
  res.entries = entries;
  res.blanks = blanks;
}

/// Split a region of complete lines into blocks of about kBlockBytes,
/// each ending at a line end (a line longer than a block is one block).
void split_blocks(std::string_view region,
                  std::vector<std::string_view>& blocks) {
  blocks.clear();
  while (!region.empty()) {
    std::size_t n = region.size();
    if (n > kBlockBytes) {
      const std::size_t nl = region.find('\n', kBlockBytes - 1);
      if (nl != std::string_view::npos) n = nl + 1;
    }
    blocks.push_back(region.substr(0, n));
    region.remove_prefix(n);
  }
}

/// Keep the triplets of a block's first `n` entry lines (a symmetric
/// off-diagonal entry holds two).
void keep_entries(std::vector<Triplet<double>>& triplets, index_t n,
                  bool symmetric) {
  std::size_t k = static_cast<std::size_t>(n);
  if (symmetric) {
    k = 0;
    for (index_t i = 0; i < n; ++i)
      k += triplets[k].row != triplets[k].col ? 2 : 1;
  }
  triplets.resize(k);
}

/// Parse the banner, dimensions and entries into triplets in file order
/// (symmetric entries mirrored). The windows are freed on return, before
/// the CSR build allocates its arrays.
std::vector<Triplet<double>> read_entries(std::istream& in, ThreadPool* pool,
                                          Shape& shape) {
  Window window(in);
  std::string_view line;
  SPMVML_ENSURE_CAT(window.next_line(line), ErrorCategory::kParse,
                    "empty Matrix Market stream");
  std::istringstream header{std::string(line)};
  std::string banner, object, fmt, field, symmetry;
  header >> banner >> object >> fmt >> field >> symmetry;
  SPMVML_ENSURE_CAT(banner == "%%MatrixMarket", ErrorCategory::kParse,
                    "missing %%MatrixMarket banner" + at_line(window.lineno()));
  SPMVML_ENSURE_CAT(lowercase(object) == "matrix", ErrorCategory::kParse,
                    "only 'matrix' objects supported" +
                        at_line(window.lineno()));
  SPMVML_ENSURE_CAT(lowercase(fmt) == "coordinate", ErrorCategory::kParse,
                    "only 'coordinate' (sparse) format supported" +
                        at_line(window.lineno()));
  field = lowercase(field);
  symmetry = lowercase(symmetry);
  shape.pattern = field == "pattern";
  SPMVML_ENSURE_CAT(shape.pattern || field == "real" || field == "integer",
                    ErrorCategory::kParse,
                    "unsupported field type: " + field +
                        at_line(window.lineno()));
  shape.symmetric = symmetry == "symmetric";
  SPMVML_ENSURE_CAT(shape.symmetric || symmetry == "general",
                    ErrorCategory::kParse,
                    "unsupported symmetry: " + symmetry +
                        at_line(window.lineno()));

  // Skip comments and blank lines before the dimensions line.
  bool have_dims = false;
  while (window.next_line(line)) {
    if (is_blank(line) || line[line.find_first_not_of(" \t")] == '%') continue;
    have_dims = true;
    break;
  }
  SPMVML_ENSURE_CAT(have_dims, ErrorCategory::kParse,
                    "missing dimensions line" + at_line(window.lineno()));
  std::istringstream dims{std::string(line)};
  index_t declared_nnz = 0;
  dims >> shape.rows >> shape.cols >> declared_nnz;
  SPMVML_ENSURE_CAT(!dims.fail() && shape.rows > 0 && shape.cols > 0 &&
                        declared_nnz >= 0,
                    ErrorCategory::kParse,
                    "bad dimensions line" + at_line(window.lineno()));
  SPMVML_ENSURE_CAT(!shape.symmetric || shape.rows == shape.cols,
                    ErrorCategory::kParse,
                    "symmetric matrix must be square" +
                        at_line(window.lineno()));

  // Exactly `declared_nnz` non-blank entry lines are read; nothing after
  // them is looked at. Each window's blocks parse independently (on the
  // pool when one is given) and are then taken in file order, so the
  // first error in the file wins and a bad line past the last entry is
  // ignored.
  std::vector<Triplet<double>> entries;
  // Cap the speculative reserve: the declared nnz is untrusted input and
  // a hostile header must fail on its missing entries (kParse), not on a
  // giant up-front allocation. The vector still grows as real entries
  // arrive.
  constexpr std::size_t kReserveCap = std::size_t{1} << 20;
  entries.reserve(std::min<std::size_t>(
      static_cast<std::size_t>(declared_nnz) * (shape.symmetric ? 2 : 1),
      kReserveCap));
  std::vector<std::string_view> blocks;
  std::vector<std::vector<Triplet<double>>> parsed;  // per block, reused
  std::vector<BlockResult> results;
  std::size_t lineno = window.lineno();  // lines before the window
  index_t remaining = declared_nnz;
  while (remaining > 0) {
    const std::string_view region = window.take_lines();
    SPMVML_ENSURE_CAT(!region.empty(), ErrorCategory::kParse,
                      "fewer entries than declared" + at_line(lineno));
    split_blocks(region, blocks);
    if (parsed.size() < blocks.size()) parsed.resize(blocks.size());
    results.assign(blocks.size(), BlockResult{});
    // Index 0 reads the next window ahead while the blocks (1..n) parse;
    // the caller claims it first, as helpers take a moment to wake.
    const auto step = [&](std::int64_t k) {
      if (k == 0) {
        window.read_ahead();
        return;
      }
      // Fill a local vector: the neighbouring headers in `parsed` belong
      // to blocks other threads parse, so each is written once per block,
      // not once per entry.
      const auto i = static_cast<std::size_t>(k - 1);
      std::vector<Triplet<double>> out = std::move(parsed[i]);
      out.clear();
      parse_block(blocks[i], shape, remaining, out, results[i]);
      parsed[i] = std::move(out);
    };
    const auto steps = static_cast<std::int64_t>(blocks.size()) + 1;
    if (pool != nullptr && blocks.size() > 1)
      pool->cooperative_for(steps, step);
    else
      for (std::int64_t k = 0; k < steps; ++k) step(k);
    window.advance();

    // Take the blocks in file order.
    for (std::size_t i = 0; i < blocks.size() && remaining > 0; ++i) {
      const BlockResult& res = results[i];
      if (res.entries >= remaining) {
        keep_entries(parsed[i], remaining, shape.symmetric);
        remaining = 0;
      } else {
        lineno += static_cast<std::size_t>(res.entries + res.blanks);
        if (res.check != nullptr)
          detail::raise(res.check, __FILE__, __LINE__,
                        res.error + at_line(lineno + 1),
                        ErrorCategory::kParse);
        remaining -= res.entries;
      }
      entries.insert(entries.end(), parsed[i].begin(), parsed[i].end());
    }
  }
  return entries;
}

}  // namespace

Csr<double> read_matrix_market(std::istream& in, ThreadPool* pool) {
  Shape shape;
  auto entries = read_entries(in, pool, shape);
  return Csr<double>::from_triplets(shape.rows, shape.cols,
                                    std::move(entries));
}

Csr<double> read_matrix_market(const std::string& path, ThreadPool* pool) {
  std::ifstream in(path);
  SPMVML_ENSURE_CAT(in.good(), ErrorCategory::kIo, "cannot open " + path);
  return read_matrix_market(in, pool);
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
