#include "sparse/csr_binary.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace spmvml {
namespace {

/// Longest envelope line accepted. The writer's is under 120 bytes; the
/// bound keeps a hostile file from streaming an unbounded token into
/// memory before the magic is even checked.
constexpr std::size_t kMaxHeaderBytes = 256;

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

template <typename T>
std::size_t bytes_of(const std::span<const T> s) {
  return s.size() * sizeof(T);
}

/// Checksum over the three arrays, chained so no contiguous payload copy
/// is ever materialized.
std::uint64_t payload_hash(std::span<const index_t> row_ptr,
                           std::span<const index_t> col_idx,
                           std::span<const double> values) {
  std::uint64_t h = hash_bytes(row_ptr.data(), bytes_of(row_ptr));
  h = hash_bytes(col_idx.data(), bytes_of(col_idx), h);
  return hash_bytes(values.data(), bytes_of(values), h);
}

/// Next space-separated token of `rest` (empty when none is left).
std::string_view next_token(std::string_view& rest) {
  const std::size_t begin = rest.find_first_not_of(' ');
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(begin);
  const std::size_t end = std::min(rest.find(' '), rest.size());
  const std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end);
  return token;
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [p, ec] = std::from_chars(token.data(), end, out);
  return !token.empty() && ec == std::errc{} && p == end;
}

}  // namespace

std::string csr_sidecar_path(const std::string& matrix_path) {
  return matrix_path + kCsrSidecarSuffix;
}

bool is_csr_binary_path(const std::string& path) {
  const std::string suffix = kCsrSidecarSuffix;
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void write_csr_binary(std::ostream& out, const Csr<double>& m) {
  const auto row_ptr = m.row_ptr();
  const auto col_idx = m.col_idx();
  const auto values = m.values();
  const std::size_t payload_bytes =
      bytes_of(row_ptr) + bytes_of(col_idx) + bytes_of(values);
  out << kCsrBinaryMagic << ' ' << kCsrBinaryVersion << ' ' << m.rows() << ' '
      << m.cols() << ' ' << m.nnz() << ' ' << payload_bytes << ' '
      << hex16(payload_hash(row_ptr, col_idx, values)) << '\n';
  out.write(reinterpret_cast<const char*>(row_ptr.data()),
            static_cast<std::streamsize>(bytes_of(row_ptr)));
  out.write(reinterpret_cast<const char*>(col_idx.data()),
            static_cast<std::streamsize>(bytes_of(col_idx)));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(bytes_of(values)));
}

void write_csr_binary(const std::string& path, const Csr<double>& m) {
  std::ofstream out(path, std::ios::binary);
  SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo,
                    "cannot open " + path + " for writing");
  write_csr_binary(out, m);
  SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo, "write failed for " + path);
}

Csr<double> read_csr_binary(std::istream& in) {
  char line[kMaxHeaderBytes + 1] = {};
  in.getline(line, sizeof line);
  // good() only when the newline was found within the bound.
  const bool terminated = in.good();
  std::string_view rest(line, static_cast<std::size_t>(in.gcount()) -
                                  (terminated ? 1 : 0));
  SPMVML_ENSURE_CAT(next_token(rest) == kCsrBinaryMagic, ErrorCategory::kParse,
                    "not a binary CSR file (missing '" +
                        std::string(kCsrBinaryMagic) + "' magic)");
  int version = 0;
  index_t rows = 0, cols = 0, nnz = 0;
  std::uint64_t payload_bytes = 0;
  const bool numbers_ok = parse_number(next_token(rest), version) &&
                          parse_number(next_token(rest), rows) &&
                          parse_number(next_token(rest), cols) &&
                          parse_number(next_token(rest), nnz) &&
                          parse_number(next_token(rest), payload_bytes);
  const std::string_view checksum_hex = next_token(rest);
  SPMVML_ENSURE_CAT(numbers_ok && !checksum_hex.empty(), ErrorCategory::kParse,
                    "binary CSR header truncated");
  SPMVML_ENSURE_CAT(version == kCsrBinaryVersion, ErrorCategory::kParse,
                    "unsupported binary CSR version " +
                        std::to_string(version));
  SPMVML_ENSURE_CAT(rows >= 0 && cols >= 0 && nnz >= 0, ErrorCategory::kParse,
                    "binary CSR header has negative dimensions");
  SPMVML_ENSURE_CAT(terminated && next_token(rest).empty(),
                    ErrorCategory::kParse, "binary CSR header is malformed");
  // Cross-check the byte count against the dimensions before trusting
  // either with an allocation: a hostile header must fail on arithmetic,
  // not on memory.
  const std::uint64_t expect_bytes =
      (static_cast<std::uint64_t>(rows) + 1) * sizeof(index_t) +
      static_cast<std::uint64_t>(nnz) * (sizeof(index_t) + sizeof(double));
  SPMVML_ENSURE_CAT(payload_bytes == expect_bytes, ErrorCategory::kParse,
                    "binary CSR header byte count does not match dimensions");
  SPMVML_ENSURE_CAT(payload_bytes < (std::uint64_t{1} << 34),
                    ErrorCategory::kParse,
                    "binary CSR header claims an absurd payload size");

  std::vector<index_t> row_ptr(static_cast<std::size_t>(rows) + 1);
  std::vector<index_t> col_idx(static_cast<std::size_t>(nnz));
  std::vector<double> values(static_cast<std::size_t>(nnz));
  const auto bulk_read = [&in](void* dst, std::size_t n) {
    in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    SPMVML_ENSURE_CAT(static_cast<std::size_t>(in.gcount()) == n,
                      ErrorCategory::kParse,
                      "binary CSR file truncated: payload shorter than the "
                      "header declares");
  };
  bulk_read(row_ptr.data(), row_ptr.size() * sizeof(index_t));
  bulk_read(col_idx.data(), col_idx.size() * sizeof(index_t));
  bulk_read(values.data(), values.size() * sizeof(double));

  SPMVML_ENSURE_CAT(
      hex16(payload_hash(row_ptr, col_idx, values)) == checksum_hex,
      ErrorCategory::kParse, "binary CSR checksum mismatch (corrupt payload)");
  // The canonical constructor re-validates every structural invariant, so
  // a checksummed-but-wrong file (e.g. produced by a buggy writer) still
  // fails closed instead of reaching the kernels.
  try {
    return Csr<double>(rows, cols, std::move(row_ptr), std::move(col_idx),
                       std::move(values));
  } catch (const Error& e) {
    SPMVML_ENSURE_CAT(false, ErrorCategory::kParse,
                      std::string("binary CSR invariant violation: ") +
                          e.what());
  }
  return {};  // unreachable
}

Csr<double> read_csr_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SPMVML_ENSURE_CAT(in.good(), ErrorCategory::kIo, "cannot open " + path);
  return read_csr_binary(in);
}

}  // namespace spmvml
