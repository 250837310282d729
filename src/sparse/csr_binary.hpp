// Binary CSR sidecar format (`.spmvml-csr`) — the zero-parse ingest path
// of the serving subsystem.
//
// Matrix Market text is the interchange format, but parsing it costs a
// number conversion per entry plus a CSR build — several times more than
// the SpMV it feeds. A sidecar file stores the already-canonical CSR
// arrays raw, wrapped in a checksummed one-line envelope in the same
// spirit as the model-file envelope (ml/serialize):
//
//   spmvml-csr 2 <rows> <cols> <nnz> <payload_bytes> <hash-hex>\n
//   <row_ptr bytes><col_idx bytes><values bytes>
//
// The envelope line is read with a 256-byte bound. payload_bytes catches
// truncation before any allocation; the checksum — hash_bytes
// (common/hash.hpp), the word-parallel hash, chained over the three
// arrays — catches bit rot and hand edits, and any single-word change
// always changes it; the loader still runs Csr::validate(), so a
// corrupt-but-checksummed file can never smuggle broken invariants into
// the kernels. All failures throw Error(kParse) (kIo when the file cannot
// be opened), and the serving ingest path falls back to the Matrix Market
// text transparently. Version 1 files (FNV-1a checksum) fail the version
// check, so they take that fallback; `spmvml sidecar` rewrites them.
//
// Arrays are written in host byte order (the format is a cache artifact
// produced and consumed on the same machine, not an interchange format).
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace spmvml {

inline constexpr const char* kCsrBinaryMagic = "spmvml-csr";
inline constexpr int kCsrBinaryVersion = 2;
/// Sidecar naming convention: `<matrix>.mtx` -> `<matrix>.mtx.spmvml-csr`.
inline constexpr const char* kCsrSidecarSuffix = ".spmvml-csr";

/// Write `m` as a checksummed binary CSR file.
void write_csr_binary(const std::string& path, const Csr<double>& m);
void write_csr_binary(std::ostream& out, const Csr<double>& m);

/// Read a binary CSR file; the result is bitwise-identical to the Csr
/// that was written. Throws Error(kParse) on any envelope, checksum, or
/// structural-invariant violation; Error(kIo) when the file cannot be
/// opened.
Csr<double> read_csr_binary(const std::string& path);
Csr<double> read_csr_binary(std::istream& in);

/// Sidecar path for a matrix path (append kCsrSidecarSuffix).
std::string csr_sidecar_path(const std::string& matrix_path);

/// True when `path` itself names a binary CSR file (by suffix).
bool is_csr_binary_path(const std::string& path);

}  // namespace spmvml
