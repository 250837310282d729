// Matrix Market (.mtx) I/O — the interchange format of the SuiteSparse
// collection the paper's corpus comes from.
//
// Supports `matrix coordinate {real,integer,pattern} {general,symmetric}`.
// Symmetric inputs are expanded to full storage on read (off-diagonal
// entries mirrored), matching how SpMV studies consume SuiteSparse files.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace spmvml {

/// Read a Matrix Market file into CSR. Throws spmvml::Error on malformed
/// input or unsupported qualifiers (complex, array, skew/hermitian).
/// Duplicate entries are summed in file order. Reading stops after the
/// declared number of entries; the file is read through a fixed-size
/// buffer, never held whole in memory.
Csr<double> read_matrix_market(const std::string& path);

/// Stream variant (unit-testable without touching the filesystem). It
/// reads ahead by up to one buffer, so the stream position afterwards is
/// past the last entry.
Csr<double> read_matrix_market(std::istream& in);

/// Write CSR as `matrix coordinate real general` with 1-based indices.
void write_matrix_market(const std::string& path, const Csr<double>& m);
void write_matrix_market(std::ostream& out, const Csr<double>& m);

}  // namespace spmvml
