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

class ThreadPool;  // forward declaration; defined in common/thread_pool.hpp

/// Read a Matrix Market file into CSR. Throws spmvml::Error on malformed
/// input or unsupported qualifiers (complex, array, skew/hermitian); the
/// first bad line in file order is the one reported, with its number.
/// Duplicate entries are summed in file order. Reading stops after the
/// declared number of entries; the file is read through a fixed-size
/// window of line-aligned blocks, never held whole in memory. With a
/// `pool`, each window's blocks are parsed cooperatively by the caller
/// and the pool's idle workers (ThreadPool::cooperative_for); the matrix
/// and any error are the same as without one.
Csr<double> read_matrix_market(const std::string& path,
                               ThreadPool* pool = nullptr);

/// Stream variant (unit-testable without touching the filesystem). It
/// reads ahead by up to two windows, so the stream position afterwards is
/// past the last entry.
Csr<double> read_matrix_market(std::istream& in, ThreadPool* pool = nullptr);

/// Write CSR as `matrix coordinate real general` with 1-based indices.
void write_matrix_market(const std::string& path, const Csr<double>& m);
void write_matrix_market(std::ostream& out, const Csr<double>& m);

}  // namespace spmvml
