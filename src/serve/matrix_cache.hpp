// Zero-copy matrix ingestion for the serving hot path: a content-hash-
// keyed cache of parsed matrices, plus the machinery that makes repeat
// traffic cost no I/O at all.
//
// Three layers (DESIGN.md §5i):
//
//  * Stat cache: path -> (file identity, content key). A request naming a
//    file the service has already ingested resolves its content hash from
//    two stat() calls — no open, no read, no parse. File identity is
//    (size, mtime) of the matrix file and of its sidecar when one was
//    used; any change invalidates the mapping and forces a re-ingest.
//
//  * Materialized-matrix cache: sharded LRU (same contention strategy as
//    the feature cache) holding parsed Csr<double> instances behind
//    shared_ptr. Requests receive *borrowed read-only views*: the
//    shared_ptr refcount pins the matrix, so eviction — or a model
//    hot-swap, which never touches this cache — cannot invalidate an
//    in-flight batch; the storage is freed when the last view drops.
//    Capacity is a byte budget (serve --ingest-cache-mb), split evenly
//    across shards; an entry bigger than its shard's budget is served
//    uncached rather than thrashing the whole shard.
//
//  * Single-flight miss coalescing: concurrent misses on the same path
//    wait on one parse instead of running N duplicate parses. The first
//    comer parses outside any cache lock and publishes through a
//    shared_future; a parse failure propagates the same Error to every
//    waiter and is never negatively cached.
//
// Ingest resolution order for a path P (transparent to the caller):
//   1. P ends in ".spmvml-csr"  -> binary CSR load (errors propagate);
//   2. "P.spmvml-csr" exists and is not older than P -> binary CSR load,
//      falling back to 3 when the sidecar is corrupt;
//   3. Matrix Market text parse of P: line-aligned blocks out of a
//      bounded read window, parsed on the caller's ThreadPool (the
//      serving pool) by the calling worker and any idle workers.
// The content key is always recomputed from the parsed arrays
// (matrix_content_hash), so both routes yield the same key — and the
// same feature-cache entries — for the same matrix.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/feature_cache.hpp"
#include "sparse/csr.hpp"

namespace spmvml {
class ThreadPool;  // forward declaration; defined in common/thread_pool.hpp
}

namespace spmvml::serve {

class MatrixCache {
 public:
  /// A borrowed read-only view of an ingested matrix. Holding it pins the
  /// storage regardless of cache eviction.
  struct View {
    std::shared_ptr<const Csr<double>> matrix;
    std::uint64_t key = 0;   // matrix_content_hash of *matrix
    bool cache_hit = false;  // served from the materialized cache
    bool sidecar = false;    // loaded via the binary sidecar (on parse)
  };

  /// `budget_bytes` of matrix storage across `shards` LRUs (clamped to
  /// >= 1 shard). budget 0 disables caching: every load parses, but
  /// single-flight coalescing still applies.
  explicit MatrixCache(std::size_t budget_bytes, int shards = 8);

  /// Content key for `path` from the stat cache alone (two stat calls,
  /// no reads). nullopt when the path is unknown or the file changed.
  std::optional<std::uint64_t> resolve_key(const std::string& path);

  /// Full ingest: stat-cache + LRU fast path, else single-flight parse.
  /// A text parse runs its blocks cooperatively on `pool` when one is
  /// given (the caller may be one of its workers). Throws Error(kIo/kParse)
  /// exactly like the underlying readers.
  View load(const std::string& path, ThreadPool* pool = nullptr);

  /// Direct cache lookup by content key (refreshes LRU position).
  std::optional<std::shared_ptr<const Csr<double>>> get(std::uint64_t key);

  struct Stats {
    std::uint64_t hits = 0;         // LRU hits (incl. via resolve_key+get)
    std::uint64_t misses = 0;       // LRU misses
    std::uint64_t parses = 0;       // actual loads performed (either route)
    std::uint64_t sidecar_loads = 0;  // parses served by the binary sidecar
    std::uint64_t coalesced = 0;    // loads that waited on another's parse
    std::uint64_t evictions = 0;
    std::uint64_t oversize = 0;     // matrices too big for a shard budget
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t budget_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Csr<double>> matrix;
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used; the map holds iterators into the list.
    std::list<std::pair<std::uint64_t, Entry>> lru;
    std::unordered_map<std::uint64_t,
                       std::list<std::pair<std::uint64_t, Entry>>::iterator>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t oversize = 0;
  };

  /// File identity for stat-cache validity: (size, mtime) of the matrix
  /// file and of the sidecar actually used (0s when none).
  struct FileId {
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;
    std::uint64_t sidecar_size = 0;
    std::int64_t sidecar_mtime_ns = 0;
    bool operator==(const FileId&) const = default;
  };
  struct StatEntry {
    FileId id;
    std::uint64_t key = 0;
  };
  struct Flight;

  Shard& shard_for(std::uint64_t key);
  void put(std::uint64_t key, std::shared_ptr<const Csr<double>> matrix);
  /// Current on-disk identity of `path` (+ its sidecar). nullopt when the
  /// matrix file cannot be statted.
  static std::optional<FileId> file_identity(const std::string& path);
  /// The parse itself: sidecar-or-mmio with transparent fallback.
  View parse(const std::string& path, const FileId& id, ThreadPool* pool);
  /// LRU lookup by content key, as a cache-hit View.
  std::optional<View> cached_view(std::uint64_t key);

  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex stat_mu_;
  std::unordered_map<std::string, StatEntry> stat_cache_;

  std::mutex flight_mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  std::atomic<std::uint64_t> parses_{0};
  std::atomic<std::uint64_t> sidecar_loads_{0};
  std::atomic<std::uint64_t> coalesced_{0};
};

}  // namespace spmvml::serve
