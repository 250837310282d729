#include "serve/matrix_cache.hpp"

#include <filesystem>
#include <future>
#include <utility>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "sparse/csr_binary.hpp"
#include "sparse/mmio.hpp"

namespace spmvml::serve {

namespace {

// One cached handle per counter name: registry lookup happens once, the
// hot path only bumps the shared atomic (same pattern as feature_cache).
#define SPMVML_INGEST_COUNTER(fn, name)                                  \
  obs::Counter& fn() {                                                   \
    static obs::Counter c =                                              \
        obs::MetricsRegistry::global().counter("serve.ingest." name);    \
    return c;                                                            \
  }
SPMVML_INGEST_COUNTER(hit_counter, "hit")
SPMVML_INGEST_COUNTER(miss_counter, "miss")
SPMVML_INGEST_COUNTER(evict_counter, "evict")
SPMVML_INGEST_COUNTER(oversize_counter, "oversize")
SPMVML_INGEST_COUNTER(parse_counter, "parse")
SPMVML_INGEST_COUNTER(sidecar_counter, "sidecar")
SPMVML_INGEST_COUNTER(coalesced_counter, "coalesced")
#undef SPMVML_INGEST_COUNTER

/// Host memory the cached CSR pins: row_ptr + col_idx (index_t each) plus
/// the values. This is what the --ingest-cache-mb budget meters — the
/// resident footprint, not the 4-byte-index device estimate Csr::bytes()
/// models.
std::size_t host_bytes(const Csr<double>& m) {
  const auto rows = static_cast<std::size_t>(m.rows());
  const auto nnz = static_cast<std::size_t>(m.nnz());
  return (rows + 1 + nnz) * sizeof(index_t) + nnz * sizeof(double);
}

}  // namespace

/// One in-progress parse; every coalesced waiter blocks on the future.
struct MatrixCache::Flight {
  std::promise<View> promise;
  std::shared_future<View> future{promise.get_future().share()};
};

MatrixCache::MatrixCache(std::size_t budget_bytes, int shards) {
  if (budget_bytes == 0) return;  // disabled: no shards, every get misses
  const auto n = static_cast<std::size_t>(shards < 1 ? 1 : shards);
  shard_budget_ = (budget_bytes + n - 1) / n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

MatrixCache::Shard& MatrixCache::shard_for(std::uint64_t key) {
  return *shards_[key % shards_.size()];
}

std::optional<MatrixCache::FileId> MatrixCache::file_identity(
    const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  FileId id;
  const auto size = fs::file_size(path, ec);
  if (ec) return std::nullopt;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) return std::nullopt;
  id.size = static_cast<std::uint64_t>(size);
  id.mtime_ns = static_cast<std::int64_t>(mtime.time_since_epoch().count());
  if (!is_csr_binary_path(path)) {
    const std::string side = csr_sidecar_path(path);
    const auto sside = fs::file_size(side, ec);
    if (!ec) {
      const auto smtime = fs::last_write_time(side, ec);
      if (!ec) {
        id.sidecar_size = static_cast<std::uint64_t>(sside);
        id.sidecar_mtime_ns =
            static_cast<std::int64_t>(smtime.time_since_epoch().count());
      }
    }
  }
  return id;
}

std::optional<std::uint64_t> MatrixCache::resolve_key(const std::string& path) {
  const auto id = file_identity(path);
  if (!id) return std::nullopt;
  std::lock_guard<std::mutex> lock(stat_mu_);
  const auto it = stat_cache_.find(path);
  if (it == stat_cache_.end() || !(it->second.id == *id)) return std::nullopt;
  return it->second.key;
}

std::optional<std::shared_ptr<const Csr<double>>> MatrixCache::get(
    std::uint64_t key) {
  if (shards_.empty()) {
    miss_counter().inc();
    return std::nullopt;
  }
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.misses;
    miss_counter().inc();
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to front
  ++s.hits;
  hit_counter().inc();
  return it->second->second.matrix;
}

void MatrixCache::put(std::uint64_t key,
                      std::shared_ptr<const Csr<double>> matrix) {
  if (shards_.empty()) return;
  const std::size_t bytes = host_bytes(*matrix);
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  if (bytes > shard_budget_) {
    // Caching it would evict the whole shard for one entry; serve the
    // borrowed view uncached instead.
    ++s.oversize;
    oversize_counter().inc();
    return;
  }
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    s.bytes -= it->second->second.bytes;
    it->second->second = Entry{std::move(matrix), bytes};
    s.bytes += bytes;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  while (!s.lru.empty() && s.bytes + bytes > shard_budget_) {
    // Eviction only drops the cache's reference: a batch holding a
    // borrowed view keeps the matrix alive until it finishes.
    s.bytes -= s.lru.back().second.bytes;
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    ++s.evictions;
    evict_counter().inc();
  }
  s.lru.emplace_front(key, Entry{std::move(matrix), bytes});
  s.index[key] = s.lru.begin();
  s.bytes += bytes;
}

MatrixCache::View MatrixCache::parse(const std::string& path,
                                     const FileId& id, ThreadPool* pool) {
  obs::TraceSpan span("serve.ingest.parse");
  span.arg("path", std::string_view(path));
  View view;
  Csr<double> matrix;
  if (is_csr_binary_path(path)) {
    matrix = read_csr_binary(path);
    view.sidecar = true;
  } else if (id.sidecar_size != 0 && id.sidecar_mtime_ns >= id.mtime_ns) {
    // Sidecar exists and is no older than the text: bulk-read it, but a
    // corrupt or truncated sidecar degrades to the text parse instead of
    // failing a request the .mtx could still serve.
    try {
      matrix = read_csr_binary(csr_sidecar_path(path));
      view.sidecar = true;
    } catch (const Error&) {
      matrix = read_matrix_market(path, pool);
    }
  } else {
    matrix = read_matrix_market(path, pool);
  }
  parses_.fetch_add(1, std::memory_order_relaxed);
  parse_counter().inc();
  span.arg("sidecar", static_cast<int>(view.sidecar));
  if (view.sidecar) {
    sidecar_loads_.fetch_add(1, std::memory_order_relaxed);
    sidecar_counter().inc();
  }
  view.key = matrix_content_hash(matrix);
  view.matrix = std::make_shared<const Csr<double>>(std::move(matrix));
  return view;
}

std::optional<MatrixCache::View> MatrixCache::cached_view(std::uint64_t key) {
  auto cached = get(key);
  if (!cached) return std::nullopt;
  View view;
  view.matrix = std::move(*cached);
  view.key = key;
  view.cache_hit = true;
  return view;
}

MatrixCache::View MatrixCache::load(const std::string& path,
                                    ThreadPool* pool) {
  // Fast path: stat-cache key + LRU hit — no file opened at all.
  const std::optional<std::uint64_t> known = resolve_key(path);
  if (known)
    if (auto view = cached_view(*known)) return std::move(*view);

  // Miss (or unknown file): single-flight on the path. The first comer
  // parses; everyone else waits on its future and shares the result —
  // including a thrown Error, which is never cached.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto& slot = flights_[path];
    if (slot == nullptr) {
      slot = std::make_shared<Flight>();
      leader = true;
    }
    flight = slot;
  }
  if (!leader) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    coalesced_counter().inc();
    return flight->future.get();  // rethrows the leader's Error, if any
  }
  try {
    // A flight on this path that finished after the fast-path check has
    // already published its key; serve that instead of parsing again.
    std::optional<View> view;
    if (!known)
      if (const auto key = resolve_key(path)) view = cached_view(*key);
    if (!view) {
      // Stat again inside the flight (the earlier stat may have failed —
      // that failure must surface as the reader's kIo, not silently).
      const auto fresh = file_identity(path);
      view = parse(path, fresh.value_or(FileId{}), pool);
      put(view->key, view->matrix);
      if (fresh) {
        std::lock_guard<std::mutex> lock(stat_mu_);
        stat_cache_[path] = StatEntry{*fresh, view->key};
      }
    }
    flight->promise.set_value(*view);
    {
      std::lock_guard<std::mutex> lock(flight_mu_);
      flights_.erase(path);
    }
    return std::move(*view);
  } catch (...) {
    flight->promise.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(flight_mu_);
      flights_.erase(path);
    }
    throw;
  }
}

MatrixCache::Stats MatrixCache::stats() const {
  Stats out;
  out.budget_bytes = shard_budget_ * shards_.size();
  out.parses = parses_.load(std::memory_order_relaxed);
  out.sidecar_loads = sidecar_loads_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    out.hits += s->hits;
    out.misses += s->misses;
    out.evictions += s->evictions;
    out.oversize += s->oversize;
    out.entries += s->lru.size();
    out.bytes += s->bytes;
  }
  obs::MetricsRegistry::global().gauge("serve.ingest.bytes").set(
      static_cast<double>(out.bytes));
  return out;
}

}  // namespace spmvml::serve
