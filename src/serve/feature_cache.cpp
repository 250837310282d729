#include "serve/feature_cache.hpp"

#include "common/hash.hpp"
#include "common/obs/metrics.hpp"
#include "common/rng.hpp"

namespace spmvml::serve {

namespace {

// Cache-wide counters live in the global registry (serve.cache.*) so the
// --report summary and the serving bench see hit ratios without plumbing;
// the per-shard integers back FeatureCache::stats() for tests.
obs::Counter& hit_counter() {
  static obs::Counter c = obs::MetricsRegistry::global().counter("serve.cache.hit");
  return c;
}
obs::Counter& miss_counter() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("serve.cache.miss");
  return c;
}
obs::Counter& evict_counter() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("serve.cache.evict");
  return c;
}

}  // namespace

std::uint64_t matrix_content_hash(const Csr<double>& m) {
  std::uint64_t h = 0x5eed5eed5eed5eedULL;
  h = hash_combine(h, static_cast<std::uint64_t>(m.rows()));
  h = hash_combine(h, static_cast<std::uint64_t>(m.cols()));
  h = hash_combine(h, static_cast<std::uint64_t>(m.nnz()));
  h = hash_bytes(m.row_ptr().data(), m.row_ptr().size_bytes(), h);
  h = hash_bytes(m.col_idx().data(), m.col_idx().size_bytes(), h);
  return hash_bytes(m.values().data(), m.values().size_bytes(), h);
}

FeatureCache::FeatureCache(std::size_t capacity, int shards) {
  const auto n = static_cast<std::size_t>(shards < 1 ? 1 : shards);
  if (capacity == 0) return;  // disabled: no shards, every get misses
  const std::size_t used = capacity < n ? capacity : n;
  shard_capacity_ = (capacity + used - 1) / used;
  shards_.reserve(used);
  for (std::size_t i = 0; i < used; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

FeatureCache::Shard& FeatureCache::shard_for(std::uint64_t key) {
  return *shards_[key % shards_.size()];
}

std::optional<CachedFeatures> FeatureCache::get(std::uint64_t key) {
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
  return it->second->second;
}

void FeatureCache::put(std::uint64_t key, const CachedFeatures& value) {
  if (shards_.empty()) return;
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    it->second->second = value;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= shard_capacity_) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    ++s.evictions;
    evict_counter().inc();
  }
  s.lru.emplace_front(key, value);
  s.index[key] = s.lru.begin();
}

FeatureCache::Stats FeatureCache::stats() const {
  Stats out;
  out.capacity = shard_capacity_ * shards_.size();
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    out.hits += s->hits;
    out.misses += s->misses;
    out.evictions += s->evictions;
    out.size += s->lru.size();
  }
  obs::MetricsRegistry::global().gauge("serve.cache.size").set(
      static_cast<double>(out.size));
  return out;
}

}  // namespace spmvml::serve
