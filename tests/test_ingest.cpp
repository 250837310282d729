// Serving-ingest tests: binary CSR sidecar (bitwise identity with the
// Matrix Market parse, corruption detection, transparent fallback), the
// materialized-matrix cache (borrowed-view pinning under eviction,
// single-flight coalescing, stat-cache invalidation), pool-blocked
// feature extraction identity, and the sharded-dispatch service contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/format_selector.hpp"
#include "features/features.hpp"
#include "serve/feature_cache.hpp"
#include "serve/matrix_cache.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "sparse/csr_binary.hpp"
#include "sparse/mmio.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

using serve::MatrixCache;
using serve::ModelRegistry;
using serve::Request;
using serve::RequestMode;
using serve::Response;
using serve::Service;
using serve::ServiceConfig;

/// Bitwise CSR comparison: dimensions plus raw memcmp over all three
/// arrays — the identity contract the sidecar and the pool extractor
/// both promise.
bool csr_bitwise_equal(const Csr<double>& a, const Csr<double>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz())
    return false;
  const auto arp = a.row_ptr(), brp = b.row_ptr();
  const auto aci = a.col_idx(), bci = b.col_idx();
  const auto av = a.values(), bv = b.values();
  return std::memcmp(arp.data(), brp.data(), arp.size_bytes()) == 0 &&
         std::memcmp(aci.data(), bci.data(), aci.size_bytes()) == 0 &&
         std::memcmp(av.data(), bv.data(), av.size_bytes()) == 0;
}

/// A temp Matrix Market file (plus any sidecar) that removes itself.
struct TempMatrix {
  std::string path;
  TempMatrix(const std::string& name, const GenSpec& spec) : path(name) {
    write_matrix_market(path, generate(spec));
  }
  TempMatrix(const std::string& name, int seed)
      : TempMatrix(name, make_small_plan(1, seed).specs[0]) {}
  ~TempMatrix() {
    std::remove(path.c_str());
    std::remove(csr_sidecar_path(path).c_str());
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Sidecar bitwise identity --------------------------------------------

TEST(IngestSidecar, BitwiseIdenticalToMmioAcrossFamilies) {
  // Differential fuzz across every generator family: the sidecar round
  // trip must reproduce the text-parsed CSR bit for bit — same arrays,
  // same content hash, same feature-cache key.
  for (int fam = 0; fam <= static_cast<int>(MatrixFamily::kGeomGraph);
       ++fam) {
    GenSpec spec;
    spec.family = static_cast<MatrixFamily>(fam);
    spec.rows = spec.cols = 400;
    spec.seed = 100 + static_cast<std::uint64_t>(fam);
    TempMatrix file("test_ingest_fam" + std::to_string(fam) + ".tmp.mtx",
                    spec);
    const Csr<double> text = read_matrix_market(file.path);
    const std::string side = csr_sidecar_path(file.path);
    write_csr_binary(side, text);
    const Csr<double> binary = read_csr_binary(side);
    EXPECT_TRUE(csr_bitwise_equal(text, binary)) << "family " << fam;
    EXPECT_EQ(serve::matrix_content_hash(text),
              serve::matrix_content_hash(binary));
  }
}

TEST(IngestSidecar, CorruptionSweepIsAlwaysDetected) {
  TempMatrix file("test_ingest_corrupt.tmp.mtx", 7);
  const Csr<double> m = read_matrix_market(file.path);
  const std::string side = csr_sidecar_path(file.path);
  write_csr_binary(side, m);
  const std::string good = read_file(side);
  ASSERT_FALSE(good.empty());

  // Truncation at several depths (header, mid-payload, last byte).
  for (const std::size_t keep :
       {std::size_t{4}, good.size() / 2, good.size() - 1}) {
    write_file(side, good.substr(0, keep));
    EXPECT_THROW(read_csr_binary(side), Error) << "truncated to " << keep;
  }
  // Single bit flip in the payload trips the checksum.
  {
    std::string bad = good;
    bad[bad.size() - 3] = static_cast<char>(bad[bad.size() - 3] ^ 0x10);
    write_file(side, bad);
    EXPECT_THROW(read_csr_binary(side), Error);
  }
  // Wrong magic is rejected before any allocation.
  {
    std::string bad = good;
    bad[0] = 'X';
    write_file(side, bad);
    EXPECT_THROW(read_csr_binary(side), Error);
  }
  // Restore and confirm the good bytes still load.
  write_file(side, good);
  EXPECT_TRUE(csr_bitwise_equal(read_csr_binary(side), m));

  // One bit flipped in every 8-byte word of row_ptr, col_idx and values
  // of a small sidecar: the words land in all four hash lanes, and a
  // change to any single word must always change the checksum.
  GenSpec spec;
  spec.family = MatrixFamily::kUniformRandom;
  spec.rows = spec.cols = 48;
  spec.seed = 5;
  const Csr<double> small = generate(spec);
  std::ostringstream out;
  write_csr_binary(out, small);
  const std::string small_good = out.str();
  const std::size_t payload = small_good.find('\n') + 1;
  const std::size_t words = (small_good.size() - payload) / 8;
  ASSERT_EQ(words * 8, small_good.size() - payload);
  ASSERT_EQ(words,
            static_cast<std::size_t>(small.rows() + 1 + 2 * small.nnz()));
  for (std::size_t w = 0; w < words; ++w) {
    std::string bad = small_good;
    const std::size_t bit = (w * 13) % 64;
    char& byte = bad[payload + 8 * w + bit / 8];
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    std::istringstream in(bad);
    try {
      read_csr_binary(in);
      ADD_FAILURE() << "flip in payload word " << w << " went undetected";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kParse) << "word " << w;
    }
  }
}

TEST(IngestSidecar, HeaderReadIsBounded) {
  // 16 MiB without a newline or a space: the envelope read stops at its
  // bound and the file fails the magic check, with no giant token read.
  const std::string junk(std::size_t{16} << 20, 'x');
  const std::string path = "test_ingest_huge.tmp.spmvml-csr";
  write_file(path, junk);
  try {
    read_csr_binary(path);
    ADD_FAILURE() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse);
  }
  std::remove(path.c_str());

  std::istringstream in(junk);
  EXPECT_THROW(read_csr_binary(in), Error);
  EXPECT_LE(in.rdbuf()->pubseekoff(0, std::ios::cur, std::ios::in), 257);
}

TEST(IngestSidecar, CacheFallsBackToTextOnOldVersion) {
  // A version-1 envelope (the old FNV-1a checksum) is refused, and the
  // cache serves the text parse instead.
  TempMatrix file("test_ingest_v1.tmp.mtx", 17);
  const Csr<double> expect = read_matrix_market(file.path);
  const std::string side = csr_sidecar_path(file.path);
  write_csr_binary(side, expect);
  std::string v1 = read_file(side);
  const std::string v2_prefix = std::string(kCsrBinaryMagic) + " 2 ";
  ASSERT_EQ(v1.compare(0, v2_prefix.size(), v2_prefix), 0);
  v1[v2_prefix.size() - 2] = '1';
  write_file(side, v1);
  try {
    read_csr_binary(side);
    ADD_FAILURE() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse);
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }

  MatrixCache cache(64 << 20, /*shards=*/1);
  const MatrixCache::View v = cache.load(file.path);
  EXPECT_FALSE(v.sidecar);
  EXPECT_TRUE(csr_bitwise_equal(*v.matrix, expect));
  EXPECT_EQ(cache.stats().sidecar_loads, 0u);
  EXPECT_EQ(cache.stats().parses, 1u);
}

TEST(IngestSidecar, CacheFallsBackToTextWhenSidecarCorrupt) {
  TempMatrix file("test_ingest_fallback.tmp.mtx", 11);
  const Csr<double> expect = read_matrix_market(file.path);
  const std::string side = csr_sidecar_path(file.path);
  write_csr_binary(side, expect);
  std::string bad = read_file(side);
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  write_file(side, bad);

  MatrixCache cache(64 << 20, /*shards=*/1);
  const MatrixCache::View v = cache.load(file.path);
  EXPECT_TRUE(csr_bitwise_equal(*v.matrix, expect));
  EXPECT_FALSE(v.sidecar);  // corrupt sidecar -> transparent text parse
  EXPECT_EQ(cache.stats().sidecar_loads, 0u);
  EXPECT_EQ(cache.stats().parses, 1u);
}

TEST(IngestSidecar, CacheUsesFreshSidecar) {
  TempMatrix file("test_ingest_sidecar.tmp.mtx", 13);
  const Csr<double> expect = read_matrix_market(file.path);
  write_csr_binary(csr_sidecar_path(file.path), expect);

  MatrixCache cache(64 << 20, /*shards=*/1);
  const MatrixCache::View v = cache.load(file.path);
  EXPECT_TRUE(v.sidecar);
  EXPECT_TRUE(csr_bitwise_equal(*v.matrix, expect));
  EXPECT_EQ(v.key, serve::matrix_content_hash(expect));
  EXPECT_EQ(cache.stats().sidecar_loads, 1u);
}

// --- Matrix cache ---------------------------------------------------------

TEST(IngestCache, RepeatLoadHitsWithoutReparse) {
  TempMatrix file("test_ingest_repeat.tmp.mtx", 21);
  MatrixCache cache(64 << 20, /*shards=*/1);
  const MatrixCache::View first = cache.load(file.path);
  EXPECT_FALSE(first.cache_hit);
  const MatrixCache::View again = cache.load(file.path);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(first.matrix.get(), again.matrix.get());  // same storage
  EXPECT_EQ(cache.stats().parses, 1u);
  // resolve_key answers from the stat cache alone.
  const auto key = cache.resolve_key(file.path);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, first.key);
}

TEST(IngestCache, EvictionCannotInvalidatePinnedViews) {
  TempMatrix a("test_ingest_pin_a.tmp.mtx", 31);
  TempMatrix b("test_ingest_pin_b.tmp.mtx", 32);
  const Csr<double> expect_a = read_matrix_market(a.path);

  // Budget sized to hold exactly one of the two matrices.
  const std::size_t one =
      static_cast<std::size_t>(expect_a.nnz()) * (sizeof(double) + 8) +
      static_cast<std::size_t>(expect_a.rows() + 1) * 8;
  MatrixCache cache(one + one / 4, /*shards=*/1);

  const MatrixCache::View pinned = cache.load(a.path);
  cache.load(b.path);  // evicts a's entry from the LRU
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.get(pinned.key).has_value());
  // The borrowed view outlives the eviction: refcount pins the storage.
  EXPECT_TRUE(csr_bitwise_equal(*pinned.matrix, expect_a));
}

TEST(IngestCache, OversizeEntriesServedUncached) {
  TempMatrix file("test_ingest_oversize.tmp.mtx", 41);
  MatrixCache cache(/*budget_bytes=*/1024, /*shards=*/1);
  const MatrixCache::View v = cache.load(file.path);
  EXPECT_NE(v.matrix, nullptr);
  EXPECT_GE(cache.stats().oversize, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(IngestCache, ZeroBudgetDisablesCachingNotLoading) {
  TempMatrix file("test_ingest_zero.tmp.mtx", 43);
  MatrixCache cache(/*budget_bytes=*/0, /*shards=*/4);
  const Csr<double> expect = read_matrix_market(file.path);
  EXPECT_TRUE(csr_bitwise_equal(*cache.load(file.path).matrix, expect));
  EXPECT_TRUE(csr_bitwise_equal(*cache.load(file.path).matrix, expect));
}

TEST(IngestCache, SingleFlightCoalescesConcurrentMisses) {
  TempMatrix file("test_ingest_flight.tmp.mtx", 51);
  MatrixCache cache(64 << 20, /*shards=*/4);

  constexpr int kThreads = 8;
  std::vector<std::future<MatrixCache::View>> loads;
  loads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    loads.push_back(std::async(std::launch::async,
                               [&] { return cache.load(file.path); }));
  std::vector<MatrixCache::View> views;
  views.reserve(kThreads);
  for (auto& f : loads) views.push_back(f.get());

  // One parse total; every thread got the same storage either by waiting
  // on the flight or from the LRU after publication.
  EXPECT_EQ(cache.stats().parses, 1u);
  for (const auto& v : views) {
    EXPECT_EQ(v.matrix.get(), views.front().matrix.get());
    EXPECT_EQ(v.key, views.front().key);
  }
}

TEST(IngestCache, SingleFlightPropagatesParseErrors) {
  const std::string path = "test_ingest_badmtx.tmp.mtx";
  write_file(path, "%%MatrixMarket matrix coordinate real general\nnot a\n");
  MatrixCache cache(64 << 20, /*shards=*/1);

  constexpr int kThreads = 4;
  std::vector<std::future<bool>> loads;
  for (int i = 0; i < kThreads; ++i)
    loads.push_back(std::async(std::launch::async, [&] {
      try {
        cache.load(path);
        return false;
      } catch (const Error&) {
        return true;
      }
    }));
  for (auto& f : loads) EXPECT_TRUE(f.get());
  std::remove(path.c_str());
}

TEST(IngestCache, StatCacheInvalidatesOnRewrite) {
  const std::string path = "test_ingest_rewrite.tmp.mtx";
  write_matrix_market(path, generate(make_small_plan(1, 61).specs[0]));
  MatrixCache cache(64 << 20, /*shards=*/1);
  const std::uint64_t key1 = cache.load(path).key;

  // Rewrite with a different matrix; mtime/size change invalidates the
  // stat-cache mapping and forces a re-ingest under a new content key.
  GenSpec spec = make_small_plan(1, 62).specs[0];
  spec.rows += 64;
  write_matrix_market(path, generate(spec));
  const MatrixCache::View reloaded = cache.load(path);
  EXPECT_NE(reloaded.key, key1);
  EXPECT_EQ(cache.stats().parses, 2u);
  std::remove(path.c_str());
}

// --- Pool-blocked feature extraction --------------------------------------

TEST(IngestFeatures, PoolExtractionBitwiseMatchesSerial) {
  ThreadPool alone(0);  // the caller scans every block itself
  ThreadPool pool(4);
  // Small matrices (single block) and one spanning many 4096-row blocks.
  std::vector<GenSpec> specs = {make_small_plan(1, 71).specs[0],
                                make_small_plan(1, 72).specs[0]};
  GenSpec big;
  big.family = MatrixFamily::kPowerLaw;
  big.rows = big.cols = 20000;  // five partition blocks
  big.seed = 73;
  specs.push_back(big);

  for (const GenSpec& spec : specs) {
    const Csr<double> m = generate(spec);
    const FeatureVector serial = extract_features(m, alone);
    const FeatureVector pooled = extract_features(m, pool);
    EXPECT_EQ(std::memcmp(serial.values.data(), pooled.values.data(),
                          sizeof(serial.values)),
              0)
        << "rows=" << m.rows();
    // The default runs on the process pool.
    const FeatureVector process = extract_features(m);
    EXPECT_EQ(std::memcmp(serial.values.data(), process.values.data(),
                          sizeof(serial.values)),
              0);
  }
}

// --- Service integration --------------------------------------------------

const LabeledCorpus& shared_corpus() {
  static const LabeledCorpus corpus = collect_corpus(make_small_plan(40, 321));
  return corpus;
}

std::shared_ptr<const FormatSelector> tree_selector() {
  static const auto selector = [] {
    auto s = std::make_shared<FormatSelector>(
        ModelKind::kDecisionTree, FeatureSet::kSet12, kAllFormats,
        /*fast=*/true);
    s->fit(shared_corpus(), 0, Precision::kDouble);
    return std::shared_ptr<const FormatSelector>(s);
  }();
  return selector;
}

TEST(IngestService, ShardedDispatchAnswersEveryRequest) {
  ModelRegistry registry;
  registry.install(tree_selector());
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  cfg.dispatch_shards = 4;
  Service service(cfg, registry);

  TempMatrix file("test_ingest_shards.tmp.mtx", 81);
  const Format expect =
      tree_selector()->select(extract_features(read_matrix_market(file.path)));

  constexpr int kRequests = 64;
  std::vector<std::future<Response>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.id = "s" + std::to_string(i);
    req.mode = RequestMode::kSelect;
    req.matrix_path = file.path;
    futures.push_back(service.submit(std::move(req)));
  }
  for (int i = 0; i < kRequests; ++i) {
    const Response rsp = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_EQ(rsp.format, expect);
  }
  // The whole burst re-parsed the matrix at most once. The cache's
  // counters ride along so a failure shows how the loads were served.
  const auto stats = service.ingest().stats();
  EXPECT_EQ(stats.parses, 1u)
      << "parses " << stats.parses << ", coalesced " << stats.coalesced << ", hits " << stats.hits
      << ", misses " << stats.misses << ", entries " << stats.entries;
  service.shutdown();
}

TEST(IngestService, InlineFeaturesMaterializeUsesIngestCache) {
  ModelRegistry registry;
  registry.install(tree_selector());
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 8;
  Service service(cfg, registry);

  TempMatrix file("test_ingest_inline.tmp.mtx", 91);
  const FeatureVector f = extract_features(read_matrix_market(file.path));

  Request req;
  req.mode = RequestMode::kSelect;
  req.matrix_path = file.path;
  req.features = {f.values.begin(), f.values.end()};
  req.materialize = true;
  for (int i = 0; i < 3; ++i) {
    req.id = "m" + std::to_string(i);
    const Response rsp = service.call(req);
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_TRUE(rsp.materialized);
    EXPECT_GT(rsp.format_bytes, 0);
  }
  // Inline-features materialization rides the ingest cache: one parse
  // serves all three conversions.
  EXPECT_EQ(service.ingest().stats().parses, 1u);
  service.shutdown();
}

}  // namespace
}  // namespace spmvml
