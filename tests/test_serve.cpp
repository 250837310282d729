// Online serving subsystem tests: sharded LRU feature cache, versioned
// model registry with atomic hot-swap, and the micro-batching Service —
// admission control, deadline degradation, and the contract that batched
// serving matches one-shot library calls bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos/chaos.hpp"
#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "core/format_selector.hpp"
#include "core/perf_model.hpp"
#include "serve/feature_cache.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/scorecard.hpp"
#include "serve/service.hpp"
#include "sparse/mmio.hpp"
#include "sparse/spmv.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

using serve::FeatureCache;
using serve::ModelRegistry;
using serve::Request;
using serve::RequestMode;
using serve::Response;
using serve::Service;
using serve::ServiceConfig;

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

std::shared_ptr<const PerfModel> tree_perf() {
  static const auto perf = [] {
    auto p = std::make_shared<PerfModel>(RegressorKind::kDecisionTree,
                                         FeatureSet::kSet12, kAllFormats,
                                         /*fast=*/true);
    p->fit(shared_corpus(), 0, Precision::kDouble);
    return std::shared_ptr<const PerfModel>(p);
  }();
  return perf;
}

/// Inline feature payload (17 values) from a deterministic synthetic
/// matrix; `variant` perturbs the generator seed.
std::vector<double> sample_features(int variant) {
  GenSpec spec = make_small_plan(1, 1000 + variant).specs[0];
  const FeatureVector f = extract_features(generate(spec));
  return {f.values.begin(), f.values.end()};
}

Request inline_request(const std::string& id, RequestMode mode, int variant) {
  Request req;
  req.id = id;
  req.mode = mode;
  req.features = sample_features(variant);
  return req;
}

/// A temp Matrix Market file that removes itself.
struct TempMatrixFile {
  std::string path;
  explicit TempMatrixFile(const std::string& name, int seed) : path(name) {
    write_matrix_market(path, generate(make_small_plan(1, seed).specs[0]));
  }
  ~TempMatrixFile() { std::remove(path.c_str()); }
};

/// Holds a single-worker service's only batch slot: submits a
/// file-backed request whose feature extraction sleeps under the
/// caller's chaos latency rule at feature_extract (inline-feature
/// requests never reach that site), and returns once that request's
/// batch is running. Every later submit then stays queued until the
/// blocker finishes.
std::future<Response> occupy_worker(Service& service, const std::string& path) {
  const auto injected = [] {
    return obs::MetricsRegistry::global().snapshot().counter(
        "chaos.injected.feature_extract");
  };
  const std::uint64_t before = injected();
  Request req;
  req.id = "blocker";
  req.mode = RequestMode::kSelect;
  req.matrix_path = path;
  std::future<Response> done = service.submit(std::move(req));
  while (injected() == before)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  return done;
}

std::shared_ptr<chaos::Engine> slow_feature_extract() {
  return std::make_shared<chaos::Engine>(chaos::Scenario::parse_string(
      "seed 1\nrule site=feature_extract kind=latency rate=1 "
      "latency_ms=200\n"));
}

serve::CachedFeatures tagged(double tag) {
  serve::CachedFeatures v;
  v.features.values[0] = tag;
  return v;
}

/// Restores the global per-request sampling rate on scope exit so a
/// failing test cannot leak sampling into unrelated tests.
struct TraceSampleGuard {
  ~TraceSampleGuard() { serve::set_trace_sample(0); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- Feature cache -------------------------------------------------------

TEST(ServeCache, HitReturnsStoredValue) {
  FeatureCache cache(8, 1);
  cache.put(42, tagged(7.0));
  const auto got = cache.get(42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->features.values[0], 7.0);
  EXPECT_FALSE(cache.get(43).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ServeCache, LruEvictionOrder) {
  FeatureCache cache(3, /*shards=*/1);  // one shard => strict global LRU
  cache.put(1, tagged(1));
  cache.put(2, tagged(2));
  cache.put(3, tagged(3));
  EXPECT_TRUE(cache.get(1).has_value());  // refresh 1; LRU order: 2,3,1
  cache.put(4, tagged(4));                // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_TRUE(cache.get(4).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 3u);
}

TEST(ServeCache, PutRefreshesExistingKey) {
  FeatureCache cache(2, 1);
  cache.put(1, tagged(1));
  cache.put(2, tagged(2));
  cache.put(1, tagged(10));  // refresh, not insert: 1 becomes MRU
  cache.put(3, tagged(3));   // evicts 2
  ASSERT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(cache.get(1)->features.values[0], 10.0);
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(ServeCache, CapacityZeroDisables) {
  FeatureCache cache(0);
  cache.put(1, tagged(1));
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.stats().capacity, 0u);
}

TEST(ServeCache, ShardedConcurrentAccess) {
  FeatureCache cache(128, 8);
  constexpr int kThreads = 8, kOps = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const auto key = static_cast<std::uint64_t>((t * kOps + i) % 300);
        if (i % 3 == 0) cache.put(key, tagged(static_cast<double>(key)));
        const auto got = cache.get(key);
        if (got.has_value())
          EXPECT_EQ(got->features.values[0], static_cast<double>(key));
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(stats.size, stats.capacity);
}

TEST(ServeCache, ContentHashDistinguishesMatrices) {
  const auto a = generate(make_small_plan(1, 11).specs[0]);
  const auto b = generate(make_small_plan(1, 22).specs[0]);
  EXPECT_EQ(serve::matrix_content_hash(a), serve::matrix_content_hash(a));
  EXPECT_NE(serve::matrix_content_hash(a), serve::matrix_content_hash(b));
}

// --- Model registry ------------------------------------------------------

TEST(ServeRegistry, InstallAssignsMonotonicVersions) {
  ModelRegistry registry;
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.install(tree_selector()), 1u);
  EXPECT_EQ(registry.install(tree_selector(), tree_perf()), 2u);
  EXPECT_EQ(registry.version(), 2u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version, 2u);
  EXPECT_NE(registry.current()->perf, nullptr);
}

TEST(ServeRegistry, OldBundleSurvivesSwap) {
  ModelRegistry registry;
  registry.install(tree_selector());
  const auto pinned = registry.current();
  registry.install(tree_selector(), tree_perf());
  // The pinned copy is untouched: in-flight batches finish on the model
  // they started with.
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(pinned->perf, nullptr);
  EXPECT_EQ(registry.current()->version, 2u);
}

TEST(ServeRegistry, RejectsNullSelector) {
  ModelRegistry registry;
  EXPECT_THROW(registry.install(nullptr), Error);
  EXPECT_EQ(registry.version(), 0u);
}

TEST(ServeRegistry, InstallFilesRoundTrips) {
  const std::string path = "test_serve_selector.tmp.model";
  {
    std::ofstream out(path);
    tree_selector()->save(out);
  }
  ModelRegistry registry;
  EXPECT_EQ(registry.install_files(path), 1u);
  EXPECT_EQ(registry.current()->selector->feature_set(), FeatureSet::kSet12);
  std::remove(path.c_str());
}

TEST(ServeRegistry, CorruptFileKeepsPreviousVersionLive) {
  ModelRegistry registry;
  registry.install(tree_selector());

  const std::string path = "test_serve_corrupt.tmp.model";
  {
    std::ofstream out(path);
    out << "this is not a model file\n";
  }
  try {
    registry.install_files(path);
    FAIL() << "expected Error(kModelFormat)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kModelFormat);
  }
  std::remove(path.c_str());

  try {
    registry.install_files("test_serve_no_such_file.model");
    FAIL() << "expected Error(kIo)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
  // Failed installs never unpublish the live bundle.
  EXPECT_EQ(registry.version(), 1u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version, 1u);
}

// --- Request parsing -----------------------------------------------------

TEST(ServeRequest, ParsesSelectWithMatrix) {
  const auto p = serve::parse_request_line(
      R"({"id": "r1", "mode": "select", "matrix": "a.mtx", "mem_budget_gb": 4})");
  ASSERT_FALSE(p.is_admin);
  EXPECT_EQ(p.request.id, "r1");
  EXPECT_EQ(p.request.mode, RequestMode::kSelect);
  EXPECT_EQ(p.request.matrix_path, "a.mtx");
  EXPECT_EQ(p.request.mem_budget_gb, 4.0);
}

TEST(ServeRequest, ParsesInlineFeaturesAndDeadline) {
  std::string features = "[";
  for (int i = 0; i < kNumFeatures; ++i)
    features += (i > 0 ? "," : "") + std::to_string(i + 1);
  features += "]";
  const auto p = serve::parse_request_line(
      R"({"id": "r2", "mode": "indirect", "features": )" + features +
      R"(, "deadline_ms": 2.5})");
  EXPECT_EQ(p.request.mode, RequestMode::kIndirect);
  ASSERT_EQ(p.request.features.size(), static_cast<std::size_t>(kNumFeatures));
  EXPECT_EQ(p.request.features[2], 3.0);
  EXPECT_EQ(p.request.deadline_ms, 2.5);
}

TEST(ServeRequest, ParsesAdminSwap) {
  const auto p = serve::parse_request_line(
      R"({"cmd": "swap", "id": "a1", "model": "sel.model", "perf_model": "p.model"})");
  ASSERT_TRUE(p.is_admin);
  EXPECT_EQ(p.admin.cmd, "swap");
  EXPECT_EQ(p.admin.model_path, "sel.model");
  EXPECT_EQ(p.admin.perf_model_path, "p.model");
}

TEST(ServeRequest, RejectsMalformedLines) {
  const char* bad[] = {
      "not json",
      R"({"id": "x"})",                                     // no matrix/features
      R"({"id": "x", "mode": "wat", "matrix": "a.mtx"})",   // unknown mode
      R"({"id": "x", "features": [1, 2, 3]})",              // wrong arity
      R"({"id": "x", "matrix": "a.mtx", "deadline_ms": -1})",
      R"({"cmd": "reload"})",                               // unknown admin
  };
  for (const char* line : bad) {
    try {
      serve::parse_request_line(line);
      FAIL() << "expected Error(kParse) for: " << line;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kParse) << line;
    }
  }
}

TEST(ServeRequest, DecodesStringEscapes) {
  const auto p = serve::parse_request_line(
      R"({"id": "q\"1\\", "matrix": "dir\/a\tb\nc\rd\be\f.mtx"})");
  EXPECT_EQ(p.request.id, "q\"1\\");
  EXPECT_EQ(p.request.matrix_path, "dir/a\tb\nc\rd\be\f.mtx");
  // A 4-hex-digit escape becomes one '?' (paths and ids stay ASCII).
  const auto u = serve::parse_request_line(
      "{\"matrix\": \"caf\\u00e9.mtx\"}");
  EXPECT_EQ(u.request.matrix_path, "caf?.mtx");
}

TEST(ServeRequest, NumericIdsAndBooleanFields) {
  const auto p = serve::parse_request_line(
      R"({"id": 7, "matrix": "a.mtx", "materialize": false})");
  EXPECT_EQ(p.request.id, "7");
  EXPECT_FALSE(p.request.materialize);
  const auto m = serve::parse_request_line(
      R"({"id": 2.5, "matrix": "a.mtx", "materialize": true})");
  EXPECT_EQ(m.request.id, "2.5");
  EXPECT_TRUE(m.request.materialize);
  const auto admin = serve::parse_request_line(R"({"cmd": "learn", "id": 12})");
  ASSERT_TRUE(admin.is_admin);
  EXPECT_EQ(admin.admin.id, "12");
}

TEST(ServeRequest, RejectsBadTokensAndFieldTypes) {
  const char* bad[] = {
      "{\"matrix\": \"a\\q.mtx\"}",                   // unknown escape
      "{\"matrix\": \"a\\u00\"}",                     // truncated escape
      R"({"matrix": "a.mtx)",                         // unterminated string
      R"({"matrix": "a.mtx", "materialize": fals})",  // bad literal
      R"({"matrix": "a.mtx", "deadline_ms": nul})",   // bad literal
      R"({"matrix": "a.mtx", "deadline_ms": null})",  // null is no number
      R"({"matrix": "a.mtx", "deadline_ms": 1.2.3})", // bad number
      R"({"matrix": {"path": "a.mtx"}})",             // nested object
      R"({"matrix": "a.mtx", "materialize": "yes"})", // bool as string
      R"({"matrix": 3})",                             // path as number
      R"({"id": true, "matrix": "a.mtx"})",           // id as bool
      R"({"matrix": "a.mtx", "features": 5})",        // scalar features
      R"({"matrix": "a.mtx", "colour": "red"})",      // unknown field
      R"({"matrix": "a.mtx"} trailing)",              // trailing bytes
  };
  for (const char* line : bad) {
    try {
      serve::parse_request_line(line);
      ADD_FAILURE() << "expected Error(kParse) for: " << line;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kParse) << line;
    }
  }
}

TEST(ServeRequest, ShedResponseJsonCarriesEstimatedWait) {
  Response r;
  r.id = "s";
  r.ok = false;
  r.error = "overloaded";
  const std::string plain = serve::to_json(r);
  EXPECT_EQ(plain.find("\"shed\""), std::string::npos) << plain;
  EXPECT_EQ(plain.find("est_wait_ms"), std::string::npos) << plain;
  r.shed = "queue_full";
  r.est_wait_ms = 12.5;
  r.retries = 2;
  const std::string shed = serve::to_json(r);
  EXPECT_NE(shed.find("\"ok\":false"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"shed\":\"queue_full\""), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"est_wait_ms\":12.5"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"retries\":2"), std::string::npos) << shed;
  // An error response names no format.
  EXPECT_EQ(shed.find("\"format\""), std::string::npos) << shed;
}

TEST(ServeRequest, MaterializeNeedsMatrixAndNonPredictMode) {
  // Inline features carry no CSR master copy to convert, and predict
  // picks no format — both combinations are schema errors, not runtime
  // surprises.
  const char* bad[] = {
      R"({"id": "x", "features": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17], "materialize": true})",
      R"({"id": "x", "mode": "predict", "matrix": "a.mtx", "materialize": true})",
  };
  for (const char* line : bad) {
    try {
      serve::parse_request_line(line);
      FAIL() << "expected Error(kParse) for: " << line;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kParse) << line;
    }
  }
  const auto ok = serve::parse_request_line(
      R"({"id": "x", "mode": "select", "matrix": "a.mtx", "materialize": true})");
  EXPECT_TRUE(ok.request.materialize);
}

TEST(ServeRequest, ResponseJsonCarriesMaterializeFieldsOnlyWhenSet) {
  Response r;
  r.id = "m";
  r.ok = true;
  EXPECT_EQ(serve::to_json(r).find("materialized"), std::string::npos);
  r.materialized = true;
  r.convert_ms = 0.5;
  r.format_bytes = 4096;
  const std::string json = serve::to_json(r);
  EXPECT_NE(json.find("\"materialized\":true"), std::string::npos);
  EXPECT_NE(json.find("\"format_bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("convert_ms"), std::string::npos);
}

TEST(ServeRequest, ClientIdPassesThroughAndGeneratedIdsAreDistinct) {
  const auto with_id = serve::parse_request_line(
      R"({"id": "client-7", "mode": "select", "matrix": "a.mtx"})");
  EXPECT_EQ(with_id.request.id, "client-7");

  // No id: the parser assigns a stable `srv-<seq>` so every downstream
  // stage (and the response) can still name the request.
  const auto anon_a =
      serve::parse_request_line(R"({"mode": "select", "matrix": "a.mtx"})");
  const auto anon_b =
      serve::parse_request_line(R"({"mode": "select", "matrix": "a.mtx"})");
  EXPECT_EQ(anon_a.request.id.rfind("srv-", 0), 0u) << anon_a.request.id;
  EXPECT_EQ(anon_b.request.id.rfind("srv-", 0), 0u) << anon_b.request.id;
  EXPECT_NE(anon_a.request.id, anon_b.request.id);
}

TEST(ServeRequest, ParsesAdminStatsAndRejectsModelPathsOnIt) {
  const auto p = serve::parse_request_line(R"({"cmd": "stats", "id": "s1"})");
  ASSERT_TRUE(p.is_admin);
  EXPECT_EQ(p.admin.cmd, "stats");
  EXPECT_EQ(p.admin.id, "s1");
  EXPECT_TRUE(p.admin.model_path.empty());

  // `stats` is read-only: a model path on it is a schema error, not a
  // silently ignored field.
  try {
    serve::parse_request_line(R"({"cmd": "stats", "model": "sel.model"})");
    FAIL() << "expected Error(kParse)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse);
  }
}

TEST(ServeRequest, TraceSamplingDecisionIsMadeAtParse) {
  TraceSampleGuard guard;
  serve::set_trace_sample(1);  // every request
  const auto on =
      serve::parse_request_line(R"({"mode": "select", "matrix": "a.mtx"})");
  EXPECT_TRUE(on.request.trace_sampled);
  serve::set_trace_sample(0);  // off
  const auto off =
      serve::parse_request_line(R"({"mode": "select", "matrix": "a.mtx"})");
  EXPECT_FALSE(off.request.trace_sampled);
}

TEST(ServeRequest, ResponseJsonCarriesServerMsAndStageBreakdown) {
  Response r;
  r.id = "t";
  r.ok = true;
  EXPECT_EQ(serve::to_json(r).find("server_ms"), std::string::npos);
  EXPECT_EQ(serve::to_json(r).find("stage_ms"), std::string::npos);

  r.server_ms = 1.5;
  r.has_stage_ms = true;
  r.stage_features_ms = 0.25;
  const std::string json = serve::to_json(r);
  EXPECT_NE(json.find("\"server_ms\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage_ms\":{\"features\":0.25"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"finalize\":0"), std::string::npos) << json;

  // Error responses are stamped too: a rejected line still reports how
  // long the server spent on it.
  Response bad;
  bad.ok = false;
  bad.error = "parse: nope";
  bad.server_ms = 0.125;
  EXPECT_NE(serve::to_json(bad).find("\"server_ms\":0.125"),
            std::string::npos);
}

TEST(ServeRequest, ResponseJsonCarriesMeasuredAndPredictedGflops) {
  Response r;
  r.id = "g";
  r.ok = true;
  r.materialized = true;
  r.spmv_ms = 0.5;
  r.measured_gflops = 12.5;
  const std::string json = serve::to_json(r);
  EXPECT_NE(json.find("\"spmv_ms\":0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"measured_gflops\":12.5"), std::string::npos) << json;
  // No perf model => no predicted_gflops key (0 would read as a claim).
  EXPECT_EQ(json.find("predicted_gflops"), std::string::npos) << json;
  r.predicted_gflops = 10.0;
  EXPECT_NE(serve::to_json(r).find("\"predicted_gflops\":10"),
            std::string::npos);
}

TEST(ServeRequest, ResponseJsonIsSingleLine) {
  Response r;
  r.id = "he \"quoted\" llo";
  r.ok = true;
  r.format = Format::kEll;
  r.predicted = Format::kEll;
  const std::string json = serve::to_json(r);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"format\":\"ELL\""), std::string::npos);
}

// --- Prediction scorecard ------------------------------------------------

TEST(ServeScorecard, SummaryAggregatesHitsRegretAndRme) {
  serve::Scorecard sc(4);
  serve::ScorecardEntry hit;
  hit.features_hash = 1;
  hit.chosen = Format::kEll;
  hit.predicted_best = Format::kEll;
  hit.predicted_gflops = 2.0;
  hit.measured_gflops = 1.0;  // |2-1|/1 = 1.0 relative error
  sc.record(hit);

  serve::ScorecardEntry miss;
  miss.features_hash = 2;
  miss.chosen = Format::kCsr;
  miss.predicted_best = Format::kEll;
  miss.regret = 0.5;  // no gflops on either side: excluded from RME
  sc.record(miss);

  const auto s = sc.summary();
  EXPECT_EQ(s.total, 2u);
  EXPECT_EQ(s.window, 2u);
  EXPECT_DOUBLE_EQ(s.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(s.mean_regret, 0.25);
  EXPECT_DOUBLE_EQ(s.rme, 1.0);
}

TEST(ServeScorecard, RingEvictsOldestAndKeepsWindowAggregatesExact) {
  serve::Scorecard sc(2);
  serve::ScorecardEntry a;
  a.features_hash = 1;
  a.chosen = a.predicted_best = Format::kEll;  // a hit, later evicted
  serve::ScorecardEntry b;
  b.features_hash = 2;
  b.chosen = Format::kCsr;
  b.predicted_best = Format::kEll;
  b.regret = 1.0;
  serve::ScorecardEntry c = b;
  c.features_hash = 3;
  c.regret = 3.0;
  sc.record(a);
  sc.record(b);
  sc.record(c);  // capacity 2: evicts a

  const auto entries = sc.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].features_hash, 2u);  // oldest first
  EXPECT_EQ(entries[1].features_hash, 3u);

  // The incremental aggregates must reflect only the retained window:
  // the evicted hit no longer counts toward accuracy.
  const auto s = sc.summary();
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.window, 2u);
  EXPECT_DOUBLE_EQ(s.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_regret, 2.0);
}

TEST(ServeScorecard, FeaturesFingerprintIsStableAndBitSensitive) {
  const std::vector<double> values = {1.0, 2.0, 3.5, -4.0};
  const std::uint64_t h = serve::features_fingerprint(values);
  EXPECT_EQ(serve::features_fingerprint(values), h);

  // One ULP of drift in one feature must change the fingerprint: the
  // retraining join key relies on bit-identity, not approximate equality.
  std::vector<double> nudged = values;
  nudged[1] = std::nextafter(nudged[1], 3.0);
  EXPECT_NE(serve::features_fingerprint(nudged), h);
  EXPECT_NE(serve::features_fingerprint({}), h);
}

// --- Service -------------------------------------------------------------

ServiceConfig quick_config() {
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 8;
  return cfg;
}

TEST(ServeService, MatchesOneShotPredictions) {
  // The acceptance contract: batched serving answers are byte-identical
  // to one-shot library calls for the same matrix + model. MLP exercises
  // the batched forward pass (bitwise-equal by design). Both dispatch
  // layouts, several matrices, and each matrix asked twice so the second
  // answer comes from the feature cache.
  auto mlp = std::make_shared<FormatSelector>(ModelKind::kMlp,
                                              FeatureSet::kSet12, kAllFormats,
                                              /*fast=*/true);
  mlp->fit(shared_corpus(), 0, Precision::kDouble);
  ModelRegistry registry;
  registry.install(mlp, tree_perf());

  std::vector<std::unique_ptr<TempMatrixFile>> files;
  for (const int seed : {4242, 777, 778, 779})
    files.push_back(std::make_unique<TempMatrixFile>(
        "test_serve_oneshot" + std::to_string(seed) + ".tmp.mtx", seed));

  for (const int shards : {1, 4}) {
    ServiceConfig cfg = quick_config();
    cfg.dispatch_shards = shards;
    Service service(cfg, registry);
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& file : files) {
        SCOPED_TRACE(file->path + ", shards " + std::to_string(shards) +
                     ", pass " + std::to_string(pass));
        const auto matrix = read_matrix_market(file->path);
        const auto features = extract_features(matrix);

        Request req;
        req.id = "sel";
        req.mode = RequestMode::kSelect;
        req.matrix_path = file->path;
        const Response sel = service.call(req);
        ASSERT_TRUE(sel.ok) << sel.error;
        EXPECT_EQ(sel.format, mlp->select(features));
        EXPECT_FALSE(sel.degraded);

        req.id = "prd";
        req.mode = RequestMode::kPredict;
        const Response prd = service.call(req);
        ASSERT_TRUE(prd.ok) << prd.error;
        ASSERT_EQ(prd.predicted_us.size(), tree_perf()->formats().size());
        for (std::size_t k = 0; k < prd.predicted_us.size(); ++k) {
          const auto [f, us] = prd.predicted_us[k];
          EXPECT_EQ(f, tree_perf()->formats()[k]);
          EXPECT_EQ(us, tree_perf()->predict_seconds(features, f) * 1e6);
        }

        req.id = "ind";
        req.mode = RequestMode::kIndirect;
        const Response ind = service.call(req);
        ASSERT_TRUE(ind.ok) << ind.error;
        // Indirect = argmin of the same regressor outputs.
        Format best = prd.predicted_us.front().first;
        double best_us = prd.predicted_us.front().second;
        for (const auto& [f, us] : prd.predicted_us)
          if (us < best_us) { best = f; best_us = us; }
        EXPECT_EQ(ind.format, best);
        EXPECT_FALSE(ind.degraded);
      }
    }
  }
}

TEST(ServeService, MicroBatchingCoalesces) {
  ModelRegistry registry;
  registry.install(tree_selector());
  TempMatrixFile blocker_file("test_serve_coalesce.tmp.mtx", 21);
  chaos::ScopedGlobalEngine scoped(slow_feature_extract());
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 8;
  Service service(cfg, registry);
  // The only worker is busy, so all 8 queue up and leave as one batch
  // the moment it frees.
  std::future<Response> blocker = occupy_worker(service, blocker_file.path);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(service.submit(
        inline_request("b" + std::to_string(i), RequestMode::kSelect, i)));
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.batch, 8u);
  }
  EXPECT_TRUE(blocker.get().ok);
}

TEST(ServeService, AdmissionControlRejectsWhenFull) {
  ModelRegistry registry;
  registry.install(tree_selector());
  TempMatrixFile blocker_file("test_serve_admission.tmp.mtx", 22);
  chaos::ScopedGlobalEngine scoped(slow_feature_extract());
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 100;  // never fills
  cfg.queue_capacity = 2;
  Service service(cfg, registry);
  // The busy worker keeps the queue from draining while we overflow it.
  std::future<Response> blocker = occupy_worker(service, blocker_file.path);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i)
    futures.push_back(service.submit(
        inline_request("a" + std::to_string(i), RequestMode::kSelect, 0)));
  service.shutdown();  // the two queued requests run after the blocker

  int accepted = 0, rejected = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    if (r.ok) {
      ++accepted;
    } else {
      EXPECT_NE(r.error.find("rejected"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(service.counters().rejected, 4u);
  EXPECT_TRUE(blocker.get().ok);
}

TEST(ServeService, DeadlineExpiryDegradesToDirect) {
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  Service service(quick_config(), registry);

  Request req = inline_request("d1", RequestMode::kIndirect, 3);
  req.deadline_ms = 1e-6;  // expired by the time the batch picks it up
  const Response r = service.call(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.predicted_us.empty());  // regressor pass was skipped
  // The degraded answer is the direct classifier's pick.
  FeatureVector f;
  std::copy(req.features.begin(), req.features.end(), f.values.begin());
  EXPECT_EQ(r.format, tree_selector()->select(f));
  EXPECT_EQ(service.counters().degraded, 1u);
}

TEST(ServeService, NoPerfModelDegradesIndirectAndFailsPredict) {
  ModelRegistry registry;
  registry.install(tree_selector());  // no regressors
  Service service(quick_config(), registry);

  const Response ind =
      service.call(inline_request("i1", RequestMode::kIndirect, 1));
  ASSERT_TRUE(ind.ok) << ind.error;
  EXPECT_TRUE(ind.degraded);

  const Response prd =
      service.call(inline_request("p1", RequestMode::kPredict, 1));
  EXPECT_FALSE(prd.ok);
  EXPECT_NE(prd.error.find("perf model"), std::string::npos);
}

TEST(ServeService, TinyMemoryBudgetFallsBackToCsr) {
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  Service service(quick_config(), registry);
  TempMatrixFile file("test_serve_budget.tmp.mtx", 99);

  Request req;
  req.id = "m1";
  req.mode = RequestMode::kSelect;
  req.matrix_path = file.path;
  req.mem_budget_gb = 1e-9;  // ~1 byte: nothing fits, CSR floor applies
  const Response r = service.call(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.format, Format::kCsr);
  EXPECT_TRUE(r.fallback);
}

TEST(ServeService, MaterializeBuildsChosenFormatInArena) {
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  Service service(quick_config(), registry);
  TempMatrixFile file("test_serve_materialize.tmp.mtx", 314);
  const auto matrix = read_matrix_market(file.path);

  Request req;
  req.id = "mat1";
  req.mode = RequestMode::kSelect;
  req.matrix_path = file.path;
  req.materialize = true;
  const Response r = service.call(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.materialized);
  EXPECT_GE(r.convert_ms, 0.0);
  // The reported footprint is the bytes() of the format it served.
  EXPECT_EQ(r.format_bytes, AnyMatrix<double>::build(r.format, matrix).bytes());

  // Indirect requests materialize the argmin pick the same way.
  req.id = "mat2";
  req.mode = RequestMode::kIndirect;
  const Response ind = service.call(req);
  ASSERT_TRUE(ind.ok) << ind.error;
  EXPECT_TRUE(ind.materialized);
  EXPECT_EQ(ind.format_bytes,
            AnyMatrix<double>::build(ind.format, matrix).bytes());
}

TEST(ServeService, NonMaterializeRequestReportsNoConversion) {
  ModelRegistry registry;
  registry.install(tree_selector());
  Service service(quick_config(), registry);
  TempMatrixFile file("test_serve_nomat.tmp.mtx", 315);

  Request req;
  req.id = "nm1";
  req.mode = RequestMode::kSelect;
  req.matrix_path = file.path;
  const Response r = service.call(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.materialized);
  EXPECT_EQ(r.format_bytes, 0);
}

TEST(ServeService, FeatureCacheHitsOnRepeatMatrix) {
  ModelRegistry registry;
  registry.install(tree_selector());
  Service service(quick_config(), registry);
  TempMatrixFile file("test_serve_cache.tmp.mtx", 17);

  Request req;
  req.id = "c1";
  req.mode = RequestMode::kSelect;
  req.matrix_path = file.path;
  const Response first = service.call(req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  req.id = "c2";
  const Response second = service.call(req);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.format, first.format);
  EXPECT_GE(service.cache().stats().hits, 1u);
}

TEST(ServeService, BadMatrixPathYieldsIoError) {
  ModelRegistry registry;
  registry.install(tree_selector());
  Service service(quick_config(), registry);

  Request req;
  req.id = "x1";
  req.mode = RequestMode::kSelect;
  req.matrix_path = "test_serve_does_not_exist.mtx";
  const Response r = service.call(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("io"), std::string::npos);
  EXPECT_EQ(service.counters().failed, 1u);
}

TEST(ServeService, EmptyRegistryFailsCleanly) {
  ModelRegistry registry;  // nothing installed
  Service service(quick_config(), registry);
  const Response r =
      service.call(inline_request("e1", RequestMode::kSelect, 0));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no model"), std::string::npos);
}

TEST(ServeService, ShutdownDrainsAcceptedRequests) {
  ModelRegistry registry;
  registry.install(tree_selector());
  TempMatrixFile blocker_file("test_serve_drain.tmp.mtx", 23);
  chaos::ScopedGlobalEngine scoped(slow_feature_extract());
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 4;
  std::vector<std::future<Response>> futures;
  {
    Service service(cfg, registry);
    // The three requests are still queued behind the busy worker when
    // the destructor runs.
    futures.push_back(occupy_worker(service, blocker_file.path));
    for (int i = 0; i < 3; ++i)
      futures.push_back(service.submit(
          inline_request("s" + std::to_string(i), RequestMode::kSelect, i)));
  }  // destructor shuts down and drains
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
}

TEST(ServeService, HotSwapUnderLoad) {
  auto selector_b = std::make_shared<FormatSelector>(
      ModelKind::kDecisionTree, FeatureSet::kSet1, kAllFormats,
      /*fast=*/true);
  selector_b->fit(shared_corpus(), 0, Precision::kDouble);
  constexpr RequestMode kModes[] = {RequestMode::kSelect,
                                    RequestMode::kIndirect,
                                    RequestMode::kPredict};

  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ModelRegistry registry;
    registry.install(tree_selector(), tree_perf());
    ServiceConfig cfg;
    cfg.threads = 4;
    cfg.max_batch = 8;
    cfg.dispatch_shards = shards;
    Service service(cfg, registry);

    constexpr int kClients = 4, kPerClient = 50, kSwaps = 10;
    std::atomic<int> failures{0};
    std::atomic<bool> monotonic{true};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::uint64_t last = 0;
        for (int k = 0; k < kPerClient; ++k) {
          const Response r = service.call(inline_request(
              "h" + std::to_string(c) + "-" + std::to_string(k),
              kModes[(c + k) % 3], k % 5));
          if (!r.ok) failures.fetch_add(1);
          // No torn reads: every response carries a version that exists,
          // and versions never move backwards for a single client.
          if (r.model_version < last || r.model_version == 0 ||
              r.model_version > kSwaps + 1)
            monotonic.store(false);
          last = r.model_version;
        }
      });
    }
    std::thread swapper([&] {
      for (int s = 0; s < kSwaps; ++s) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        registry.install(s % 2 == 0 ? selector_b : tree_selector(),
                         tree_perf());
      }
    });
    for (auto& t : clients) t.join();
    swapper.join();
    service.shutdown();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_TRUE(monotonic.load());
    EXPECT_EQ(registry.version(), static_cast<std::uint64_t>(kSwaps) + 1);
    EXPECT_EQ(service.counters().served,
              static_cast<std::uint64_t>(kClients) * kPerClient);
  }
}

// --- Request-scoped telemetry --------------------------------------------

TEST(ServeService, MaterializeRecordsScorecardEntry) {
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  Service service(quick_config(), registry);
  TempMatrixFile file("test_serve_scorecard.tmp.mtx", 2718);

  Request req;
  req.id = "sc1";
  req.mode = RequestMode::kIndirect;
  req.matrix_path = file.path;
  req.materialize = true;
  const Response r = service.call(req);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.materialized);
  EXPECT_GT(r.measured_gflops, 0.0);
  EXPECT_GT(r.spmv_ms, 0.0);

  const auto summary = service.scorecard().summary();
  EXPECT_EQ(summary.total, 1u);
  EXPECT_EQ(summary.window, 1u);
  EXPECT_EQ(summary.scored, 1u);
  EXPECT_TRUE(summary.accuracy == 0.0 || summary.accuracy == 1.0);
  EXPECT_TRUE(std::isfinite(summary.rme));
  EXPECT_GE(summary.rme, 0.0);
  const auto entries = service.scorecard().entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].chosen, r.format);
  EXPECT_EQ(entries[0].measured_gflops, r.measured_gflops);
  EXPECT_EQ(entries[0].model_version, r.model_version);
  EXPECT_NE(entries[0].features_hash, 0u);

  // Non-materialize requests never touch the scorecard: there is no
  // measured truth to compare against.
  req.id = "sc2";
  req.materialize = false;
  ASSERT_TRUE(service.call(req).ok);
  EXPECT_EQ(service.scorecard().summary().total, 1u);
}

TEST(ServeService, SampledRequestEmitsIdTaggedSpans) {
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  Service service(quick_config(), registry);

  const std::string trace_path = "test_serve_trace.tmp.json";
  obs::trace_start(trace_path);
  Request req = inline_request("traced-req-1", RequestMode::kIndirect, 2);
  req.trace_sampled = true;
  const Response r = service.call(req);
  service.shutdown();
  obs::trace_stop();
  ASSERT_TRUE(r.ok) << r.error;

  const std::string trace = slurp(trace_path);
  std::remove(trace_path.c_str());
  // The sampled request leaves a per-request span trail, each event
  // tagged with the request id (the thing that survives the shard queue).
  EXPECT_NE(trace.find("req.admit"), std::string::npos);
  EXPECT_NE(trace.find("req.queue"), std::string::npos);
  EXPECT_NE(trace.find("req.done"), std::string::npos);
  EXPECT_NE(trace.find("traced-req-1"), std::string::npos);
}

TEST(ServeService, TracedOpenLoopAtFourShardsServesEveryRequest) {
  // Serving with the telemetry plane on: tracing active and 1 in 100
  // requests sampled, at 4 workers and 4 dispatch shards with admission
  // shedding, under paced open-loop traffic (1000 req/s offered, rotating
  // modes over four files). Every request must be served, and exactly the
  // sampled requests leave the server's id-tagged span trail.
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg;
  cfg.threads = 4;
  cfg.max_batch = 8;
  cfg.queue_capacity = 1024;
  cfg.dispatch_shards = 4;
  cfg.admission_target_ms = 150.0;

  std::vector<std::unique_ptr<TempMatrixFile>> files;
  for (const int seed : {777, 778, 779, 780})
    files.push_back(std::make_unique<TempMatrixFile>(
        "test_serve_traced" + std::to_string(seed) + ".tmp.mtx", seed));
  constexpr RequestMode kModes[] = {RequestMode::kSelect,
                                    RequestMode::kIndirect,
                                    RequestMode::kPredict};
  constexpr int kRequests = 200, kSampleEvery = 100;

  obs::trace_start("");
  std::vector<Response> responses;
  std::vector<obs::TraceEvent> events;
  {
    Service service(cfg, registry);
    std::vector<std::future<Response>> futures;
    const auto interval = std::chrono::microseconds(1000);
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < kRequests; ++k) {
      std::this_thread::sleep_until(start + k * interval);
      Request req;
      req.id = "o" + std::to_string(k);
      req.mode = kModes[k % 3];
      req.matrix_path = files[static_cast<std::size_t>(k) % files.size()]->path;
      req.trace_sampled = k % kSampleEvery == 0;
      futures.push_back(service.submit(std::move(req)));
    }
    for (auto& f : futures) responses.push_back(f.get());
    service.shutdown();
    events = obs::trace_snapshot();
  }
  obs::trace_stop();

  for (const Response& r : responses) EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
  std::set<std::string> traced_ids, done_ids;
  for (const auto& e : events)
    for (const auto& arg : e.args)
      if (arg.key == "id") {
        traced_ids.insert(arg.json);
        if (e.name == "req.done") done_ids.insert(arg.json);
      }
  const std::set<std::string> sampled = {"\"o0\"", "\"o100\""};
  EXPECT_EQ(traced_ids, sampled);
  EXPECT_EQ(done_ids, sampled);
}

/// Strip the fields that legitimately vary run-to-run (wall-clock
/// timings, batch geometry) so what remains is the semantic payload:
/// ids, formats, predictions, cache/fallback/degrade flags, bytes.
std::string canonical_response_json(Response r) {
  r.queue_ms = r.latency_ms = r.server_ms = 0.0;
  r.est_wait_ms = 0.0;
  r.stage_features_ms = r.stage_classify_ms = 0.0;
  r.stage_regress_ms = r.stage_finalize_ms = 0.0;
  r.convert_ms = r.spmv_ms = 0.0;
  r.measured_gflops = 0.0;
  r.batch = 0;
  return serve::to_json(r);
}

TEST(ServeService, TelemetryDoesNotPerturbResponses) {
  // The non-perturbation contract: running with tracing + 100% sampling
  // must produce byte-identical responses (modulo wall-clock fields) to
  // running with telemetry fully off.
  TraceSampleGuard guard;
  TempMatrixFile file("test_serve_identical.tmp.mtx", 777);
  std::string features = "[";
  {
    const auto f = sample_features(5);
    for (std::size_t i = 0; i < f.size(); ++i) {
      std::ostringstream os;
      os << (i > 0 ? "," : "") << f[i];
      features += os.str();
    }
    features += "]";
  }
  const std::vector<std::string> lines = {
      R"({"id":"t1","mode":"select","matrix":")" + file.path + R"("})",
      R"({"id":"t2","mode":"indirect","matrix":")" + file.path +
          R"(","materialize":true})",
      R"({"id":"t3","mode":"predict","matrix":")" + file.path + R"("})",
      R"({"id":"t4","mode":"indirect","features":)" + features + "}",
      R"({"id":"t5","mode":"select","matrix":")" + file.path + R"("})",
  };
  const std::string trace_path = "test_serve_identical_trace.tmp.json";

  const auto run_pass = [&](bool telemetry) {
    serve::set_trace_sample(telemetry ? 1 : 0);
    if (telemetry) obs::trace_start(trace_path);
    ModelRegistry registry;
    registry.install(tree_selector(), tree_perf());
    Service service(quick_config(), registry);
    std::vector<std::string> out;
    for (const auto& line : lines) {
      const auto parsed = serve::parse_request_line(line);
      out.push_back(canonical_response_json(service.call(parsed.request)));
    }
    service.shutdown();
    if (telemetry) obs::trace_stop();
    return out;
  };

  const auto off = run_pass(/*telemetry=*/false);
  const auto on = run_pass(/*telemetry=*/true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i)
    EXPECT_EQ(off[i], on[i]) << "response " << i << " diverged";

  // And the telemetry pass really was on: the trace has request spans.
  const std::string trace = slurp(trace_path);
  std::remove(trace_path.c_str());
  EXPECT_NE(trace.find("req.queue"), std::string::npos);
}

}  // namespace
}  // namespace spmvml
