// Chaos-hardened serving tests (DESIGN.md §5h): deterministic fault
// replay through the Service, the degradation ladder (chaos exhaustion
// and open breakers both land on the static CSR floor), bounded
// retries, deadline-feasibility shedding, the batch watchdog, crash-
// safe registry swaps with a journaled rollback, SIGTERM drain, and
// the non-perturbation proof (chaos compiled in but disabled changes
// no output byte).
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos/chaos.hpp"
#include "common/error.hpp"
#include "core/format_selector.hpp"
#include "core/label_collector.hpp"
#include "core/perf_model.hpp"
#include "features/features.hpp"
#include "serve/drain.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "sparse/mmio.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

using serve::ModelRegistry;
using serve::Request;
using serve::RequestMode;
using serve::Response;
using serve::Service;
using serve::ServiceConfig;

const LabeledCorpus& shared_corpus() {
  static const LabeledCorpus corpus = collect_corpus(make_small_plan(40, 654));
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

/// A temp Matrix Market file that removes itself.
struct TempMatrixFile {
  std::string path;
  explicit TempMatrixFile(const std::string& name, int seed) : path(name) {
    write_matrix_market(path, generate(make_small_plan(1, seed).specs[0]));
  }
  ~TempMatrixFile() { std::remove(path.c_str()); }
};

Request file_request(const std::string& id, RequestMode mode,
                     const std::string& path) {
  Request req;
  req.id = id;
  req.mode = mode;
  req.matrix_path = path;
  return req;
}

std::shared_ptr<chaos::Engine> engine_from(const std::string& text) {
  return std::make_shared<chaos::Engine>(chaos::Scenario::parse_string(text));
}

ServiceConfig quick_config() {
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  cfg.cache_capacity = 0;  // every request walks the extract stage
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool valid_format(const Response& r) {
  const int f = static_cast<int>(r.format);
  return f >= 0 && f < kNumFormats;
}

// --- Deterministic replay ------------------------------------------------

TEST(ChaosServe, SameSeedSameResponses) {
  TempMatrixFile m("robustness_replay.tmp.mtx", 11);
  const std::string scenario =
      "seed 7\n"
      "rule site=feature_extract kind=error rate=0.4\n"
      "rule site=inference kind=corrupt rate=0.25\n";
  constexpr RequestMode kModes[] = {RequestMode::kSelect,
                                    RequestMode::kIndirect};

  const auto run = [&] {
    chaos::ScopedGlobalEngine scoped(engine_from(scenario));
    ModelRegistry registry;
    registry.install(tree_selector(), tree_perf());
    Service service(quick_config(), registry);
    std::vector<std::string> fingerprints;
    for (int k = 0; k < 12; ++k) {
      const Response r = service.call(file_request(
          "r" + std::to_string(k), kModes[k % 2], m.path));
      std::ostringstream fp;
      fp << r.ok << '|' << r.error << '|' << static_cast<int>(r.format) << '|'
         << r.degraded << '|' << r.degrade_reason << '|' << r.retries;
      fingerprints.push_back(fp.str());
    }
    return fingerprints;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

// --- Degradation ladder --------------------------------------------------

TEST(ChaosServe, FeatureExhaustionDegradesSelectToCsrFailsPredict) {
  TempMatrixFile m("robustness_feat.tmp.mtx", 12);
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 1\nrule site=feature_extract kind=error rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;  // keep the breaker out of this test
  Service service(cfg, registry);

  const Response sel =
      service.call(file_request("s1", RequestMode::kSelect, m.path));
  ASSERT_TRUE(sel.ok) << sel.error;
  EXPECT_TRUE(sel.degraded);
  EXPECT_EQ(sel.degrade_reason, "chaos:feature_extract");
  EXPECT_EQ(sel.format, Format::kCsr);  // ladder floor: always valid
  EXPECT_EQ(sel.retries, cfg.max_retries);

  // Predict has no degradation floor: no features means no answer.
  const Response prd =
      service.call(file_request("p1", RequestMode::kPredict, m.path));
  EXPECT_FALSE(prd.ok);
  EXPECT_FALSE(prd.error.empty());
}

TEST(ChaosServe, InferenceCorruptionDegradesToCsr) {
  TempMatrixFile m("robustness_inf.tmp.mtx", 13);
  chaos::ScopedGlobalEngine scoped(
      engine_from("seed 2\nrule site=inference kind=corrupt rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;
  Service service(cfg, registry);

  const Response r =
      service.call(file_request("c1", RequestMode::kSelect, m.path));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.degrade_reason, "chaos:inference");
  EXPECT_EQ(r.format, Format::kCsr);
  EXPECT_TRUE(valid_format(r));
}

TEST(ChaosServe, PersistentFaultsTripBreakerThenLadderShortCircuits) {
  TempMatrixFile m("robustness_brk.tmp.mtx", 14);
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 3\nrule site=feature_extract kind=error rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;  // sequential batches: deterministic breaker feed
  cfg.breaker.window = 4;
  cfg.breaker.open_cooldown_ms = 60000.0;  // stays open for the test
  Service service(cfg, registry);

  std::vector<Response> responses;
  for (int k = 0; k < 10; ++k)
    responses.push_back(
        service.call(file_request("b" + std::to_string(k),
                                  RequestMode::kSelect, m.path)));
  // Every answer stays servable and valid...
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.format, Format::kCsr);
  }
  // ...but once the breaker opens the stage is no longer *tried*: the
  // tail degrades via the breaker rung with zero retries burned.
  EXPECT_GE(service.counters().breaker_trips, 1u);
  const Response& last = responses.back();
  EXPECT_EQ(last.degrade_reason, "breaker:features");
  EXPECT_EQ(last.retries, 0);
}

TEST(ChaosServe, RetriesRecoverTransientFaults) {
  TempMatrixFile m("robustness_retry.tmp.mtx", 15);
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 4\nrule site=feature_extract kind=error rate=0.5\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.max_retries = 3;
  cfg.breaker.window = 1000;
  Service service(cfg, registry);

  bool saw_recovered_retry = false;
  for (int k = 0; k < 24; ++k) {
    const Response r = service.call(
        file_request("t" + std::to_string(k), RequestMode::kSelect, m.path));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(valid_format(r));
    if (r.retries > 0 && !r.degraded) saw_recovered_retry = true;
  }
  // At rate 0.5 with 3 retries, some request faulted and then recovered
  // un-degraded on a re-roll (chaos transients are retryable).
  EXPECT_TRUE(saw_recovered_retry);
  EXPECT_GT(service.counters().retries, 0u);
}

// --- The whole ladder, pinned --------------------------------------------

// How a row knocks one rung out before its pinned request: a stage's
// breaker held open, a chaos fault that outlives the retry budget, an
// expired deadline, or a bundle without regressors.
enum class Knock {
  kFeaturesBreaker,
  kFeaturesChaos,
  kInferenceBreaker,
  kInferenceChaos,
  kRegressBreaker,
  kMaterializeBreaker,
  kMaterializeChaos,
  kDeadline,
  kNoPerfModel,
};
enum class Route { kSelect, kIndirect, kPredict, kSelectMaterialize };
// Served format (and `predicted`): the static-CSR floor, or the clean
// answer of the direct / indirect path for the same matrix.
enum class Pick { kCsr, kDirect, kIndirect };

struct LadderRow {
  Knock knock;
  Route route;
  bool ok;
  const char* error;
  Pick pick;
  const char* reason;  // degrade_reason; "" = not degraded
  int retries;
  bool materialized;
  std::uint64_t trips;  // breaker_trips added by the pinned request
};

constexpr const char* kFeatPredictOpen =
    "unavailable: feature stage breaker open (predict has no degradation "
    "floor)";
constexpr const char* kFeatPredictChaos =
    "io: injected feature-extract fault persisted past the retry budget";
constexpr const char* kInfPredictOpen =
    "unavailable: inference breaker open (predict has no degradation floor)";
constexpr const char* kInfPredictChaos =
    "model-format: injected inference fault persisted past the retry budget";
constexpr const char* kRegPredictOpen =
    "unavailable: regress breaker open (predict has no degradation floor)";
constexpr const char* kNoPerfPredict =
    "model-format: no perf model installed (predict needs --perf-model)";

using K = Knock;
using R = Route;
using P = Pick;
constexpr LadderRow kLadder[] = {
    {K::kFeaturesBreaker, R::kSelect, true, "", P::kCsr, "breaker:features", 0, false, 0},
    {K::kFeaturesBreaker, R::kIndirect, true, "", P::kCsr, "breaker:features", 0, false, 0},
    {K::kFeaturesBreaker, R::kPredict, false, kFeatPredictOpen, P::kCsr, "", 0, false, 0},
    {K::kFeaturesBreaker, R::kSelectMaterialize, true, "", P::kCsr, "breaker:features", 0, false, 0},
    {K::kFeaturesChaos, R::kSelect, true, "", P::kCsr, "chaos:feature_extract", 2, false, 1},
    {K::kFeaturesChaos, R::kIndirect, true, "", P::kCsr, "chaos:feature_extract", 2, false, 1},
    {K::kFeaturesChaos, R::kPredict, false, kFeatPredictChaos, P::kCsr, "", 2, false, 1},
    {K::kFeaturesChaos, R::kSelectMaterialize, true, "", P::kCsr, "chaos:feature_extract", 2, true, 1},
    {K::kInferenceBreaker, R::kSelect, true, "", P::kCsr, "breaker:inference", 0, false, 0},
    {K::kInferenceBreaker, R::kIndirect, true, "", P::kCsr, "breaker:inference", 0, false, 0},
    {K::kInferenceBreaker, R::kPredict, false, kInfPredictOpen, P::kCsr, "", 0, false, 0},
    {K::kInferenceBreaker, R::kSelectMaterialize, true, "", P::kCsr, "breaker:inference", 0, true, 0},
    {K::kInferenceChaos, R::kSelect, true, "", P::kCsr, "chaos:inference", 2, false, 1},
    {K::kInferenceChaos, R::kIndirect, true, "", P::kCsr, "chaos:inference", 2, false, 1},
    {K::kInferenceChaos, R::kPredict, false, kInfPredictChaos, P::kCsr, "", 2, false, 1},
    {K::kInferenceChaos, R::kSelectMaterialize, true, "", P::kCsr, "chaos:inference", 2, true, 1},
    {K::kRegressBreaker, R::kSelect, true, "", P::kDirect, "", 0, false, 0},
    {K::kRegressBreaker, R::kIndirect, true, "", P::kDirect, "breaker:regress", 0, false, 0},
    {K::kRegressBreaker, R::kPredict, false, kRegPredictOpen, P::kDirect, "", 0, false, 0},
    {K::kRegressBreaker, R::kSelectMaterialize, true, "", P::kDirect, "", 0, true, 0},
    {K::kMaterializeBreaker, R::kSelect, true, "", P::kDirect, "", 0, false, 0},
    {K::kMaterializeBreaker, R::kIndirect, true, "", P::kIndirect, "", 0, false, 0},
    {K::kMaterializeBreaker, R::kPredict, true, "", P::kDirect, "", 0, false, 0},
    {K::kMaterializeBreaker, R::kSelectMaterialize, true, "", P::kDirect, "breaker:materialize", 0, false, 0},
    {K::kMaterializeChaos, R::kSelect, true, "", P::kDirect, "", 0, false, 0},
    {K::kMaterializeChaos, R::kIndirect, true, "", P::kIndirect, "", 0, false, 0},
    {K::kMaterializeChaos, R::kPredict, true, "", P::kDirect, "", 0, false, 0},
    {K::kMaterializeChaos, R::kSelectMaterialize, true, "", P::kDirect, "chaos:materialize", 2, false, 1},
    {K::kDeadline, R::kSelect, true, "", P::kDirect, "", 0, false, 0},
    {K::kDeadline, R::kIndirect, true, "", P::kDirect, "deadline", 0, false, 0},
    {K::kDeadline, R::kPredict, true, "", P::kDirect, "", 0, false, 0},
    {K::kDeadline, R::kSelectMaterialize, true, "", P::kDirect, "", 0, true, 0},
    {K::kNoPerfModel, R::kSelect, true, "", P::kDirect, "", 0, false, 0},
    {K::kNoPerfModel, R::kIndirect, true, "", P::kDirect, "no_perf_model", 0, false, 0},
    {K::kNoPerfModel, R::kPredict, false, kNoPerfPredict, P::kDirect, "", 0, false, 0},
    {K::kNoPerfModel, R::kSelectMaterialize, true, "", P::kDirect, "", 0, true, 0},
};

Request ladder_request(const std::string& id, Route route,
                       const std::string& path,
                       const FeatureVector* inline_features) {
  const RequestMode modes[] = {RequestMode::kSelect, RequestMode::kIndirect,
                               RequestMode::kPredict, RequestMode::kSelect};
  Request req = file_request(id, modes[static_cast<int>(route)], path);
  req.materialize = route == Route::kSelectMaterialize;
  if (inline_features != nullptr) {
    req.features.assign(inline_features->values.begin(),
                        inline_features->values.end());
    if (!req.materialize) req.matrix_path.clear();
  }
  return req;
}

// Serve one row: a fresh service, the row's knock, then the pinned
// request, with the counter deltas that request alone produced.
Response serve_ladder_row(const LadderRow& row, const std::string& path,
                          const FeatureVector& features,
                          Service::Counters& delta) {
  ModelRegistry registry;
  if (row.knock == Knock::kNoPerfModel)
    registry.install(tree_selector());
  else
    registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;
  cfg.breaker.window = 2;
  cfg.breaker.open_cooldown_ms = 60000.0;  // an opened breaker stays open
  const char* chaos_site = nullptr;
  switch (row.knock) {
    case Knock::kFeaturesBreaker:
    case Knock::kFeaturesChaos: chaos_site = "feature_extract"; break;
    case Knock::kInferenceBreaker:
    case Knock::kInferenceChaos: chaos_site = "inference"; break;
    case Knock::kMaterializeBreaker:
    case Knock::kMaterializeChaos: chaos_site = "materialize"; break;
    default: break;
  }
  const bool chaos_knock = row.knock == Knock::kFeaturesChaos ||
                           row.knock == Knock::kInferenceChaos ||
                           row.knock == Knock::kMaterializeChaos;
  // A chaos row trips its stage's breaker on the pinned request's own
  // exhausted fault, which shows in the trips delta.
  if (chaos_knock) cfg.breaker.window = 1;
  // The regress breaker has no chaos site: open it on latency. Every
  // breaker shares the threshold, so the requests carry inline features
  // (the feature breaker never runs), and the inference breaker, which
  // trips first, is left half-open — it passes traffic and does not trip
  // on latency — before the regress breaker is opened.
  const bool regress_knock = row.knock == Knock::kRegressBreaker;
  if (regress_knock) {
    cfg.breaker.latency_threshold_ms = 1e-9;
    cfg.breaker.open_cooldown_ms = 300.0;
    cfg.breaker.half_open_probes = 1000;
  }
  const std::string scenario =
      chaos_site == nullptr
          ? std::string()
          : "seed 21\nrule site=" + std::string(chaos_site) +
                " kind=error rate=1\n";
  const FeatureVector* inline_features = regress_knock ? &features : nullptr;
  Service service(cfg, registry);

  if (chaos_site != nullptr && !chaos_knock) {
    chaos::ScopedGlobalEngine scoped(engine_from(scenario));
    const Route trip_route = row.knock == Knock::kMaterializeBreaker
                                 ? Route::kSelectMaterialize
                                 : Route::kSelect;
    for (int k = 0; k < 2; ++k)
      EXPECT_TRUE(service
                      .call(ladder_request("trip" + std::to_string(k),
                                           trip_route, path, nullptr))
                      .ok);
  }
  if (regress_knock) {
    for (int k = 0; k < 2; ++k)
      service.call(ladder_request("warm" + std::to_string(k), Route::kSelect,
                                  path, inline_features));
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    for (int k = 0; k < 2; ++k)
      service.call(ladder_request("trip" + std::to_string(k), Route::kPredict,
                                  path, inline_features));
  }

  Request req = ladder_request("pinned", row.route, path, inline_features);
  if (row.knock == Knock::kDeadline) req.deadline_ms = 1e-6;
  const Service::Counters before = service.counters();
  Response r;
  if (chaos_knock) {
    chaos::ScopedGlobalEngine scoped(engine_from(scenario));
    r = service.call(req);
  } else {
    r = service.call(req);
  }
  const Service::Counters after = service.counters();
  delta.served = after.served - before.served;
  delta.rejected = after.rejected - before.rejected;
  delta.degraded = after.degraded - before.degraded;
  delta.failed = after.failed - before.failed;
  delta.shed = after.shed - before.shed;
  delta.retries = after.retries - before.retries;
  delta.watchdog_killed = after.watchdog_killed - before.watchdog_killed;
  delta.breaker_trips = after.breaker_trips - before.breaker_trips;
  return r;
}

TEST(ChaosServe, LadderOutcomesArePinned) {
  TempMatrixFile m("robustness_ladder.tmp.mtx", 22);
  const FeatureVector features = extract_features(read_matrix_market(m.path));

  // The clean answers of both selection paths, for the Pick column.
  Response direct, indirect;
  {
    ModelRegistry registry;
    registry.install(tree_selector(), tree_perf());
    Service service(quick_config(), registry);
    direct = service.call(file_request("d", RequestMode::kSelect, m.path));
    indirect = service.call(file_request("i", RequestMode::kIndirect, m.path));
    ASSERT_TRUE(direct.ok) << direct.error;
    ASSERT_TRUE(indirect.ok) << indirect.error;
    // The rungs stay distinguishable only if the two picks differ from
    // each other and from the CSR floor.
    ASSERT_NE(direct.format, Format::kCsr);
    ASSERT_NE(indirect.format, Format::kCsr);
    ASSERT_NE(direct.format, indirect.format);
  }

  const char* knocks[] = {"features_breaker", "features_chaos",
                          "inference_breaker", "inference_chaos",
                          "regress_breaker", "materialize_breaker",
                          "materialize_chaos", "deadline", "no_perf_model"};
  const char* routes[] = {"select", "indirect", "predict",
                          "select+materialize"};
  for (const LadderRow& row : kLadder) {
    SCOPED_TRACE(std::string(knocks[static_cast<int>(row.knock)]) + " x " +
                 routes[static_cast<int>(row.route)]);
    Service::Counters delta;
    const Response r = serve_ladder_row(row, m.path, features, delta);
    const Response& want = row.pick == Pick::kDirect     ? direct
                           : row.pick == Pick::kIndirect ? indirect
                                                         : Response{};
    const bool degraded = row.reason[0] != '\0';
    EXPECT_EQ(r.ok, row.ok);
    EXPECT_EQ(r.error, row.error);
    EXPECT_EQ(r.format, want.format);
    EXPECT_EQ(r.predicted, want.predicted);
    EXPECT_EQ(r.degraded, degraded);
    EXPECT_EQ(r.degrade_reason, row.reason);
    EXPECT_EQ(r.retries, row.retries);
    EXPECT_EQ(r.materialized, row.materialized);

    EXPECT_EQ(delta.served, 1u);
    EXPECT_EQ(delta.rejected, 0u);
    EXPECT_EQ(delta.shed, 0u);
    EXPECT_EQ(delta.watchdog_killed, 0u);
    EXPECT_EQ(delta.failed, row.ok ? 0u : 1u);
    EXPECT_EQ(delta.degraded, row.ok && degraded ? 1u : 0u);
    EXPECT_EQ(delta.retries, static_cast<std::uint64_t>(row.retries));
    EXPECT_EQ(delta.breaker_trips, row.trips);
  }
}

TEST(ChaosServe, CsrFloorHoldsUnderAMemoryBudget) {
  // A request that fell to the CSR rung is served CSR even when a memory
  // budget makes the feasibility mask live: the classifier the stage
  // dropped is not consulted again through select_feasible.
  TempMatrixFile m("robustness_floor_budget.tmp.mtx", 22);
  chaos::ScopedGlobalEngine scoped(
      engine_from("seed 23\nrule site=inference kind=error rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;
  cfg.mem_budget_gb = 1000.0;  // every format fits
  Service service(cfg, registry);

  const Response r =
      service.call(file_request("fb", RequestMode::kSelect, m.path));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.degrade_reason, "chaos:inference");
  EXPECT_EQ(r.format, Format::kCsr);
  EXPECT_EQ(r.predicted, Format::kCsr);
  EXPECT_FALSE(r.fallback);
}

// --- Admission shedding --------------------------------------------------

TEST(ChaosServe, OverloadShedsAtAdmissionWithReasonCode) {
  TempMatrixFile m("robustness_shed.tmp.mtx", 16);
  // 20 ms injected per extraction makes the per-item cost EWMA honest
  // about an overload the moment the first batch lands.
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 5\n"
      "rule site=feature_extract kind=latency rate=1 latency_ms=20\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;
  cfg.max_batch = 1;
  cfg.admission_target_ms = 0.5;
  Service service(cfg, registry);

  // Warm the cost EWMA with one served request.
  const Response warm =
      service.call(file_request("w", RequestMode::kSelect, m.path));
  ASSERT_TRUE(warm.ok) << warm.error;

  std::vector<std::future<Response>> futures;
  for (int k = 0; k < 8; ++k)
    futures.push_back(service.submit(
        file_request("o" + std::to_string(k), RequestMode::kSelect, m.path)));
  int shed = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    if (!r.ok && r.shed == "shed:overload") {
      EXPECT_EQ(r.error.rfind("rejected", 0), 0u) << r.error;
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_EQ(service.counters().shed, static_cast<std::uint64_t>(shed));
}

TEST(ChaosServe, InfeasibleDeadlineIsShedNotQueued) {
  TempMatrixFile m("robustness_dl.tmp.mtx", 17);
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 6\n"
      "rule site=feature_extract kind=latency rate=1 latency_ms=20\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;
  cfg.max_batch = 1;
  // No admission target: only the request's own deadline can shed it.
  cfg.admission_target_ms = 0.0;
  Service service(cfg, registry);

  const Response warm =
      service.call(file_request("w", RequestMode::kSelect, m.path));
  ASSERT_TRUE(warm.ok) << warm.error;

  // Park work on the single worker, then offer an impossible deadline.
  auto parked =
      service.submit(file_request("park", RequestMode::kSelect, m.path));
  Request doomed = file_request("dl", RequestMode::kSelect, m.path);
  doomed.deadline_ms = 0.001;
  const Response r = service.call(doomed);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.shed, "shed:deadline");
  EXPECT_EQ(r.error.rfind("rejected", 0), 0u) << r.error;
  EXPECT_TRUE(parked.get().ok);
}

// --- Watchdog ------------------------------------------------------------

TEST(ChaosWatchdog, StuckBatchIsFailedCleanlyOnce) {
  TempMatrixFile m("robustness_wd.tmp.mtx", 18);
  // One injected 400 ms stall versus a 50 ms watchdog budget.
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 8\n"
      "rule site=feature_extract kind=latency rate=1 latency_ms=400\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;
  cfg.watchdog_ms = 50.0;
  Service service(cfg, registry);

  const Response r =
      service.call(file_request("wd", RequestMode::kSelect, m.path));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
  EXPECT_EQ(service.counters().watchdog_killed, 1u);
  // The stuck worker finishing later must not double-deliver: shutdown
  // (via the destructor) waits it out; counters must stay consistent.
  service.shutdown();
  EXPECT_EQ(service.counters().watchdog_killed, 1u);
}

TEST(ChaosWatchdog, HealthyBatchesAreNeverKilled) {
  TempMatrixFile m("robustness_wd_ok.tmp.mtx", 19);
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.watchdog_ms = 2000.0;
  Service service(cfg, registry);
  for (int k = 0; k < 8; ++k) {
    const Response r = service.call(
        file_request("h" + std::to_string(k), RequestMode::kSelect, m.path));
    EXPECT_TRUE(r.ok) << r.error;
  }
  EXPECT_EQ(service.counters().watchdog_killed, 0u);
}

// --- Crash-safe model swaps ----------------------------------------------

TEST(ChaosRegistry, MidSwapFaultRollsBackAndJournals) {
  ModelRegistry registry;
  const std::uint64_t v1 = registry.install(tree_selector(), tree_perf());
  EXPECT_EQ(v1, 1u);

  {
    chaos::ScopedGlobalEngine scoped(engine_from(
        "seed 9\nrule site=registry_swap kind=error rate=1\n"));
    try {
      registry.install(tree_selector(), tree_perf());
      FAIL() << "mid-swap fault did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kIo);
    }
  }
  // Previous bundle stayed live; no version was burned on the failure.
  EXPECT_EQ(registry.version(), 1u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version, 1u);

  // Chaos lifted: the next swap publishes the next version with no gap.
  const std::uint64_t v2 = registry.install(tree_selector(), tree_perf());
  EXPECT_EQ(v2, 2u);

  const auto history = registry.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].action, "install");
  EXPECT_EQ(history[0].version, 1u);
  EXPECT_EQ(history[1].action, "rollback");
  EXPECT_EQ(history[1].version, 0u);
  EXPECT_NE(history[1].detail.find("injected"), std::string::npos);
  EXPECT_EQ(history[2].action, "install");
  EXPECT_EQ(history[2].version, 2u);
}

TEST(ChaosRegistry, ServiceKeepsServingAcrossRolledBackSwap) {
  TempMatrixFile m("robustness_swap.tmp.mtx", 20);
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  Service service(cfg, registry);

  {
    chaos::ScopedGlobalEngine scoped(engine_from(
        "seed 10\nrule site=registry_swap kind=error rate=1\n"));
    EXPECT_THROW(registry.install(tree_selector(), tree_perf()), Error);
    // The registry is never without a valid bundle: requests racing the
    // failed swap are served by the surviving version.
    const Response r =
        service.call(file_request("sw", RequestMode::kSelect, m.path));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.model_version, 1u);
  }
}

// --- Graceful drain ------------------------------------------------------

TEST(DrainHandler, SigtermSetsTheFlagExactlyLikeRequestDrain) {
  serve::install_drain_handler();
  serve::reset_drain_for_test();
  EXPECT_FALSE(serve::drain_requested());

  std::raise(SIGTERM);  // handled: one relaxed flag store, no teardown
  EXPECT_TRUE(serve::drain_requested());

  serve::reset_drain_for_test();
  EXPECT_FALSE(serve::drain_requested());
  serve::request_drain();
  EXPECT_TRUE(serve::drain_requested());
  serve::reset_drain_for_test();
}

// --- Non-perturbation proof ----------------------------------------------

TEST(ChaosServe, InstalledButSilentChaosChangesNoOutputByte) {
  const auto plan = make_small_plan(6, 77);
  const std::string path = testing::TempDir() + "/robustness_csv.tmp.csv";

  const auto reference = collect_corpus(plan);
  save_corpus_csv(path, reference, plan.size());
  const std::string reference_csv = slurp(path);

  {
    // Chaos engine installed with every serving site armed at rate 0:
    // the instrumentation is live on the hot path yet must inject
    // nothing and perturb nothing.
    chaos::ScopedGlobalEngine scoped(engine_from(
        "seed 123\n"
        "rule site=request_parse kind=error rate=0\n"
        "rule site=cache_lookup kind=latency rate=0 latency_ms=1\n"
        "rule site=feature_extract kind=error rate=0\n"
        "rule site=materialize kind=corrupt rate=0\n"
        "rule site=inference kind=error rate=0\n"
        "rule site=registry_swap kind=error rate=0\n"
        "rule site=oracle_measure kind=error rate=0\n"));
    const auto observed = collect_corpus(plan);
    save_corpus_csv(path, observed, plan.size());
  }
  const std::string observed_csv = slurp(path);
  EXPECT_EQ(reference_csv, observed_csv);
  EXPECT_FALSE(reference_csv.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spmvml
