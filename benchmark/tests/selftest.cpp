// Self-tests of the benchmark's own arithmetic and checks: a benchmark
// whose percentiles, ladder or due-time accounting were wrong would
// report plausible wrong numbers, and one whose checks accepted wrong
// answers would report speed-ups that broke the program.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "core/label_collector.hpp"
#include "json.hpp"
#include "ladder.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "sparse/spmv.hpp"
#include "stats.hpp"
#include "synth/corpus.hpp"

namespace spmvml::bench {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {7, 1, 10, 3, 2, 9, 4, 6, 5, 8};
  EXPECT_EQ(percentile(v, 10), 1);
  EXPECT_EQ(percentile(v, 50), 5);
  EXPECT_EQ(percentile(v, 51), 6);
  EXPECT_EQ(percentile(v, 90), 9);
  EXPECT_EQ(percentile(v, 95), 10);
  EXPECT_EQ(percentile(v, 100), 10);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(percentile({}, 50), 0);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Tail, NeedsTenSamplesBeyond) {
  // 999 samples: p99 has only 9 beyond it, so the tail falls back to p98.
  Tail t = tail(ramp(999));
  EXPECT_EQ(t.percentile, 98.0);
  EXPECT_EQ(t.value, 980.0);
  EXPECT_EQ(t.beyond, 19u);
  // 500 samples: p98 (rank 490) has exactly 10 beyond; 100 samples: p90.
  EXPECT_EQ(tail(ramp(500)).percentile, 98.0);
  EXPECT_EQ(tail(ramp(100)).percentile, 90.0);
  // 1000 samples: p99 (rank 990) has exactly 10 beyond; p99.9 has 1.
  t = tail(ramp(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  // 10000 samples support p99.9.
  t = tail(ramp(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.value, 9990.0);
  // Too few samples for any percentile: the maximum.
  t = tail(ramp(12));
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.value, 12.0);
  EXPECT_EQ(t.samples, 12u);
}

TEST(Tail, WindowedTailIsTheQuietestWindow) {
  // Four windows of 1000 samples; all but one start with a burst of 50
  // slow ones, as stalls from other tenants would add.
  std::vector<double> v;
  for (int w = 0; w < 4; ++w)
    for (int i = 0; i < 1000; ++i)
      v.push_back(w != 2 && i < 50 ? 100.0 : 1.0 + i / 1000.0);
  const Tail t = windowed_tail(v, 1000);
  EXPECT_EQ(t.windows, 4u);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 1.0 + 989 / 1000.0);
  // Over the whole sample the bursts own the p99.
  EXPECT_EQ(tail(v).value, 100.0);
  // A short last window joins the one before; under two windows, no split.
  EXPECT_EQ(windowed_tail(std::vector<double>(v.begin(), v.begin() + 2500), 1000)
                .windows,
            2u);
  EXPECT_EQ(windowed_tail(std::vector<double>(v.begin(), v.begin() + 1500), 1000)
                .windows,
            1u);
}

TEST(Geomean, Basics) {
  const std::vector<double> a = {1, 4};
  EXPECT_DOUBLE_EQ(geomean(a), 2.0);
  const std::vector<double> b = {2, 8, 4};
  EXPECT_NEAR(geomean(b), 4.0, 1e-12);
  const std::vector<double> c = {2, 0};
  EXPECT_EQ(geomean(c), 0.0);
  EXPECT_EQ(geomean(std::vector<double>{}), 0.0);
}

// A synthetic server: p95 latency grows without bound as the rate nears
// capacity, so a step passes below a sharp threshold rate.
double threshold_rps(double capacity, double base_ms, double k, double slo_ms) {
  // base + k / (capacity - r) = slo  =>  r = capacity - k / (slo - base)
  return capacity - k / (slo_ms - base_ms);
}

TEST(Ladder, BisectsToWithinResolution) {
  const double capacity = 3200, base = 1.0, k = 800.0, slo = 5.0;
  const double truth = threshold_rps(capacity, base, k, slo);  // 3000
  const auto step = [&](double r) {
    return r < capacity && base + k / (capacity - r) <= slo;
  };
  const LadderResult up = run_ladder(1000, step);
  EXPECT_LE(up.max_rps, truth);
  EXPECT_GE(up.max_rps, truth / 1.05);
  EXPECT_TRUE(up.steps.front().pass);

  // Starting above capacity, the ladder descends before bisecting.
  const LadderResult down = run_ladder(10000, step);
  EXPECT_FALSE(down.steps.front().pass);
  EXPECT_LE(down.max_rps, truth);
  EXPECT_GE(down.max_rps, truth / 1.05);

  // Nothing passes: 0.
  EXPECT_EQ(run_ladder(100, [](double) { return false; }).max_rps, 0.0);
}

// Echoes every request back immediately, except that writing request
// `stall_at` blocks for `stall_ms` — a generator stuck on a full pipe —
// and that requests listed in `errors`, `shed` and `dropped` get an error
// response, a shed response and no response.
class StallingEcho final : public LineTransport {
 public:
  StallingEcho(std::size_t stall_at, int stall_ms)
      : stall_at_(stall_at), stall_ms_(stall_ms) {}

  std::vector<std::size_t> errors, shed, dropped;

  void send_line(const std::string& line) override {
    const std::size_t index = sent_++;
    if (index == stall_at_)
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    const auto listed = [&](const std::vector<std::size_t>& v) {
      return std::find(v.begin(), v.end(), index) != v.end();
    };
    if (listed(dropped)) return;
    const Json req = parse_json(line);
    std::string reply = "{\"id\":\"" + req.str("id") + "\",";
    if (listed(errors))
      reply += "\"ok\":false,\"error\":\"io\"}";
    else if (listed(shed))
      reply += "\"ok\":false,\"shed\":\"shed:overload\"}";
    else
      reply += "\"ok\":true}";
    std::lock_guard<std::mutex> lock(mu_);
    replies_.push_back(reply);
    cv_.notify_one();
  }

  bool recv_line(std::string& line, double timeout_s) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return !replies_.empty(); }))
      return false;
    line = replies_.front();
    replies_.pop_front();
    return true;
  }

 private:
  std::size_t stall_at_;
  int stall_ms_;
  std::size_t sent_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> replies_;
};

TEST(OpenLoop, LatencyCountsFromDueTimeThroughAStall) {
  constexpr std::size_t kLines = 40;
  constexpr std::size_t kStallAt = 10;
  constexpr int kStallMs = 60;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kLines; ++i)
    lines.push_back("{\"id\":\"t" + std::to_string(i) + "\"}");
  StallingEcho echo(kStallAt, kStallMs);
  const Phase p = run_open_loop(echo, lines, 1000.0, "t", 5.0);  // 1 ms apart
  ASSERT_EQ(p.unanswered, 0u);
  // Before the stall the echo answers within a few milliseconds.
  for (std::size_t i = 0; i < kStallAt; ++i)
    EXPECT_LT(p.samples[i].latency_ms(), 20.0) << i;
  // Every request due during the stall waited for it: its latency runs
  // from its due time, and the generator records how late it sent.
  const double stall_end_ms = static_cast<double>(kStallAt) + kStallMs;
  for (std::size_t i = kStallAt + 1; i < kLines; ++i) {
    const Sample& s = p.samples[i];
    EXPECT_DOUBLE_EQ(s.due_ms, static_cast<double>(i));
    EXPECT_GE(s.latency_ms(), stall_end_ms - s.due_ms - 1.0) << i;
    EXPECT_GE(s.late_ms(), stall_end_ms - s.due_ms - 1.0) << i;
    // Timed from the send instead, the same request would look fast.
    EXPECT_LT(s.recv_ms - s.sent_ms, 20.0) << i;
  }
}

TEST(OpenLoop, FailedRequestsCountAsFailuresNotAsFastLatencies) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 20; ++i)
    lines.push_back("{\"id\":\"e" + std::to_string(i) + "\"}");
  StallingEcho clean(lines.size(), 0);
  const Phase ok = run_open_loop(clean, lines, 1000.0, "e", 1.0);
  EXPECT_EQ(failures(ok), 0u);
  EXPECT_EQ(latencies(ok).size(), lines.size());
  EXPECT_EQ(check_no_failures(ok), "");

  StallingEcho faulty(lines.size(), 0);
  faulty.errors = {3};
  faulty.shed = {7, 8};
  faulty.dropped = {12};
  const Phase bad = run_open_loop(faulty, lines, 1000.0, "e", 0.2);
  EXPECT_EQ(bad.unanswered, 1u);
  EXPECT_EQ(failures(bad), 4u);
  // Only the 16 served requests have a latency.
  EXPECT_EQ(latencies(bad).size(), lines.size() - 4);
  EXPECT_NE(check_no_failures(bad), "");
}

TEST(Ledger, SelfTimeSubtractsChildCoverage) {
  const auto ev = [](const char* name, double ts, double dur, int tid,
                     const char* id) {
    obs::TraceEvent e;
    e.name = name;
    e.ts_us = ts;
    e.dur_us = dur;
    e.tid = tid;
    if (id != nullptr) e.args.push_back({"id", id});
    return e;
  };
  const std::vector<obs::TraceEvent> events = {
      ev("bench.a", 0, 100, 1, nullptr),
      ev("bench.b", 10, 20, 1, nullptr),
      ev("bench.c", 12, 8, 1, nullptr),  // inside b
      ev("bench.b", 40, 10, 1, nullptr),
      ev("other", 60, 10, 1, nullptr),   // not a bench span
      // Two concurrent requests on one thread, told apart by id.
      ev("bench.r", 200, 100, 2, "\"x\""),
      ev("bench.r", 250, 100, 2, "\"y\""),
      ev("bench.s", 260, 40, 2, "\"x\""),
      ev("bench.s", 300, 50, 2, "\"y\""),
  };
  const auto rows = layer_table(events);
  EXPECT_DOUBLE_EQ(self_ms(rows, "bench.a") * 1e3, 70.0);
  EXPECT_DOUBLE_EQ(self_ms(rows, "bench.b") * 1e3, 22.0);
  EXPECT_DOUBLE_EQ(total_ms(rows, "bench.b") * 1e3, 30.0);
  EXPECT_DOUBLE_EQ(self_ms(rows, "bench.c") * 1e3, 8.0);
  EXPECT_DOUBLE_EQ(self_ms(rows, "bench.r") * 1e3, 110.0);
  EXPECT_DOUBLE_EQ(self_ms(rows, "other"), 0.0);
}

TEST(Checks, RejectAServedSelectThatDiffersFromTheOneShotSelector) {
  const LabeledCorpus corpus = collect_corpus(make_small_plan(24, 5));
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet12,
                          kAllFormats, /*fast=*/true);
  selector.fit(corpus, 1, Precision::kDouble);
  const Csr<double> m = make_matrix(MatrixFamily::kBanded, 2000, 9.0, 3);
  const std::string expected = format_name(selector.select(m));
  const std::vector<std::string> one_shot = {expected};

  std::vector<Sample> samples(3);
  std::vector<RequestInfo> requests(3);
  for (std::size_t i = 0; i < 3; ++i) {
    samples[i].answered = samples[i].ok = true;
    samples[i].format = expected;
    requests[i].mode = static_cast<Mode>(i);
  }
  EXPECT_EQ(check_selects(samples, requests, one_shot), "");
  // A wrong format on an indirect or predict answer is not a select claim.
  samples[1].format = "not-a-format";
  EXPECT_EQ(check_selects(samples, requests, one_shot), "");
  const Format wrong =
      parse_format(expected) == Format::kCsr ? Format::kEll : Format::kCsr;
  samples[0].format = format_name(wrong);
  EXPECT_NE(check_selects(samples, requests, one_shot), "");
}

TEST(Checks, RejectAWrongY) {
  const Csr<double> m = make_matrix(MatrixFamily::kUniformRandom, 500, 8.0, 4);
  std::vector<double> x(500, 1.0), y(500), ref(500);
  spmv_reference(m, x, ref);
  AnyMatrix<double>::build(Format::kSell, m).spmv(x, y);
  EXPECT_EQ(check_vector(y, ref, 1e-9), "");
  std::vector<double> bad = y;
  bad[17] *= 1.0 + 1e-6;
  EXPECT_NE(check_vector(bad, ref, 1e-9), "");
  bad = y;
  bad[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(check_vector(bad, ref, 1e-9), "");
  EXPECT_NE(check_vector(std::span<const double>(y).first(10), ref, 1e-9), "");
}

TEST(Checks, RejectAccuracyBelowTheFloor) {
  EXPECT_EQ(check_floor("accuracy", 0.8, 0.5), "");
  EXPECT_NE(check_floor("accuracy", 0.3, 0.5), "");
  EXPECT_NE(check_floor("accuracy", std::nan(""), 0.5), "");
}

TEST(Json, ReadsAServeResponse) {
  const Json r = parse_json(
      R"({"id": "h7", "ok": true, "mode": "select", "format": "merge-CSR",)"
      R"( "fallback": false, "degraded": false, "cache_hit": true, "batch": 3,)"
      R"( "queue_ms": 0.25, "latency_ms": 1.5, "server_ms": 1.75,)"
      R"( "stage_ms": {"features": 0.5, "classify": 0.125, "regress": 0,)"
      R"( "finalize": 0.0625}, "note": "a\"b\\c\n"})");
  Sample s;
  fill_sample(r, s);
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.format, "merge-CSR");
  EXPECT_EQ(s.batch, 3);
  EXPECT_EQ(s.server_ms, 1.75);
  EXPECT_EQ(s.features_ms, 0.5);
  EXPECT_EQ(s.finalize_ms, 0.0625);
  EXPECT_EQ(r.str("note"), "a\"b\\c\n");
  EXPECT_THROW(parse_json("{\"a\": }"), std::runtime_error);
}

TEST(BenchmarkJson, DeclaresExactlyTheMetricsTheBenchmarkPrints) {
  std::ifstream in(SPMVML_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << SPMVML_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = parse_json(text.str());
  const auto same = [](const Json* list, std::span<const MetricDef> defs) {
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->items.size(), defs.size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(list->items[i].str("name"), defs[i].name);
      EXPECT_EQ(list->items[i].str("unit"), defs[i].unit) << defs[i].name;
    }
  };
  // A run without --seconds measures as long as the declared runs.
  EXPECT_EQ(doc.num("run_seconds"), Options{}.seconds);
  same(doc.find("end_to_end"), end_to_end_metrics());
  same(doc.find("per_layer"), per_layer_metrics());
  const Json* workloads = doc.find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->items.size(), workload_names().size());
  for (std::size_t i = 0; i < workload_names().size(); ++i)
    EXPECT_EQ(workloads->items[i].str("name"), workload_names()[i]);
}

}  // namespace
}  // namespace spmvml::bench
