// Observability tests: JsonWriter escaping and round-trip, logger level
// filtering and serialized concurrent output, sharded metrics exactness,
// Chrome-trace span recording/nesting, the --report writer, and the
// byte-identical-output guarantee with observability enabled.
//
// The ObsConcurrency suite runs under TSan via tools/check.sh --tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/prom.hpp"
#include "common/obs/report.hpp"
#include "common/obs/trace.hpp"
#include "core/label_collector.hpp"

namespace spmvml {
namespace {

// ---------------------------------------------------------------------------
// Mini recursive-descent JSON parser — just enough to verify that the
// files the trace/report writers emit are well-formed JSON and to read
// scalar fields back out. Throws std::runtime_error on malformed input.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue& at(const std::string& k) const {
    const auto it = fields.find(k);
    if (it == fields.end()) throw std::runtime_error("missing key " + k);
    return it->second;
  }
  bool has(const std::string& k) const { return fields.count(k) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    JsonValue v;
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') throw std::runtime_error("expected object key");
      std::string key = parse_string();
      expect(':');
      v.fields[std::move(key)] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') throw std::runtime_error("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') throw std::runtime_error("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) throw std::runtime_error("unclosed string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        throw std::runtime_error("raw control byte in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              throw std::runtime_error("bad hex digit in \\u");
          }
          // The writers only \u-escape control bytes (< 0x20).
          out += static_cast<char>(code);
          break;
        }
        default: throw std::runtime_error("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// RAII guard: captures log output and restores the prior off state.
class ScopedLogCapture {
 public:
  explicit ScopedLogCapture(obs::LogLevel level) {
    obs::set_log_sink(&text);
    obs::set_log_level(level);
  }
  ~ScopedLogCapture() {
    obs::set_log_level(obs::LogLevel::kOff);
    obs::set_log_sink(nullptr);
  }
  std::string text;
};

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriterTest, EscapesStringsCompletely) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(JsonWriter::escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriterTest, NumbersRoundTripExactly) {
  for (const double v : {0.0, -1.5, 1e-9, 3.141592653589793, 1e300,
                         0.1 + 0.2, 123456789.123456789}) {
    const std::string text = JsonWriter::number(v);
    EXPECT_EQ(std::stod(text), v) << text;
    // Locale-independent: never a comma decimal separator.
    EXPECT_EQ(text.find(','), std::string::npos);
  }
  EXPECT_EQ(JsonWriter::number(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::number(INFINITY), "null");
}

TEST(JsonWriterTest, WritesNestedDocumentTheParserAccepts) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.kv("name", "quote\"and\\slash");
  w.kv("count", std::uint64_t{42});
  w.kv("neg", std::int64_t{-7});
  w.kv("pi", 3.5);
  w.kv("flag", true);
  w.key("list");
  w.begin_array();
  w.value(1);
  w.value("two");
  w.begin_object();
  w.kv("deep", 3.0);
  w.end_object();
  w.end_array();
  w.end_object();

  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("name").str, "quote\"and\\slash");
  EXPECT_EQ(doc.at("count").number, 42.0);
  EXPECT_EQ(doc.at("neg").number, -7.0);
  EXPECT_EQ(doc.at("pi").number, 3.5);
  EXPECT_TRUE(doc.at("flag").boolean);
  ASSERT_EQ(doc.at("list").items.size(), 3u);
  EXPECT_EQ(doc.at("list").items[1].str, "two");
  EXPECT_EQ(doc.at("list").items[2].at("deep").number, 3.0);
}

TEST(JsonWriterTest, CompactModeIsSingleLine) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("a", 1);
  w.kv("b", 2);
  w.end_object();
  EXPECT_EQ(out.str().find('\n'), std::string::npos);
  EXPECT_NO_THROW(parse_json(out.str()));
}

TEST(JsonWriterTest, MisuseThrows) {
  std::ostringstream out;
  JsonWriter w(out);
  EXPECT_THROW(w.end_object(), Error);  // unbalanced
  JsonWriter w2(out);
  w2.begin_object();
  EXPECT_THROW(w2.value(1.0), Error);  // value without a key
}

// ---------------------------------------------------------------------------
// Logger

TEST(ObsLog, LevelFiltering) {
  ScopedLogCapture capture(obs::LogLevel::kWarn);
  obs::log_debug("dropped_debug").kv("k", 1);
  obs::log_info("dropped_info").kv("k", 2);
  obs::log_warn("kept_warn").kv("k", 3);
  obs::log_error("kept_error").kv("k", 4);
  EXPECT_EQ(capture.text.find("dropped_debug"), std::string::npos);
  EXPECT_EQ(capture.text.find("dropped_info"), std::string::npos);
  EXPECT_NE(capture.text.find("event=kept_warn k=3"), std::string::npos);
  EXPECT_NE(capture.text.find("event=kept_error k=4"), std::string::npos);
}

TEST(ObsLog, OffEmitsNothing) {
  ScopedLogCapture capture(obs::LogLevel::kOff);
  obs::log_error("suppressed").kv("k", 1);
  EXPECT_TRUE(capture.text.empty());
}

TEST(ObsLog, StructuredFieldsAndQuoting) {
  ScopedLogCapture capture(obs::LogLevel::kInfo);
  obs::log_info("fields")
      .kv("str", "plain")
      .kv("spaced", "two words")
      .kv("num", 1.5)
      .kv("neg", std::int64_t{-3})
      .kv("flag", false);
  EXPECT_NE(capture.text.find("level=info"), std::string::npos);
  EXPECT_NE(capture.text.find("event=fields"), std::string::npos);
  EXPECT_NE(capture.text.find("str=plain"), std::string::npos);
  EXPECT_NE(capture.text.find("spaced=\"two words\""), std::string::npos);
  EXPECT_NE(capture.text.find("num=1.5"), std::string::npos);
  EXPECT_NE(capture.text.find("neg=-3"), std::string::npos);
  EXPECT_NE(capture.text.find("flag=false"), std::string::npos);
}

TEST(ObsLog, ParsesLevelNames) {
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("warning"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::kError);
  // Anything else, including other spellings, means off.
  for (const char* name : {"off", "", "INFO", "verbose", "warn "})
    EXPECT_EQ(obs::parse_log_level(name), obs::LogLevel::kOff) << name;
}

TEST(ObsLog, EscapesQuotedValuesAndSpellsOutNonFinite) {
  ScopedLogCapture capture(obs::LogLevel::kInfo);
  obs::log_info("escapes")
      .kv("quoted", "say \"hi\"\nbye")
      .kv("slash", "a\\b c")
      .kv("empty", "")
      .kv("pinf", std::numeric_limits<double>::infinity())
      .kv("ninf", -std::numeric_limits<double>::infinity())
      .kv("nan", std::numeric_limits<double>::quiet_NaN());
  // One physical line: the embedded newline is written as \n.
  ASSERT_EQ(std::count(capture.text.begin(), capture.text.end(), '\n'), 1)
      << capture.text;
  EXPECT_NE(capture.text.find(R"(quoted="say \"hi\"\nbye")"),
            std::string::npos)
      << capture.text;
  EXPECT_NE(capture.text.find(R"(slash="a\\b c")"), std::string::npos);
  EXPECT_NE(capture.text.find(R"(empty="")"), std::string::npos);
  EXPECT_NE(capture.text.find(" pinf=inf"), std::string::npos);
  EXPECT_NE(capture.text.find(" ninf=-inf"), std::string::npos);
  EXPECT_NE(capture.text.find(" nan=nan"), std::string::npos);
}

TEST(ObsLog, MovedLineEmitsOnce) {
  ScopedLogCapture capture(obs::LogLevel::kInfo);
  {
    obs::LogLine first = obs::log_info("moved");
    first.kv("before", 1);
    obs::LogLine second(std::move(first));
    second.kv("after", 2);
  }
  std::size_t lines = 0;
  for (std::size_t at = capture.text.find("event=moved");
       at != std::string::npos; at = capture.text.find("event=moved", at + 1))
    ++lines;
  EXPECT_EQ(lines, 1u) << capture.text;
  EXPECT_NE(capture.text.find("event=moved before=1 after=2"),
            std::string::npos)
      << capture.text;
}

TEST(ObsConcurrency, LogLinesNeverInterleave) {
  ScopedLogCapture capture(obs::LogLevel::kInfo);
  constexpr int kThreads = 8, kLines = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i)
        obs::log_info("spam").kv("worker", t).kv("i", i).kv("pad",
            "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
    });
  for (auto& w : workers) w.join();

  // Serialized writes => every line is complete and well-formed.
  std::istringstream lines(capture.text);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NE(line.find("event=spam"), std::string::npos) << line;
    EXPECT_NE(line.find("pad=xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(count, kThreads * kLines);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(ObsMetrics, CountersGaugesHistogramsSnapshot) {
  obs::MetricsRegistry reg;
  auto c = reg.counter("test.counter");
  c.add(5);
  c.inc();
  auto g = reg.gauge("test.gauge");
  g.set(2.0);
  g.add(1.5);
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  auto h = reg.histogram("test.hist", bounds);
  for (const double v : {0.5, 1.0, 5.0, 50.0, 1e6}) h.observe(v);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 6u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("test.gauge"), 3.5);
  const auto* hist = snap.histogram("test.hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->buckets.size(), 4u);  // 3 bounds + overflow
  // Inclusive upper bounds: 0.5 and 1.0 land in the first bucket.
  EXPECT_EQ(hist->buckets[0], 2u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_EQ(hist->buckets[2], 1u);
  EXPECT_EQ(hist->buckets[3], 1u);
  EXPECT_EQ(hist->stats.count(), 5);
  EXPECT_DOUBLE_EQ(hist->stats.min(), 0.5);
  EXPECT_DOUBLE_EQ(hist->stats.max(), 1e6);
}

TEST(ObsMetrics, ResetZeroesInPlace) {
  obs::MetricsRegistry reg;
  auto c = reg.counter("will.reset");
  c.add(3);
  reg.reset();
  EXPECT_EQ(reg.snapshot().counter("will.reset"), 0u);
  c.inc();  // handle stays valid after reset
  EXPECT_EQ(reg.snapshot().counter("will.reset"), 1u);
}

TEST(ObsConcurrency, ShardedCountersMergeExactly) {
  obs::MetricsRegistry reg;
  auto c = reg.counter("concurrent.counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.snapshot().counter("concurrent.counter"),
            kThreads * kPerThread);
}

TEST(ObsConcurrency, ShardedHistogramMergeMatchesSerialStats) {
  obs::MetricsRegistry reg;
  auto h = reg.histogram("concurrent.hist", obs::default_latency_bounds_s());
  constexpr int kThreads = 6, kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(1e-6 * static_cast<double>(t * kPerThread + i + 1));
    });
  for (auto& w : workers) w.join();

  // The same observations accumulated serially: count/sum/min/max of the
  // merged shards must match exactly (StreamingStats::merge is exact for
  // those), and the bucket total must equal the observation count.
  StreamingStats serial;
  for (int v = 1; v <= kThreads * kPerThread; ++v)
    serial.add(1e-6 * static_cast<double>(v));
  const auto snap = reg.snapshot();
  const auto* hist = snap.histogram("concurrent.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->stats.count(), serial.count());
  EXPECT_DOUBLE_EQ(hist->stats.min(), serial.min());
  EXPECT_DOUBLE_EQ(hist->stats.max(), serial.max());
  EXPECT_NEAR(hist->stats.sum(), serial.sum(), serial.sum() * 1e-12);
  EXPECT_NEAR(hist->stats.mean(), serial.mean(), 1e-12);
  std::uint64_t total = 0;
  for (const std::uint64_t b : hist->buckets) total += b;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsConcurrency, GaugeAddIsAtomic) {
  obs::MetricsRegistry reg;
  auto g = reg.gauge("concurrent.gauge");
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
      for (int i = 0; i < kPerThread; ++i) g.add(-1.0);
    });
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge("concurrent.gauge"), 0.0);
}

// ---------------------------------------------------------------------------
// Trace spans

TEST(ObsTrace, RecordsNestedSpansWithArgs) {
  obs::trace_start("");  // memory-only
  {
    obs::TraceSpan outer("outer");
    outer.arg("n", 3).arg("label", "abc");
    {
      obs::TraceSpan inner("inner");
      inner.arg("x", 1.5);
    }
    obs::trace_instant("tick");
  }
  const auto events = obs::trace_snapshot();
  obs::trace_stop();
  ASSERT_EQ(events.size(), 3u);
  // Spans append at destruction: inner, instant, outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "tick");
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].phase, 'X');
  ASSERT_EQ(events[2].args.size(), 2u);
  EXPECT_EQ(events[2].args[0].key, "n");
  EXPECT_EQ(events[2].args[0].json, "3");
  EXPECT_EQ(events[2].args[1].json, "\"abc\"");

  // Proper nesting: inner lies within [outer.ts, outer.ts + outer.dur].
  const auto& inner = events[0];
  const auto& outer = events[2];
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-3);
}

TEST(ObsTrace, SpansNestProperlyPerThread) {
  obs::trace_start("");
  constexpr int kThreads = 4, kDepth = 3, kReps = 20;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int r = 0; r < kReps; ++r) {
        obs::TraceSpan a("a");
        obs::TraceSpan b("b");
        obs::TraceSpan c("c");
        (void)kDepth;
      }
    });
  for (auto& w : workers) w.join();
  const auto events = obs::trace_snapshot();
  obs::trace_stop();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kDepth * kReps);

  // Scoped spans on one thread can only nest or be disjoint — partial
  // overlap would mean the recorded intervals are wrong.
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const auto& x = events[i];
      const auto& y = events[j];
      if (x.tid != y.tid || x.phase != 'X' || y.phase != 'X') continue;
      const double x0 = x.ts_us, x1 = x.ts_us + x.dur_us;
      const double y0 = y.ts_us, y1 = y.ts_us + y.dur_us;
      const bool disjoint = x1 <= y0 + 1e-3 || y1 <= x0 + 1e-3;
      const bool x_in_y = x0 >= y0 - 1e-3 && x1 <= y1 + 1e-3;
      const bool y_in_x = y0 >= x0 - 1e-3 && y1 <= x1 + 1e-3;
      EXPECT_TRUE(disjoint || x_in_y || y_in_x)
          << "partial overlap on tid " << x.tid;
    }
  }
}

TEST(ObsTrace, WritesValidChromeTraceJson) {
  const std::string path = testing::TempDir() + "/spmvml_trace_test.json";
  std::remove(path.c_str());
  obs::trace_start(path);
  {
    obs::TraceSpan span("unit.span");
    span.arg("k", 7).arg("name", "needs \"escaping\"\n");
  }
  obs::trace_instant("unit.instant");
  obs::trace_stop();

  const JsonValue doc = parse_json(slurp(path));
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  const auto& events = doc.at("traceEvents").items;
  ASSERT_EQ(events.size(), 2u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.at("cat").str, "spmvml");
    EXPECT_EQ(ev.at("pid").number, 1.0);
    EXPECT_GE(ev.at("ts").number, 0.0);
    EXPECT_TRUE(ev.has("tid"));
  }
  const auto& complete = events[0];
  EXPECT_EQ(complete.at("name").str, "unit.span");
  EXPECT_EQ(complete.at("ph").str, "X");
  EXPECT_GE(complete.at("dur").number, 0.0);
  EXPECT_EQ(complete.at("args").at("k").number, 7.0);
  EXPECT_EQ(complete.at("args").at("name").str, "needs \"escaping\"\n");
  const auto& instant = events[1];
  EXPECT_EQ(instant.at("ph").str, "i");
  EXPECT_EQ(instant.at("s").str, "t");
  std::remove(path.c_str());
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  // No trace_start: spans must be free of side effects.
  { obs::TraceSpan span("ignored"); }
  obs::trace_start("");
  const auto events = obs::trace_snapshot();
  obs::trace_stop();
  EXPECT_TRUE(events.empty());
}

// ---------------------------------------------------------------------------
// Report

TEST(ObsReport, RoundTripsThroughWriterAndParser) {
  const std::string path = testing::TempDir() + "/spmvml_report_test.json";
  std::remove(path.c_str());
  obs::MetricsRegistry reg;
  reg.counter("r.counter").add(11);
  reg.gauge("r.gauge").set(-2.5);
  auto h = reg.histogram("r.hist", obs::default_latency_bounds_s());
  h.observe(1e-4);
  h.observe(2e-3);

  obs::ReportMeta meta;
  meta.tool = "spmvml test";
  meta.command = "spmvml test --report \"quoted path\"";
  meta.seed = 2018;
  meta.threads = 4;
  meta.wall_s = 1.25;
  obs::write_report(path, meta, reg);

  const JsonValue doc = parse_json(slurp(path));
  EXPECT_EQ(doc.at("run").at("tool").str, "spmvml test");
  EXPECT_EQ(doc.at("run").at("command").str,
            "spmvml test --report \"quoted path\"");
  EXPECT_EQ(doc.at("run").at("seed").number, 2018.0);
  EXPECT_EQ(doc.at("run").at("threads").number, 4.0);
  EXPECT_EQ(doc.at("run").at("wall_s").number, 1.25);
  const auto& metrics = doc.at("metrics");
  EXPECT_EQ(metrics.at("counters").at("r.counter").number, 11.0);
  EXPECT_EQ(metrics.at("gauges").at("r.gauge").number, -2.5);
  const auto& hist = metrics.at("histograms").at("r.hist");
  EXPECT_EQ(hist.at("count").number, 2.0);
  EXPECT_EQ(hist.at("bounds").items.size() + 1, hist.at("buckets").items.size());
  double bucket_total = 0.0;
  for (const auto& b : hist.at("buckets").items) bucket_total += b.number;
  EXPECT_EQ(bucket_total, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 1e-4);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 2e-3);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Histogram quantiles

TEST(ObsMetrics, QuantileOfEmptyHistogramIsZero) {
  obs::MetricsRegistry reg;
  (void)reg.histogram("q.empty", std::vector<double>{1.0, 10.0});
  const auto snap = reg.snapshot();
  const auto* hist = snap.histogram("q.empty");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->quantile(0.0), 0.0);
  EXPECT_EQ(hist->quantile(0.5), 0.0);
  EXPECT_EQ(hist->quantile(1.0), 0.0);
}

TEST(ObsMetrics, QuantileOfSingleObservationIsExact) {
  obs::MetricsRegistry reg;
  auto h = reg.histogram("q.single", std::vector<double>{1.0, 10.0, 100.0});
  h.observe(5.0);
  const auto snap = reg.snapshot();
  const auto* hist = snap.histogram("q.single");
  ASSERT_NE(hist, nullptr);
  // Clamping to the observed [min, max] makes every quantile exact.
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(hist->quantile(q), 5.0) << "q=" << q;
}

TEST(ObsMetrics, QuantileAllOverflowReturnsExactMax) {
  obs::MetricsRegistry reg;
  auto h = reg.histogram("q.overflow", std::vector<double>{1.0});
  h.observe(10.0);
  h.observe(20.0);
  h.observe(30.0);
  const auto snap = reg.snapshot();
  const auto* hist = snap.histogram("q.overflow");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->buckets.size(), 2u);
  EXPECT_EQ(hist->buckets[0], 0u);
  EXPECT_EQ(hist->buckets[1], 3u);
  // The overflow bucket has no finite upper bound: the exact max is the
  // only honest answer, for any quantile landing there.
  EXPECT_DOUBLE_EQ(hist->quantile(0.1), 30.0);
  EXPECT_DOUBLE_EQ(hist->quantile(1.0), 30.0);
}

TEST(ObsMetrics, QuantileInterpolatesAndStaysMonotonic) {
  obs::MetricsRegistry reg;
  auto h = reg.histogram("q.interp", std::vector<double>{10.0, 20.0, 30.0});
  for (int v = 1; v <= 30; ++v) h.observe(static_cast<double>(v));
  const auto snap = reg.snapshot();
  const auto* hist = snap.histogram("q.interp");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->quantile(0.0), 1.0);   // clamped to min
  EXPECT_DOUBLE_EQ(hist->quantile(1.0), 30.0);  // clamped to max
  double prev = 0.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double v = hist->quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 30.0);
    prev = v;
  }
  // Median of 1..30 lands in the (10, 20] bucket.
  EXPECT_GT(hist->quantile(0.5), 10.0);
  EXPECT_LE(hist->quantile(0.5), 20.0);
}

TEST(ObsConcurrency, ShardedQuantilesMatchSerialMergeExactly) {
  obs::MetricsRegistry reg;
  const std::vector<double> bounds = {1e-3, 2e-3, 4e-3, 8e-3};
  auto h = reg.histogram("q.sharded", bounds);
  constexpr int kThreads = 6, kPerThread = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(1e-6 *
                  static_cast<double>((t * kPerThread + i) % 10000 + 1));
    });
  for (auto& w : workers) w.join();

  // A serial histogram fed the same multiset must agree bucket-for-bucket
  // (shard merge is exact integer addition), hence quantile-for-quantile.
  obs::MetricsRegistry serial_reg;
  auto serial_h = serial_reg.histogram("q.serial", bounds);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      serial_h.observe(1e-6 *
                       static_cast<double>((t * kPerThread + i) % 10000 + 1));
  const auto sharded_snap = reg.snapshot();
  const auto serial_snap = serial_reg.snapshot();
  const auto* sharded = sharded_snap.histogram("q.sharded");
  const auto* serial = serial_snap.histogram("q.serial");
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(serial, nullptr);
  ASSERT_EQ(sharded->buckets, serial->buckets);
  EXPECT_EQ(sharded->stats.count(), serial->stats.count());
  EXPECT_DOUBLE_EQ(sharded->stats.min(), serial->stats.min());
  EXPECT_DOUBLE_EQ(sharded->stats.max(), serial->stats.max());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(sharded->quantile(q), serial->quantile(q)) << "q=" << q;
}

TEST(ObsMetrics, SnapshotLookupsFindEveryNameInSortedOrder) {
  // The lookups binary-search the name-sorted snapshot vectors; exercise
  // names that stress lexicographic ordering (prefixes, separators).
  obs::MetricsRegistry reg;
  const std::vector<std::string> names = {"a",     "a.b", "a.b.c", "ab",
                                          "m.mid", "z",   "z.z"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    reg.counter(names[i]).add(i + 1);
    reg.gauge(names[i] + ".g").set(static_cast<double>(i) + 0.5);
    reg.histogram(names[i] + ".h", std::vector<double>{1.0})
        .observe(static_cast<double>(i + 1));
  }
  const auto snap = reg.snapshot();
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(snap.counter(names[i]), i + 1) << names[i];
    EXPECT_DOUBLE_EQ(snap.gauge(names[i] + ".g"),
                     static_cast<double>(i) + 0.5);
    const auto* h = snap.histogram(names[i] + ".h");
    ASSERT_NE(h, nullptr) << names[i];
    EXPECT_EQ(h->stats.count(), 1);
  }
  EXPECT_EQ(snap.counter(""), 0u);
  EXPECT_EQ(snap.counter("a.b.c.d"), 0u);
  EXPECT_EQ(snap.counter("zz"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("nope"), 0.0);
  EXPECT_EQ(snap.histogram("nope"), nullptr);
}

// ---------------------------------------------------------------------------
// Id-tagged trace events (the request-scoped telemetry primitives)

TEST(ObsTrace, InstantAndCompleteCarryRequestId) {
  obs::trace_start("");
  obs::trace_instant("req.admit", "r-\"1\"");
  // Let real time pass so the retroactive 100us span starts after
  // trace_start and is recorded unclamped.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  obs::trace_complete("req.queue", 100.0, "r-\"1\"");
  const auto events = obs::trace_snapshot();
  obs::trace_stop();
  ASSERT_EQ(events.size(), 2u);

  EXPECT_EQ(events[0].name, "req.admit");
  EXPECT_EQ(events[0].phase, 'i');
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].key, "id");
  EXPECT_EQ(events[0].args[0].json, "\"r-\\\"1\\\"\"");  // escaped JSON

  // trace_complete records retroactively: the span ends "now" and starts
  // dur_us earlier, so it still lands in the right place on the timeline.
  EXPECT_EQ(events[1].name, "req.queue");
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_GE(events[1].ts_us, 0.0);
  EXPECT_NEAR(events[1].dur_us, 100.0, 1e-6);
  EXPECT_GE(events[1].ts_us + events[1].dur_us, events[0].ts_us);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].key, "id");
}

TEST(ObsTrace, CompleteClampsSpansPredatingTraceStart) {
  // A retroactive duration longer than the trace has been running cannot
  // start before t=0: the span is clamped to [0, now] instead of going
  // negative (which Chrome trace viewers reject).
  obs::trace_start("");
  obs::trace_complete("req.early", 1e9, "r-0");
  const auto events = obs::trace_snapshot();
  obs::trace_stop();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts_us, 0.0);
  EXPECT_LT(events[0].dur_us, 1e9);
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(ObsTrace, IdTaggedEventsAreNoOpsWhenDisabled) {
  obs::trace_instant("req.admit", "r-1");
  obs::trace_complete("req.queue", 10.0, "r-1");
  obs::trace_start("");
  const auto events = obs::trace_snapshot();
  obs::trace_stop();
  EXPECT_TRUE(events.empty());
}

// ---------------------------------------------------------------------------
// Prometheus exporter + report reader

TEST(ObsProm, SanitizesMetricNames) {
  EXPECT_EQ(obs::prometheus_name("serve.latency_s"),
            "spmvml_serve_latency_s");
  EXPECT_EQ(obs::prometheus_name("a-b c:d"), "spmvml_a_b_c:d");
  EXPECT_EQ(obs::prometheus_name(""), "spmvml_");
}

TEST(ObsProm, WritesCountersGaugesAndCumulativeHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("p.requests").add(7);
  reg.gauge("p.depth").set(-1.5);
  auto h = reg.histogram("p.lat", std::vector<double>{1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);
  std::ostringstream out;
  obs::write_prometheus_text(out, reg.snapshot());
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE spmvml_p_requests counter\n"
                      "spmvml_p_requests 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE spmvml_p_depth gauge\n"
                      "spmvml_p_depth -1.5\n"),
            std::string::npos);
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("# TYPE spmvml_p_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("spmvml_p_lat_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvml_p_lat_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvml_p_lat_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvml_p_lat_sum 105.5\n"), std::string::npos);
  EXPECT_NE(text.find("spmvml_p_lat_count 3\n"), std::string::npos);
}

TEST(ObsProm, ReportRoundTripPreservesTheExportedText) {
  // Live registry -> report JSON -> read_report_metrics -> Prometheus
  // text must equal the text exported straight from the live snapshot:
  // the file is a faithful transport, not a lossy approximation.
  obs::MetricsRegistry reg;
  reg.counter("rt.count").add(42);
  reg.gauge("rt.gauge").set(2.75);
  auto h = reg.histogram("rt.hist", obs::default_latency_bounds_s());
  h.observe(1e-4);
  h.observe(2e-3);
  h.observe(0.5);
  const auto live = reg.snapshot();

  std::ostringstream report;
  obs::ReportMeta meta;
  meta.tool = "spmvml test";
  obs::write_report_json(report, meta, live);
  std::istringstream in(report.str());
  const auto reread = obs::read_report_metrics(in);

  std::ostringstream from_live, from_file;
  obs::write_prometheus_text(from_live, live);
  obs::write_prometheus_text(from_file, reread);
  EXPECT_EQ(from_live.str(), from_file.str());
  EXPECT_FALSE(from_live.str().empty());

  // The reread snapshot also answers lookups/quantiles like the live one.
  const auto* hist = reread.histogram("rt.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->stats.count(), 3);
  EXPECT_DOUBLE_EQ(hist->stats.min(), 1e-4);
  EXPECT_DOUBLE_EQ(hist->stats.max(), 0.5);
  const auto* live_hist = live.histogram("rt.hist");
  ASSERT_NE(live_hist, nullptr);
  for (const double q : {0.0, 0.5, 1.0})
    EXPECT_DOUBLE_EQ(hist->quantile(q), live_hist->quantile(q));
}

TEST(ObsProm, ReadReportMetricsAcceptsBareMetricsObjectAndRejectsGarbage) {
  std::istringstream bare(
      R"({"counters":{"c":3},"gauges":{},"histograms":{}})");
  const auto snap = obs::read_report_metrics(bare);
  EXPECT_EQ(snap.counter("c"), 3u);
  std::istringstream garbage("not json at all");
  EXPECT_THROW(obs::read_report_metrics(garbage), Error);
  std::istringstream truncated(R"({"counters":{"c":)");
  EXPECT_THROW(obs::read_report_metrics(truncated), Error);
}

TEST(ObsProm, ReportRoundTripKeepsMetricNamesThatNeedEscaping) {
  // The writer escapes quotes, backslashes and control bytes in keys
  // (a 4-hex-digit escape for the rare ones); the reader must decode
  // each back to the same byte.
  const std::string odd = "odd\"name\\with\nnewline\ttab\x01" "ctl";
  obs::MetricsRegistry reg;
  reg.counter(odd).add(5);
  reg.gauge("plain.gauge").set(1.25);
  obs::ReportMeta meta;
  meta.tool = "tool \"quoted\"\r\b\f";
  meta.command = "spmvml serve --path C:\\x";
  std::ostringstream report;
  obs::write_report_json(report, meta, reg.snapshot());
  std::istringstream in(report.str());
  const auto reread = obs::read_report_metrics(in);
  EXPECT_EQ(reread.counter(odd), 5u) << report.str();
  EXPECT_DOUBLE_EQ(reread.gauge("plain.gauge"), 1.25);
}

TEST(ObsProm, ReportReaderDecodesEveryEscapeAndLiteral) {
  // Hand-written report: unknown fields of every JSON kind are skipped,
  // and 4-hex-digit escapes decode in either hex case.
  std::istringstream in(R"({
    "run": {"tool": "a\/b\u0041\u004a", "ok": true, "dry": false,
            "note": null, "args": [1, "x", [], {}]},
    "metrics": {"counters": {"\u0063\u004F\u0075nt": 9}, "gauges": {},
                "histograms": {}}
  })");
  const auto snap = obs::read_report_metrics(in);
  EXPECT_EQ(snap.counter("cOunt"), 9u);
}

TEST(ObsProm, ReportReaderRejectsBadEscapes) {
  const char* bad[] = {
      "{\"counters\": {\"a\\qb\": 1}}",     // unknown escape
      "{\"counters\": {\"a\\u00zz\": 1}}",  // non-hex digits after u
      "{\"counters\": {\"a\\u00",            // truncated 4-digit escape
      "{\"counters\": {\"a\\",               // dangling backslash
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    try {
      obs::read_report_metrics(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kParse) << text;
    }
  }
}

TEST(ObsProm, ReportReaderSortsHistogramsForLookup) {
  // Lookups binary-search by name, so the reader must sort whatever
  // order the file lists the histograms in.
  std::istringstream in(R"({"histograms": {
    "zeta": {"bounds": [1], "buckets": [1, 0], "count": 1, "sum": 0.5,
             "mean": 0.5, "stddev": 0, "min": 0.5, "max": 0.5},
    "alpha": {"bounds": [1], "buckets": [0, 2], "count": 2, "sum": 6,
              "mean": 3, "stddev": 1, "min": 2, "max": 4},
    "mid": {"bounds": [], "buckets": [3], "count": 3, "sum": 3,
            "mean": 1, "stddev": 0, "min": 1, "max": 1}
  }})");
  const auto snap = obs::read_report_metrics(in);
  ASSERT_EQ(snap.histograms.size(), 3u);
  EXPECT_EQ(snap.histograms[0].name, "alpha");
  EXPECT_EQ(snap.histograms[1].name, "mid");
  EXPECT_EQ(snap.histograms[2].name, "zeta");
  for (const char* name : {"alpha", "mid", "zeta"})
    ASSERT_NE(snap.histogram(name), nullptr) << name;
  EXPECT_EQ(snap.histogram("alpha")->stats.count(), 2);
  EXPECT_DOUBLE_EQ(snap.histogram("zeta")->stats.max(), 0.5);
  EXPECT_EQ(snap.histogram("mid")->buckets, std::vector<std::uint64_t>{3});
}

// ---------------------------------------------------------------------------
// Periodic stats writer

TEST(ObsConcurrency, PeriodicReporterWritesAtomicSnapshots) {
  const std::string path = testing::TempDir() + "/spmvml_stats_test.json";
  std::remove(path.c_str());
  obs::MetricsRegistry reg;
  auto c = reg.counter("periodic.ticks");
  obs::ReportMeta meta;
  meta.tool = "spmvml test";
  {
    obs::PeriodicReporter reporter(path, 0.02, meta, reg);
    for (int i = 0; i < 50; ++i) {
      c.inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    reporter.stop();
    // stop() writes a final snapshot, so the file reflects the full run.
    EXPECT_GE(reporter.writes(), 1u);
    reporter.stop();  // idempotent
  }
  const JsonValue doc = parse_json(slurp(path));
  EXPECT_EQ(doc.at("run").at("tool").str, "spmvml test");
  EXPECT_EQ(doc.at("metrics").at("counters").at("periodic.ticks").number,
            50.0);
  EXPECT_GT(doc.at("run").at("wall_s").number, 0.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Pipeline integration: metrics reflect collection, and observability
// never perturbs data outputs.

TEST(ObsPipeline, CollectionPopulatesGlobalRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  CollectOptions opts;
  opts.threads = 2;
  const auto plan = make_small_plan(6, 33);
  const auto corpus = collect_corpus(plan, opts);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("collect.matrices.kept"), corpus.size());
  EXPECT_EQ(snap.counter("collect.cells.measured"),
            corpus.stats.attempted * kNumArchs * kNumPrecisions *
                kAllFormats.size());
  EXPECT_GT(snap.counter("features.extracted"), 0u);
  EXPECT_GT(snap.counter("oracle.measure.ok"), 0u);
}

TEST(ObsPipeline, CorpusCsvIsByteIdenticalWithObsEnabled) {
  const auto plan = make_small_plan(8, 44);
  CollectOptions opts;
  opts.threads = 4;
  const std::string path = testing::TempDir() + "/spmvml_obs_csv.tmp.csv";

  // Reference run: logging/tracing off (the default for library users).
  obs::set_log_level(obs::LogLevel::kOff);
  const auto quiet = collect_corpus(plan, opts);
  save_corpus_csv(path, quiet, plan.size());
  const std::string quiet_csv = slurp(path);

  // Observed run: debug logging to a capture sink plus an in-memory
  // trace. The CSV must not move by a byte.
  {
    ScopedLogCapture capture(obs::LogLevel::kDebug);
    obs::trace_start("");
    const auto observed = collect_corpus(plan, opts);
    obs::trace_stop();
    save_corpus_csv(path, observed, plan.size());
    EXPECT_FALSE(capture.text.empty());
  }
  const std::string observed_csv = slurp(path);
  EXPECT_EQ(quiet_csv, observed_csv);
  EXPECT_FALSE(quiet_csv.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spmvml
