#include "serve/request.hpp"

#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "common/chaos/chaos.hpp"
#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "features/features.hpp"

namespace spmvml::serve {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader for the flat request objects the service accepts.
// Values are strings, numbers, booleans, null, or arrays of numbers —
// exactly what the schema needs; nested objects are rejected as
// unsupported rather than silently mis-read.

struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    SPMVML_ENSURE_CAT(false, ErrorCategory::kParse,
                      "bad request JSON at byte " + std::to_string(pos) +
                          ": " + why);
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }

  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end of line");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && peek() == c) {
      ++pos;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) fail("unterminated escape");
        const char e = text[pos++];
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
            // Requests are paths/ids; map BMP escapes to '?' rather than
            // carrying a full UTF-8 encoder for a control-plane corner.
            if (pos + 4 > text.size()) fail("truncated \\u escape");
            pos += 4;
            out += '?';
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E'))
      ++pos;
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data() + start, text.data() + pos, v);
    if (ec != std::errc{} || end != text.data() + pos || start == pos)
      fail("bad number");
    return v;
  }

  bool parse_literal(const char* lit) {
    const std::size_t n = std::string_view(lit).size();
    if (text.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }
};

struct Field {
  enum class Type { kString, kNumber, kBool, kNull, kNumbers } type;
  std::string str;
  double num = 0.0;
  bool boolean = false;
  std::vector<double> numbers;
};

/// Parse one flat JSON object into (key, value) fields.
std::vector<std::pair<std::string, Field>> parse_flat_object(
    const std::string& line) {
  JsonParser p{line};
  std::vector<std::pair<std::string, Field>> fields;
  p.expect('{');
  if (!p.consume('}')) {
    while (true) {
      std::string key = p.parse_string();
      p.expect(':');
      Field f;
      const char c = p.peek();
      if (c == '"') {
        f.type = Field::Type::kString;
        f.str = p.parse_string();
      } else if (c == 't') {
        if (!p.parse_literal("true")) p.fail("bad literal");
        f.type = Field::Type::kBool;
        f.boolean = true;
      } else if (c == 'f') {
        if (!p.parse_literal("false")) p.fail("bad literal");
        f.type = Field::Type::kBool;
      } else if (c == 'n') {
        if (!p.parse_literal("null")) p.fail("bad literal");
        f.type = Field::Type::kNull;
      } else if (c == '[') {
        p.expect('[');
        f.type = Field::Type::kNumbers;
        if (!p.consume(']')) {
          while (true) {
            f.numbers.push_back(p.parse_number());
            if (p.consume(']')) break;
            p.expect(',');
          }
        }
      } else if (c == '{') {
        p.fail("nested objects are not part of the request schema");
      } else {
        f.type = Field::Type::kNumber;
        f.num = p.parse_number();
      }
      fields.emplace_back(std::move(key), std::move(f));
      if (p.consume('}')) break;
      p.expect(',');
    }
  }
  p.skip_ws();
  SPMVML_ENSURE_CAT(p.pos == line.size(), ErrorCategory::kParse,
                    "trailing bytes after request JSON object");
  return fields;
}

RequestMode parse_mode(const std::string& name) {
  if (name == "select") return RequestMode::kSelect;
  if (name == "indirect") return RequestMode::kIndirect;
  if (name == "predict") return RequestMode::kPredict;
  SPMVML_ENSURE_CAT(false, ErrorCategory::kParse,
                    "unknown request mode '" + name + "'");
  return RequestMode::kSelect;
}

/// Render a field that may arrive as string or number ("id":7 or "id":"7").
std::string field_as_id(const Field& f) {
  if (f.type == Field::Type::kString) return f.str;
  if (f.type == Field::Type::kNumber) {
    std::ostringstream os;
    os << f.num;
    return os.str();
  }
  SPMVML_ENSURE_CAT(false, ErrorCategory::kParse, "id must be string or number");
  return {};
}

double field_as_number(const std::string& key, const Field& f) {
  SPMVML_ENSURE_CAT(f.type == Field::Type::kNumber && std::isfinite(f.num),
                    ErrorCategory::kParse,
                    "field '" + key + "' must be a finite number");
  return f.num;
}

std::string field_as_string(const std::string& key, const Field& f) {
  SPMVML_ENSURE_CAT(f.type == Field::Type::kString, ErrorCategory::kParse,
                    "field '" + key + "' must be a string");
  return f.str;
}

bool field_as_bool(const std::string& key, const Field& f) {
  SPMVML_ENSURE_CAT(f.type == Field::Type::kBool, ErrorCategory::kParse,
                    "field '" + key + "' must be true or false");
  return f.boolean;
}

// Per-request trace sampling: 0 = off, N = every Nth request.
std::atomic<int> g_trace_sample{0};
// Monotonic parse sequence: drives both generated `srv-<seq>` ids and
// the 1-in-N sampling decision.
std::atomic<std::uint64_t> g_request_seq{0};

}  // namespace

int trace_sample() { return g_trace_sample.load(std::memory_order_relaxed); }

void set_trace_sample(int n) {
  g_trace_sample.store(n < 0 ? 0 : n, std::memory_order_relaxed);
}

const char* request_mode_name(RequestMode m) {
  switch (m) {
    case RequestMode::kSelect: return "select";
    case RequestMode::kIndirect: return "indirect";
    case RequestMode::kPredict: return "predict";
  }
  return "unknown";
}

ParsedLine parse_request_line(const std::string& line) {
  // Chaos site: a corrupted/failed transport read surfaces as a parse
  // error (the response is ok=false with the kParse taxonomy, exactly
  // like genuinely malformed input).
  const chaos::Fault fault =
      chaos::hit(chaos::Site::kRequestParse, chaos::identity_hash(line));
  if (fault) {
    chaos::apply_latency(fault);
    SPMVML_ENSURE_CAT(fault.kind == chaos::FaultKind::kLatency,
                      ErrorCategory::kParse,
                      "injected request-parse fault (chaos site request_parse)");
  }
  const auto fields = parse_flat_object(line);
  ParsedLine out;
  for (const auto& [key, f] : fields)
    if (key == "cmd") out.is_admin = true;

  if (out.is_admin) {
    for (const auto& [key, f] : fields) {
      if (key == "cmd") out.admin.cmd = field_as_string(key, f);
      else if (key == "id") out.admin.id = field_as_id(f);
      else if (key == "model") out.admin.model_path = field_as_string(key, f);
      else if (key == "perf_model")
        out.admin.perf_model_path = field_as_string(key, f);
      else
        SPMVML_ENSURE_CAT(false, ErrorCategory::kParse,
                          "unknown admin field '" + key + "'");
    }
    SPMVML_ENSURE_CAT(out.admin.cmd == "swap" || out.admin.cmd == "stats" ||
                          out.admin.cmd == "learn",
                      ErrorCategory::kParse,
                      "unknown admin command '" + out.admin.cmd + "'");
    if (out.admin.cmd == "swap") {
      SPMVML_ENSURE_CAT(!out.admin.model_path.empty(), ErrorCategory::kParse,
                        "swap needs a 'model' path");
    } else {
      SPMVML_ENSURE_CAT(
          out.admin.model_path.empty() && out.admin.perf_model_path.empty(),
          ErrorCategory::kParse, out.admin.cmd + " takes no model paths");
    }
    return out;
  }

  Request& r = out.request;
  for (const auto& [key, f] : fields) {
    if (key == "id") r.id = field_as_id(f);
    else if (key == "mode") r.mode = parse_mode(field_as_string(key, f));
    else if (key == "matrix") r.matrix_path = field_as_string(key, f);
    else if (key == "features") {
      SPMVML_ENSURE_CAT(f.type == Field::Type::kNumbers, ErrorCategory::kParse,
                        "'features' must be an array of numbers");
      r.features = f.numbers;
    } else if (key == "deadline_ms") r.deadline_ms = field_as_number(key, f);
    else if (key == "mem_budget_gb") r.mem_budget_gb = field_as_number(key, f);
    else if (key == "materialize") r.materialize = field_as_bool(key, f);
    else
      SPMVML_ENSURE_CAT(false, ErrorCategory::kParse,
                        "unknown request field '" + key + "'");
  }
  SPMVML_ENSURE_CAT(!r.matrix_path.empty() || !r.features.empty(),
                    ErrorCategory::kParse,
                    "request needs 'matrix' or 'features'");
  SPMVML_ENSURE_CAT(
      r.features.empty() ||
          r.features.size() == static_cast<std::size_t>(kNumFeatures),
      ErrorCategory::kParse,
      "'features' must have exactly " + std::to_string(kNumFeatures) +
          " values");
  SPMVML_ENSURE_CAT(r.deadline_ms >= 0.0 && r.mem_budget_gb >= 0.0,
                    ErrorCategory::kParse,
                    "deadline_ms and mem_budget_gb must be >= 0");
  SPMVML_ENSURE_CAT(!r.materialize || !r.matrix_path.empty(),
                    ErrorCategory::kParse,
                    "'materialize' needs a 'matrix' path (inline features "
                    "carry no structure to convert)");
  SPMVML_ENSURE_CAT(!r.materialize || r.mode != RequestMode::kPredict,
                    ErrorCategory::kParse,
                    "'materialize' is meaningless for mode=predict (no "
                    "single format is chosen)");
  // Every request leaves the parser with a stable id and a sampling
  // decision; downstream stages tag trace events with the id and never
  // re-decide sampling (so the decision survives the shard queue).
  const std::uint64_t seq =
      g_request_seq.fetch_add(1, std::memory_order_relaxed);
  if (r.id.empty()) r.id = "srv-" + std::to_string(seq);
  const int sample = trace_sample();
  r.trace_sampled = sample > 0 && (seq % static_cast<std::uint64_t>(sample)) == 0;
  return out;
}

std::string to_json(const Response& r) {
  std::ostringstream os;
  JsonWriter json(os, /*indent=*/0);
  json.begin_object();
  // Requests always carry an id after parse (client-supplied or
  // generated); an empty id only happens on parse-error responses where
  // the line never yielded one.
  if (!r.id.empty()) json.kv("id", r.id);
  json.kv("ok", r.ok);
  if (!r.ok) {
    json.kv("error", r.error);
    if (!r.shed.empty()) {
      json.kv("shed", r.shed);
      json.kv("est_wait_ms", r.est_wait_ms);
    }
    if (r.retries > 0) json.kv("retries", static_cast<std::int64_t>(r.retries));
    if (r.server_ms > 0.0) json.kv("server_ms", r.server_ms);
    json.end_object();
    return os.str();
  }
  json.kv("mode", request_mode_name(r.mode));
  if (r.mode != RequestMode::kPredict) {
    json.kv("format", format_name(r.format));
    json.kv("predicted", format_name(r.predicted));
    json.kv("fallback", r.fallback);
    json.kv("degraded", r.degraded);
    if (!r.degrade_reason.empty()) json.kv("degrade_reason", r.degrade_reason);
  }
  if (r.retries > 0) json.kv("retries", static_cast<std::int64_t>(r.retries));
  if (!r.predicted_us.empty()) {
    json.key("predicted_us");
    json.begin_object();
    for (const auto& [f, us] : r.predicted_us) json.kv(format_name(f), us);
    json.end_object();
  }
  if (r.materialized) {
    json.kv("materialized", true);
    json.kv("convert_ms", r.convert_ms);
    json.kv("format_bytes", r.format_bytes);
    json.kv("spmv_ms", r.spmv_ms);
    json.kv("measured_gflops", r.measured_gflops);
    if (r.predicted_gflops > 0.0)
      json.kv("predicted_gflops", r.predicted_gflops);
  }
  json.kv("cache_hit", r.cache_hit);
  json.kv("model_version", r.model_version);
  json.kv("batch", r.batch);
  json.kv("queue_ms", r.queue_ms);
  json.kv("latency_ms", r.latency_ms);
  if (r.server_ms > 0.0) json.kv("server_ms", r.server_ms);
  if (r.has_stage_ms) {
    json.key("stage_ms");
    json.begin_object();
    json.kv("features", r.stage_features_ms);
    json.kv("classify", r.stage_classify_ms);
    json.kv("regress", r.stage_regress_ms);
    json.kv("finalize", r.stage_finalize_ms);
    json.end_object();
  }
  json.end_object();
  return os.str();
}

}  // namespace spmvml::serve
