// Minimal JSON reader for the serve protocol's response and stats lines
// and for BENCHMARK.json. Parses the full grammar into a small tree; the
// benchmark only ever reads documents the repository itself wrote.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spmvml::bench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  /// Member lookup; nullptr when absent or when this is not an object.
  const Json* find(std::string_view key) const;
  /// Numeric member, or `fallback` when absent or not a number.
  double num(std::string_view key, double fallback = 0.0) const;
  /// String member, or "" when absent or not a string.
  std::string str(std::string_view key) const;
  /// Bool member, or `fallback`.
  bool flag(std::string_view key, bool fallback = false) const;
};

/// Parse one JSON document. Throws std::runtime_error on malformed input.
Json parse_json(std::string_view text);

}  // namespace spmvml::bench
