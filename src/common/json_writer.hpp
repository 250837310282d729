// Minimal streaming JSON writer shared by the trace writer, --report and
// the bench reports.
//
// Two properties the hand-rolled emitters it replaces did not guarantee:
//  * string escaping is complete (quotes, backslashes, control bytes), and
//  * doubles are formatted with std::to_chars — locale-independent and
//    shortest-round-trip, so a report parsed back yields the exact value
//    regardless of the process locale. Non-finite doubles become `null`
//    (JSON has no NaN/Inf literal).
//
// The writer keeps a nesting stack and inserts commas/indentation itself;
// callers only say what comes next. Misuse (a bare value where a key is
// required, unbalanced end_*) throws spmvml::Error.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace spmvml {

class JsonWriter {
 public:
  /// Writes to `out`; `indent` spaces per nesting level (0 = compact,
  /// single line).
  explicit JsonWriter(std::ostream& out, int indent = 2);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Key inside an object; must be followed by a value or begin_*.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(bool v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  /// Pre-rendered JSON (e.g. a number formatted elsewhere); emitted as-is.
  void raw_value(std::string_view json);

  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// Escape `s` for inclusion in a JSON string literal (no surrounding
  /// quotes).
  static std::string escape(std::string_view s);

  /// Shortest-round-trip, locale-independent rendering of `v`; "null" for
  /// non-finite values.
  static std::string number(double v);

 private:
  enum class Frame { kObject, kArray };
  void before_value();
  void newline_indent();

  std::ostream& out_;
  int indent_;
  struct Level {
    Frame frame;
    bool has_items = false;
  };
  std::vector<Level> stack_;
  bool key_pending_ = false;
  bool root_written_ = false;
};

}  // namespace spmvml
