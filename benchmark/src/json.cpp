#include "json.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace spmvml::bench {

const Json* Json::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : fields)
    if (k == key) return &v;
  return nullptr;
}

double Json::num(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

std::string Json::str(std::string_view key) const {
  const Json* v = find(key);
  return v != nullptr && v->type == Type::kString ? v->string : std::string();
}

bool Json::flag(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->type == Type::kBool ? v->boolean : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json value() {
    const char c = peek();
    Json v;
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        std::string key = string_literal();
        expect(':');
        v.fields.emplace_back(std::move(key), value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.items.push_back(value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      v.string = string_literal();
      return v;
    }
    if (literal("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.type = Json::Type::kBool;
      return v;
    }
    if (literal("null")) return v;
    const char* begin = s_.data() + pos_;
    char* end = nullptr;
    // The documents come from JsonWriter (locale-independent to_chars);
    // strtod in the "C" locale reads them back exactly.
    const std::string token(begin, std::min<std::size_t>(s_.size() - pos_, 64));
    v.number = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) fail("bad value");
    pos_ += static_cast<std::size_t>(end - token.c_str());
    v.type = Json::Type::kNumber;
    return v;
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad unicode escape");
            const unsigned code = static_cast<unsigned>(
                std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr, 16));
            pos_ += 4;
            // Control bytes are all JsonWriter escapes this way.
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: c = e; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(std::string_view text) { return Parser(text).document(); }

}  // namespace spmvml::bench
