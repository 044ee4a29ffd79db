#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace csmt::json {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {  // JSON has no inf/nan; degrade to null
    out += "null";
    return;
  }
  // Integral values (the common case: cycles, counters) print without a
  // fraction; everything else keeps full round-trip precision.
  if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Value> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Value> value() {
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    switch (s_[pos_]) {
      case '{':
      case '[': {
        // Bounded nesting: deeper input is rejected instead of recursing
        // until the stack overflows. Everything csmt writes nests a
        // handful of levels deep.
        if (depth_ == kMaxDepth) return std::nullopt;
        ++depth_;
        auto nested = s_[pos_] == '{' ? object() : array();
        --depth_;
        return nested;
      }
      case '"': {
        auto str = string();
        if (!str) return std::nullopt;
        return Value(std::move(*str));
      }
      case 't': return literal("true") ? std::optional<Value>(Value(true))
                                       : std::nullopt;
      case 'f': return literal("false") ? std::optional<Value>(Value(false))
                                        : std::nullopt;
      case 'n': return literal("null") ? std::optional<Value>(Value(nullptr))
                                       : std::nullopt;
      default: return number();
    }
  }

  std::optional<Value> number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    double d = 0.0;
    const auto [p, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, d);
    if (ec != std::errc() || p != s_.data() + pos_ || pos_ == start)
      return std::nullopt;
    return Value(d);
  }

  std::optional<std::string> string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return std::nullopt;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return std::nullopt;
          unsigned code = 0;
          const auto [p, ec] = std::from_chars(
              s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || p != s_.data() + pos_ + 4)
            return std::nullopt;
          pos_ += 4;
          // The simulator only emits ASCII; encode BMP points as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> array() {
    if (!consume('[')) return std::nullopt;
    Value out = Value::array();
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      out.push_back(std::move(*v));
      if (consume(']')) return out;
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Value> object() {
    if (!consume('{')) return std::nullopt;
    Object members;
    skip_ws();
    if (consume('}')) return Value(std::move(members));
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      if (!consume(':')) return std::nullopt;
      auto v = value();
      if (!v) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*v));
      if (consume('}')) return Value(std::move(members));
      if (!consume(',')) return std::nullopt;
    }
  }

  static constexpr int kMaxDepth = 256;

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value& Value::operator[](std::string_view key) {
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(std::string(key), Value());
  return obj_.back().second;
}

std::optional<std::uint64_t> Value::exact_u64() const {
  // 2^64 is exact as a double; every integral double below it converts.
  if (kind_ != Kind::kNumber || !std::isfinite(num_) || num_ < 0.0 ||
      num_ >= 18446744073709551616.0 || num_ != std::floor(num_))
    return std::nullopt;
  return static_cast<std::uint64_t>(num_);
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };

  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, num_); break;
    case Kind::kString: append_escaped(out, str_); break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        append_escaped(out, obj_[i].first);
        out += pretty ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::optional<Value> Value::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace csmt::json
