// Minimal JSON document model: enough to export RunStats as machine-readable
// artifacts and to read them back from the sweep result cache. Objects keep
// insertion order so rendered files diff cleanly run-to-run.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csmt::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered key/value pairs (duplicate keys are not rejected;
/// find() returns the first).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind : std::uint8_t {
  kNull, kBool, kNumber, kString, kArray, kObject,
};

class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(std::nullptr_t) : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), num_(d) {}
  Value(int i) : kind_(Kind::kNumber), num_(i) {}
  Value(unsigned u) : kind_(Kind::kNumber), num_(u) {}
  Value(std::uint64_t u)
      : kind_(Kind::kNumber), num_(static_cast<double>(u)) {}
  Value(std::int64_t i)
      : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  static Value object() { return Value(Object{}); }
  static Value array() { return Value(Array{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors with fallbacks (wrong-kind reads yield the fallback,
  /// so cache readers degrade to "miss" instead of crashing).
  bool as_bool(bool fallback = false) const {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return kind_ == Kind::kNumber ? num_ : fallback;
  }
  /// The number as an exact unsigned integer: nullopt unless it is a
  /// finite, non-negative integer below 2^64 (converting anything else is
  /// undefined behavior).
  std::optional<std::uint64_t> exact_u64() const;
  std::uint64_t as_u64(std::uint64_t fallback = 0) const {
    return exact_u64().value_or(fallback);
  }
  unsigned as_unsigned(unsigned fallback = 0) const {
    const auto u = exact_u64();
    return u && *u <= std::numeric_limits<unsigned>::max()
               ? static_cast<unsigned>(*u)
               : fallback;
  }
  const std::string& as_string() const { return str_; }

  const Array& items() const { return arr_; }
  Array& items() { return arr_; }
  const Object& members() const { return obj_; }

  /// Object access: inserts a null member on first use (object kind only).
  Value& operator[](std::string_view key);
  /// First member with `key`, or nullptr.
  const Value* find(std::string_view key) const;

  /// Array append.
  void push_back(Value v) { arr_.push_back(std::move(v)); }

  /// Serializes the document. indent < 0 renders compactly on one line;
  /// otherwise nested levels indent by `indent` spaces.
  std::string dump(int indent = -1) const;

  /// Strict-enough parser for the dialect dump() emits (plus standard JSON
  /// escapes). Returns nullopt on malformed input, trailing garbage, or
  /// nesting deeper than 256 levels.
  static std::optional<Value> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace csmt::json
