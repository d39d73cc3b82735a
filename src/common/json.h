// Minimal dependency-free JSON document model, writer, and parser shared
// by the network serving layer (src/net) and the CLI. The model is a small
// ordered variant (null / bool / number / string / array / object) — enough
// to round-trip every wire message in DESIGN.md Sec. 10 without pulling in
// a third-party library.
//
// Conventions:
//  - Objects preserve insertion order (responses render deterministically).
//  - Numbers are doubles; integral values parsed or constructed from
//    integers render without a decimal point or exponent, so epochs and
//    document indices survive a round trip textually unchanged.
//  - Strings are UTF-8 byte sequences. The writer escapes the two
//    JSON-mandated characters plus control bytes; multi-byte UTF-8 passes
//    through verbatim. The parser decodes \uXXXX escapes (including
//    surrogate pairs) to UTF-8.
//  - Parse is strict: one document, no trailing garbage, bounded nesting
//    depth. Errors come back as Status::InvalidArgument with a byte offset.

#ifndef NEWSLINK_COMMON_JSON_H_
#define NEWSLINK_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace newslink {
namespace json {

/// \brief One JSON value: the tagged union the parser and writers share.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Default-constructed Value is null.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.type_ = Type::kBool;
    v.bool_ = b;
    return v;
  }
  static Value Number(double d) {
    Value v;
    v.type_ = Type::kNumber;
    v.number_ = d;
    return v;
  }
  /// Integer-valued number: renders without '.'/'e' (exact for |v| < 2^53).
  static Value Int(int64_t i) {
    Value v = Number(static_cast<double>(i));
    v.integral_ = true;
    return v;
  }
  static Value Uint(uint64_t u) {
    Value v = Number(static_cast<double>(u));
    v.integral_ = true;
    return v;
  }
  static Value Str(std::string s) {
    Value v;
    v.type_ = Type::kString;
    v.string_ = std::move(s);
    return v;
  }
  static Value Str(std::string_view s) { return Str(std::string(s)); }
  static Value Str(const char* s) { return Str(std::string(s)); }
  static Value Array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed reads with a fallback for the wrong type (wire tolerance).
  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  int64_t AsInt(int64_t fallback = 0) const {
    return is_number() ? static_cast<int64_t>(number_) : fallback;
  }
  uint64_t AsUint(uint64_t fallback = 0) const {
    return is_number() && number_ >= 0 ? static_cast<uint64_t>(number_)
                                       : fallback;
  }
  const std::string& AsString() const {
    static const std::string kEmpty;
    return is_string() ? string_ : kEmpty;
  }

  /// True when the number was constructed from / parsed as an integer.
  bool integral() const { return integral_; }

  // --- array interface ----------------------------------------------------
  size_t size() const {
    return is_array() ? items_.size() : (is_object() ? members_.size() : 0);
  }
  const Value& at(size_t i) const { return items_[i]; }
  Value& Append(Value v) {
    items_.push_back(std::move(v));
    return items_.back();
  }
  const std::vector<Value>& items() const { return items_; }

  // --- object interface ---------------------------------------------------
  /// First member with this key; nullptr when absent (or not an object).
  const Value* Find(std::string_view key) const;
  /// Append a member (no key dedup — build each key once).
  Value& Set(std::string_view key, Value v) {
    members_.emplace_back(std::string(key), std::move(v));
    return members_.back().second;
  }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Compact single-line serialization.
  std::string Dump() const;
  void DumpTo(std::string* out) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool integral_ = false;
  std::string string_;
  std::vector<Value> items_;                           // kArray
  std::vector<std::pair<std::string, Value>> members_;  // kObject
};

/// Append the JSON string literal for `s` (quotes included) to `out`,
/// escaping '"', '\\', and control bytes; UTF-8 passes through.
void AppendQuoted(std::string_view s, std::string* out);

/// Render a finite double; integral values render as integers. NaN and
/// infinities (not representable in JSON) render as null. Any other value
/// renders as printf "%.*g" at the smallest precision that reads back as
/// the same double.
std::string NumberToString(double v, bool integral);

/// Strict parse of exactly one JSON document. `max_depth` bounds array /
/// object nesting (default matches the writer's practical depth).
Result<Value> Parse(std::string_view text, size_t max_depth = 100);

}  // namespace json
}  // namespace newslink

#endif  // NEWSLINK_COMMON_JSON_H_
