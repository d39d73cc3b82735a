#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace newslink {
namespace json {

namespace {

const char kHexDigits[] = "0123456789abcdef";

/// Encode one Unicode code point as UTF-8.
void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp <= 0x7F) {
    out->push_back(static_cast<char>(cp));
  } else if (cp <= 0x7FF) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0xFFFF) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// NumberToString appended to `out` (no temporary string per number).
void AppendNumber(double v, bool integral, std::string* out) {
  if (std::isnan(v) || std::isinf(v)) {
    out->append("null");
    return;
  }
  char buf[64];
  if (integral || (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)) {
    const auto r = std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<long long>(v));
    out->append(buf, r.ptr);
    return;
  }
  // The shortest "%.*g" precision that round-trips. No precision below the
  // digit count D of the shortest round-tripping form can round-trip, so
  // the search starts at D; it usually ends there too. It can need D + 1
  // where the gap between doubles halves (at powers of two), because "%g"
  // rounds to nearest rather than picking any round-tripping string. 17
  // digits always round-trip.
  const auto shortest =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific);
  int digits = 0;
  for (const char* p = buf; p != shortest.ptr && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++digits;
  }
  for (int precision = digits;; ++precision) {
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, precision);
    double back = 0.0;
    std::from_chars(buf, r.ptr, back);
    if (back == v || precision >= 17) {
      out->append(buf, r.ptr);
      return;
    }
  }
}

}  // namespace

const Value* Value::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          out->append("\\u00");
          out->push_back(kHexDigits[c >> 4]);
          out->push_back(kHexDigits[c & 0xF]);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

std::string NumberToString(double v, bool integral) {
  std::string out;
  AppendNumber(v, integral, &out);
  return out;
}

void Value::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      AppendNumber(number_, integral_, out);
      break;
    case Type::kString:
      AppendQuoted(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& v : items_) {
        if (!first) out->push_back(',');
        first = false;
        v.DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out->push_back(',');
        first = false;
        AppendQuoted(k, out);
        out->push_back(':');
        v.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

/// Strict recursive-descent parser over a string_view.
class Parser {
 public:
  Parser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<Value> Run() {
    SkipWhitespace();
    Value v;
    NL_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(std::string_view what) const {
    return Status::InvalidArgument(
        StrCat("JSON parse error at byte ", pos_, ": ", what));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out, size_t depth) {
    if (depth > max_depth_) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        *out = Value::Null();
        return Status::OK();
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        *out = Value::Bool(true);
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        *out = Value::Bool(false);
        return Status::OK();
      case '"':
        return ParseString(out);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Error("unexpected character");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status ParseString(Value* out) {
    ++pos_;  // opening quote
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        *out = Value::Str(std::move(s));
        return Status::OK();
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        s.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          s.push_back('"');
          break;
        case '\\':
          s.push_back('\\');
          break;
        case '/':
          s.push_back('/');
          break;
        case 'b':
          s.push_back('\b');
          break;
        case 'f':
          s.push_back('\f');
          break;
        case 'n':
          s.push_back('\n');
          break;
        case 'r':
          s.push_back('\r');
          break;
        case 't':
          s.push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          NL_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            NL_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, &s);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Error("invalid number");
    }
    // Leading zero must be alone ("0", "0.5"; "012" is invalid JSON).
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Error("leading zero in number");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("missing fraction digits");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("missing exponent digits");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (std::isinf(v)) return Error("number out of range");
    *out = Value::Number(v);
    if (integral && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
      *out = Value::Int(static_cast<int64_t>(v));
    }
    return Status::OK();
  }

  Status ParseArray(Value* out, size_t depth) {
    ++pos_;  // '['
    Value arr = Value::Array();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = std::move(arr);
      return Status::OK();
    }
    while (true) {
      Value elem;
      SkipWhitespace();
      NL_RETURN_IF_ERROR(ParseValue(&elem, depth + 1));
      arr.Append(std::move(elem));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = std::move(arr);
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Value* out, size_t depth) {
    ++pos_;  // '{'
    Value obj = Value::Object();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = std::move(obj);
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key in object");
      }
      Value key;
      NL_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      Value val;
      NL_RETURN_IF_ERROR(ParseValue(&val, depth + 1));
      obj.Set(key.AsString(), std::move(val));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = std::move(obj);
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text, size_t max_depth) {
  return Parser(text, max_depth).Run();
}

}  // namespace json
}  // namespace newslink
