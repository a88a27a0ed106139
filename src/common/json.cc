#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/strings.h"

namespace cologne {

JsonWriter& JsonWriter::Key(const char* name) {
  if (!stack_.empty() && !stack_.back().array) {
    if (!stack_.back().first) out_ += ',';
    stack_.back().first = false;
  }
  out_ += '"';
  out_ += JsonEscape(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty() && stack_.back().array) {
    if (!stack_.back().first) out_ += ',';
    stack_.back().first = false;
  }
}

JsonWriter& JsonWriter::Open(char brace, bool array) {
  BeforeValue();
  out_ += brace;
  stack_.push_back({array, true});
  return *this;
}

JsonWriter& JsonWriter::Close(char brace) {
  if (!stack_.empty()) stack_.pop_back();
  out_ += brace;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& v) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  BeforeValue();
  out_ += StrFormat("%lld", static_cast<long long>(v));
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t v) {
  BeforeValue();
  out_ += StrFormat("%llu", static_cast<unsigned long long>(v));
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  BeforeValue();
  out_ += DoubleToShortestString(v);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  BeforeValue();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Members(const std::string& json) {
  if (json.empty()) return *this;
  if (!stack_.empty() && !stack_.back().array) {
    if (!stack_.back().first) out_ += ',';
    stack_.back().first = false;
  }
  out_ += json;
  return *this;
}

std::string JsonWriter::Take() {
  std::string out = std::move(out_);
  out_.clear();
  stack_.clear();
  pending_key_ = false;
  return out;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

void AppendUtf8(uint32_t cp, std::string* out) {
  static constexpr unsigned char kLead[] = {0, 0xC0, 0xE0, 0xF0};
  int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  *out += static_cast<char>(kLead[extra] | (cp >> (6 * extra)));
  for (int i = extra - 1; i >= 0; --i) {
    *out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }
}

// Recursive descent; every container costs one level of `depth`.
struct Parser {
  std::string_view in;
  size_t pos = 0;
  Status error;

  bool Error(const char* what) {
    error = Status::ParseError(StrFormat("byte %zu: %s", pos, what));
    return false;
  }

  // The next byte, or '\0' at the end (never valid outside a string).
  char Peek() const { return pos < in.size() ? in[pos] : '\0'; }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos;
    return true;
  }

  void SkipSpace() {
    while (Peek() != '\0' && strchr(" \t\n\r", Peek()) != nullptr) ++pos;
  }

  size_t Digits() {
    size_t start = pos;
    while (IsDigit(Peek())) ++pos;
    return pos - start;
  }

  bool Value(JsonValue* out, size_t depth) {
    SkipSpace();
    out->offset = pos;
    char c = Peek();
    if (c == '{' || c == '[') {
      if (depth >= kMaxJsonDepth) return Error("nesting too deep");
      return Container(out, depth + 1);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->text);
    }
    if (c == '-' || IsDigit(c)) {
      out->kind = JsonValue::Kind::kNumber;
      return Number(&out->text);
    }
    for (std::string_view word : {"true", "false", "null"}) {
      if (in.substr(pos).starts_with(word)) {
        out->kind = c == 'n' ? JsonValue::Kind::kNull : JsonValue::Kind::kBool;
        out->boolean = c == 't';
        pos += word.size();
        return true;
      }
    }
    return Error(pos == in.size() ? "unexpected end of input"
                                    : "expected a value");
  }

  // An object or an array; `pos` is on its opening brace.
  bool Container(JsonValue* out, size_t depth) {
    bool object = in[pos++] == '{';
    char close = object ? '}' : ']';
    out->kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(close)) return true;
    while (true) {
      JsonValue value;
      std::string key;
      if (object) {
        SkipSpace();
        if (Peek() != '"') return Error("expected a member name");
        if (!String(&key)) return false;
        SkipSpace();
        if (!Consume(':')) return Error("expected ':'");
      }
      if (!Value(&value, depth)) return false;
      if (object) {
        out->members.emplace_back(std::move(key), std::move(value));
      } else {
        out->items.push_back(std::move(value));
      }
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(close)) return true;
      return Error(object ? "expected ',' or '}'" : "expected ',' or ']'");
    }
  }

  // The four hex digits of a \u escape.
  bool Hex4(uint32_t* out) {
    const char* begin = in.data() + pos;
    const char* end = begin + std::min<size_t>(4, in.size() - pos);
    auto [stop, ec] = std::from_chars(begin, end, *out, 16);
    if (ec != std::errc() || stop != begin + 4) return Error("bad \\u escape");
    pos += 4;
    return true;
  }

  bool String(std::string* out) {
    ++pos;  // opening quote
    while (pos < in.size() && in[pos] != '"') {
      char c = in[pos++];
      if (c != '\\' || pos >= in.size()) {
        *out += c;
        continue;
      }
      size_t simple = std::string_view("\"\\/bfnrt").find(in[pos]);
      if (simple != std::string_view::npos) {
        *out += "\"\\/\b\f\n\r\t"[simple];
        ++pos;
        continue;
      }
      if (in[pos] != 'u') return Error("bad escape");
      ++pos;
      uint32_t cp = 0;
      uint32_t low = 0;
      if (!Hex4(&cp)) return false;
      // A high surrogate followed by an escaped low one is one code point;
      // a lone surrogate is kept as its own three bytes.
      if (cp >= 0xD800 && cp < 0xDC00 && in.substr(pos).starts_with("\\u")) {
        pos += 2;
        if (!Hex4(&low)) return false;
        if (low >= 0xDC00 && low < 0xE000) {
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else {
          pos -= 6;
        }
      }
      AppendUtf8(cp, out);
    }
    if (!Consume('"')) return Error("unterminated string");
    return true;
  }

  // RFC 8259 number grammar; the spelling is kept and converted on access.
  bool Number(std::string* out) {
    size_t start = pos;
    Consume('-');
    if (!Consume('0') && Digits() == 0) return Error("bad number");
    if (Consume('.') && Digits() == 0) return Error("bad number fraction");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (Digits() == 0) return Error("bad number exponent");
    }
    out->assign(in.substr(start, pos - start));
    return true;
  }
};

Status ValueError(const JsonValue& v, const char* what) {
  return Status::ParseError(StrFormat("byte %zu: %s", v.offset, what));
}

template <typename T>
Result<T> ToInteger(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber) {
    return ValueError(v, "expected an integer");
  }
  T out{};
  if (v.text.find_first_of(".eE") == std::string::npos) {
    auto [end, ec] = std::from_chars(v.text.data(),
                                     v.text.data() + v.text.size(), out);
    if (ec != std::errc()) return ValueError(v, "integer out of range");
    return out;
  }
  // A fraction or exponent may still spell a whole number ("2.0", "1e3").
  // The limits are powers of two, so their double conversions are exact.
  double d = strtod(v.text.c_str(), nullptr);
  if (d != std::floor(d)) return ValueError(v, "expected an integer");
  if (!(d >= static_cast<double>(std::numeric_limits<T>::min()) &&
        d < static_cast<double>(std::numeric_limits<T>::max()))) {
    return ValueError(v, "integer out of range");
  }
  return static_cast<T>(d);
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  auto it = std::find_if(members.begin(), members.end(),
                         [&](const auto& m) { return m.first == key; });
  return it == members.end() ? nullptr : &it->second;
}

Result<int64_t> JsonValue::AsInt() const { return ToInteger<int64_t>(*this); }

Result<uint64_t> JsonValue::AsUInt() const {
  return ToInteger<uint64_t>(*this);
}

Result<double> JsonValue::AsDouble() const {
  if (kind != Kind::kNumber) return ValueError(*this, "expected a number");
  double d = strtod(text.c_str(), nullptr);
  if (!std::isfinite(d)) return ValueError(*this, "number out of range");
  return d;
}

Result<JsonValue> ParseJson(std::string_view text) {
  Parser parser{text, 0, Status::OK()};
  JsonValue root;
  if (parser.Value(&root, 0)) {
    parser.SkipSpace();
    if (parser.pos == text.size()) return root;
    parser.Error("trailing content after the value");
  }
  return parser.error;
}

}  // namespace cologne
