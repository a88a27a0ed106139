#include "common/strings.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cologne {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  const char* end = s.data() + s.size();
  auto [stop, ec] = std::from_chars(s.data(), end, *out, 10);
  return !s.empty() && ec == std::errc() && stop == end;
}

bool ParseDouble(std::string_view s, double* out) {
  const char* end = s.data() + s.size();
  double v = 0;
  auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || stop != end || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(tolower(static_cast<unsigned char>(c)));
  return out;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

std::string DoubleToShortestString(double v) {
  for (int prec = 15; prec <= 17; ++prec) {
    std::string s = StrFormat("%.*g", prec, v);
    if (strtod(s.c_str(), nullptr) == v) return s;
  }
  return StrFormat("%.17g", v);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace cologne
