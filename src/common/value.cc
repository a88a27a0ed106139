#include "common/value.h"

#include <cstdio>
#include <mutex>
#include <unordered_set>

namespace cologne {

namespace {
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

Value Value::Str(std::string v) {
  // Append-only: entries are never erased, and unordered_set nodes do not
  // move on rehash, so the returned pointer stays valid for the process.
  // Leaked on purpose so no Value outlives its string during static
  // destruction.
  struct Interner {
    std::mutex mu;
    std::unordered_set<std::string> strings;
  };
  static auto* interner = new Interner;
  std::lock_guard<std::mutex> lock(interner->mu);
  const std::string* s = &*interner->strings.insert(std::move(v)).first;
  return Value(ValueType::kString, reinterpret_cast<uintptr_t>(s));
}

uint64_t Value::Hash() const {
  uint64_t h = kFnvOffset;
  uint8_t tag = static_cast<uint8_t>(type());
  h = FnvMix(h, &tag, 1);
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      int64_t v = as_int();
      h = FnvMix(h, &v, sizeof(v));
      break;
    }
    case ValueType::kDouble: {
      // -0.0 == 0.0, so both must hash alike.
      double v = as_double();
      if (v == 0.0) v = 0.0;
      h = FnvMix(h, &v, sizeof(v));
      break;
    }
    case ValueType::kString: {
      const std::string& s = as_string();
      h = FnvMix(h, s.data(), s.size());
      break;
    }
    case ValueType::kNode: {
      NodeId v = as_node();
      h = FnvMix(h, &v, sizeof(v));
      break;
    }
    case ValueType::kSym: {
      int32_t v = sym_index();
      h = FnvMix(h, &v, sizeof(v));
      break;
    }
  }
  return h;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return std::to_string(as_int());
    case ValueType::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%g", as_double());
      return buf;
    }
    case ValueType::kString: return "\"" + as_string() + "\"";
    case ValueType::kNode: return "@" + std::to_string(as_node());
    case ValueType::kSym: return "$" + std::to_string(sym_index());
  }
  return "?";
}

size_t Value::WireSize() const {
  switch (type()) {
    case ValueType::kNull: return 1;
    case ValueType::kInt: return 1 + 8;
    case ValueType::kDouble: return 1 + 8;
    case ValueType::kString: return 1 + 4 + as_string().size();
    case ValueType::kNode: return 1 + 4;
    case ValueType::kSym: return 1 + 4;
  }
  return 1;
}

uint64_t HashRow(const Row& row) {
  uint64_t h = kFnvOffset;
  for (const Value& v : row) {
    uint64_t hv = v.Hash();
    h = FnvMix(h, &hv, sizeof(hv));
  }
  return h;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace cologne
