// One canonical JSON writer and one JSON reader shared by the whole tree.
//
// The trace recorder (runtime/trace_replay.cc), the fault-plan serializer
// (net/fault_plan.cc), the bench SolveRecord rows (common/stats.cc) and the
// obs metrics snapshots (obs/metrics.cc) all print JSON object lines that
// must be byte-stable across runs and platforms: fixed field order, no
// whitespace, doubles via DoubleToShortestString (shortest round-trip), and
// strings through one JsonEscape. Hand-rolled emitters drifted on escaping
// (SolveRecord labels were pasted raw); routing everything through this
// writer makes quotes and backslashes round-trip identically everywhere.
//
// ParseJson is the one reader (fault plans, trace headers, tools/explain).
// It takes RFC 8259 JSON, whitespace included, into a JsonValue tree. It
// decodes every escape, \uXXXX with checked hex digits, and keeps other
// string bytes as they are, so whatever JsonEscape writes reads back byte
// for byte. Numbers keep their raw spelling; AsInt/AsUInt/AsDouble reject a
// non-number, a non-integer or an out-of-range value instead of casting.
// Trailing content and nesting deeper than kMaxJsonDepth are errors. Every
// error is a Status::ParseError whose message names the byte offset.
#ifndef COLOGNE_COMMON_JSON_H_
#define COLOGNE_COMMON_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cologne {

/// \brief Append-only canonical JSON builder with automatic commas.
///
/// Calls mirror the output structure: BeginObject/Key/value.../EndObject.
/// Values at array level and keys at object level get their separating
/// comma inserted automatically; nothing else is ever emitted, so the
/// result is canonical (no spaces, stable ordering = call ordering).
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{', /*array=*/false); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('[', /*array=*/true); }
  JsonWriter& EndArray() { return Close(']'); }

  /// Object member name; the next value call supplies its value.
  JsonWriter& Key(const char* name);

  JsonWriter& String(const std::string& v);
  JsonWriter& Int(int64_t v);
  JsonWriter& UInt(uint64_t v);
  /// Canonical double: shortest string that round-trips (strings.h).
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  /// Pre-rendered JSON, spliced verbatim (e.g. a nested ToJson()).
  JsonWriter& Raw(const std::string& json);
  /// Pre-rendered `"key":value[,...]` members, spliced into the current
  /// object with the usual comma bookkeeping (trace fault details arrive
  /// pre-rendered from the fault scheduler).
  JsonWriter& Members(const std::string& json);

  const std::string& str() const { return out_; }
  /// Move the finished document out; the writer is reusable afterwards.
  std::string Take();

 private:
  struct Frame {
    bool array = false;
    bool first = true;
  };

  JsonWriter& Open(char brace, bool array);
  JsonWriter& Close(char brace);
  /// Comma bookkeeping before a value (or container) is emitted.
  void BeforeValue();

  std::string out_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
};

/// Deepest nesting ParseJson accepts; traces and fault plans nest five deep.
inline constexpr size_t kMaxJsonDepth = 128;

/// \brief One parsed JSON value: a plain tree built by ParseJson.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< kNumber: raw spelling; kString: decoded bytes.
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
  size_t offset = 0;  ///< Byte offset in the parsed document.

  /// The first member named `key`, or nullptr (also for a non-object).
  const JsonValue* Find(std::string_view key) const;

  /// Checked number conversions; a ParseError naming the offset otherwise.
  Result<int64_t> AsInt() const;
  Result<uint64_t> AsUInt() const;
  Result<double> AsDouble() const;
};

/// Parse one JSON document (only whitespace may follow the root value).
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace cologne

#endif  // COLOGNE_COMMON_JSON_H_
