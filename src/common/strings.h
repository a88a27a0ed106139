// Small string helpers shared by the Colog frontend and the harnesses.
#ifndef COLOGNE_COMMON_STRINGS_H_
#define COLOGNE_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cologne {

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Join `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Append `v` in decimal (as std::to_string writes it), without a
/// temporary string.
void AppendInt(std::string* out, int64_t v);

/// Parse `s` as a plain non-negative decimal that fits in 64 bits (no
/// sign, no whitespace, no trailing characters). False otherwise.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Parse `s` as a plain finite decimal number: an optional '-', digits with
/// an optional fraction and exponent (std::from_chars general format). No
/// '+', whitespace, trailing characters, hex, inf or nan. False otherwise.
bool ParseDouble(std::string_view s, double* out);

/// Lowercase an ASCII string.
std::string ToLower(std::string_view s);

/// Shortest decimal string that round-trips `v` exactly through strtod
/// (tries %.15g, %.16g, %.17g). Used for canonical trace/fault-plan JSON,
/// where byte-identical output across runs must not lose precision.
std::string DoubleToShortestString(double v);

/// Escape `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view s);

}  // namespace cologne

#endif  // COLOGNE_COMMON_STRINGS_H_
