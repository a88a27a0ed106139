// Tokenizer for Colog source.
#ifndef COLOGNE_COLOG_LEXER_H_
#define COLOGNE_COLOG_LEXER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace cologne::colog {

/// Token categories. Lexing notes:
///  * `<-` lexes as kLeftArrow only when '<' is immediately followed by '-';
///    write `X < -2` (with a space) for "less than negative two".
///  * Lowercase-initial identifiers are kIdent (predicates, parameters,
///    keywords); uppercase-initial are kVariable (rule variables,
///    aggregate keywords such as SUM, which the parser special-cases, and
///    the reserved knob names of colog/knobs.h).
enum class TokKind : uint8_t {
  kIdent,      // lowercase identifier
  kVariable,   // Uppercase identifier
  kInt,
  kDouble,
  kString,
  kLParen,     // (
  kRParen,     // )
  kLBracket,   // [
  kRBracket,   // ]
  kComma,      // ,
  kDot,        // .
  kAt,         // @
  kBar,        // |
  kLeftArrow,  // <-
  kRightArrow, // ->
  kAssign,     // :=
  kEqualSign,  // =
  kEq,         // ==
  kNe,         // !=
  kLt,         // <
  kLe,         // <=
  kGt,         // >
  kGe,         // >=
  kPlus,       // +
  kMinus,      // -
  kStar,       // *
  kSlash,      // /
  kPercent,    // %
  kAndAnd,     // &&
  kOrOr,       // ||
  kBang,       // !
  kEof,
};

/// One lexed token.
struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;   ///< Identifier / variable spelling.
  Value literal;      ///< kInt / kDouble / kString payload.
  int line = 0;

  bool is(TokKind k) const { return kind == k; }
  /// True for a kIdent with exactly this spelling (keyword check).
  bool IsKeyword(const char* kw) const {
    return kind == TokKind::kIdent && text == kw;
  }
};

/// Tokenize `source`. Comments: `//` and `#` to end of line.
Result<std::vector<Token>> Lex(const std::string& source);

/// Human-readable token-kind name for diagnostics.
const char* TokKindName(TokKind k);

}  // namespace cologne::colog

#endif  // COLOGNE_COLOG_LEXER_H_
