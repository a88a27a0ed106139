#include "colog/lexer.h"

#include <cctype>

#include "common/strings.h"

namespace cologne::colog {

const char* TokKindName(TokKind k) {
  switch (k) {
    case TokKind::kIdent: return "identifier";
    case TokKind::kVariable: return "variable";
    case TokKind::kInt: return "integer";
    case TokKind::kDouble: return "double";
    case TokKind::kString: return "string";
    case TokKind::kLParen: return "'('";
    case TokKind::kRParen: return "')'";
    case TokKind::kLBracket: return "'['";
    case TokKind::kRBracket: return "']'";
    case TokKind::kComma: return "','";
    case TokKind::kDot: return "'.'";
    case TokKind::kAt: return "'@'";
    case TokKind::kBar: return "'|'";
    case TokKind::kLeftArrow: return "'<-'";
    case TokKind::kRightArrow: return "'->'";
    case TokKind::kAssign: return "':='";
    case TokKind::kEqualSign: return "'='";
    case TokKind::kEq: return "'=='";
    case TokKind::kNe: return "'!='";
    case TokKind::kLt: return "'<'";
    case TokKind::kLe: return "'<='";
    case TokKind::kGt: return "'>'";
    case TokKind::kGe: return "'>='";
    case TokKind::kPlus: return "'+'";
    case TokKind::kMinus: return "'-'";
    case TokKind::kStar: return "'*'";
    case TokKind::kSlash: return "'/'";
    case TokKind::kPercent: return "'%'";
    case TokKind::kAndAnd: return "'&&'";
    case TokKind::kOrOr: return "'||'";
    case TokKind::kBang: return "'!'";
    case TokKind::kEof: return "end of input";
  }
  return "?";
}

Result<std::vector<Token>> Lex(const std::string& src) {
  std::vector<Token> out;
  size_t i = 0;
  int line = 1;
  const size_t n = src.size();

  auto peek = [&](size_t off) -> char {
    return i + off < n ? src[i + off] : '\0';
  };
  auto push = [&](TokKind k, std::string text = "") {
    Token t;
    t.kind = k;
    t.text = std::move(text);
    t.line = line;
    out.push_back(std::move(t));
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '#' || (c == '/' && peek(1) == '/')) {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    // Identifiers / variables.
    if (isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (isalnum(static_cast<unsigned char>(src[i])) ||
                       src[i] == '_')) {
        ++i;
      }
      std::string text = src.substr(start, i - start);
      bool upper = isupper(static_cast<unsigned char>(text[0])) != 0;
      push(upper ? TokKind::kVariable : TokKind::kIdent, std::move(text));
      continue;
    }
    // Numbers. A '.' is part of the number only when followed by a digit,
    // so statement-terminating dots lex separately.
    if (isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && isdigit(static_cast<unsigned char>(src[i]))) ++i;
      bool is_double = false;
      if (i < n && src[i] == '.' && i + 1 < n &&
          isdigit(static_cast<unsigned char>(src[i + 1]))) {
        is_double = true;
        ++i;
        while (i < n && isdigit(static_cast<unsigned char>(src[i]))) ++i;
      }
      std::string text = src.substr(start, i - start);
      Token t;
      t.kind = is_double ? TokKind::kDouble : TokKind::kInt;
      t.literal = is_double ? Value::Double(atof(text.c_str()))
                            : Value::Int(atoll(text.c_str()));
      t.text = std::move(text);
      t.line = line;
      out.push_back(std::move(t));
      continue;
    }
    // Strings.
    if (c == '"') {
      size_t start = ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i >= n) {
        return Status::ParseError(
            StrFormat("line %d: unterminated string literal", line));
      }
      Token t;
      t.kind = TokKind::kString;
      t.literal = Value::Str(src.substr(start, i - start));
      t.line = line;
      out.push_back(std::move(t));
      ++i;  // closing quote
      continue;
    }
    // Operators and punctuation.
    switch (c) {
      case '(': push(TokKind::kLParen); ++i; continue;
      case ')': push(TokKind::kRParen); ++i; continue;
      case '[': push(TokKind::kLBracket); ++i; continue;
      case ']': push(TokKind::kRBracket); ++i; continue;
      case ',': push(TokKind::kComma); ++i; continue;
      case '.': push(TokKind::kDot); ++i; continue;
      case '@': push(TokKind::kAt); ++i; continue;
      case '+': push(TokKind::kPlus); ++i; continue;
      case '*': push(TokKind::kStar); ++i; continue;
      case '/': push(TokKind::kSlash); ++i; continue;
      case '%': push(TokKind::kPercent); ++i; continue;
      case '-':
        if (peek(1) == '>') {
          push(TokKind::kRightArrow);
          i += 2;
        } else {
          push(TokKind::kMinus);
          ++i;
        }
        continue;
      case '<':
        if (peek(1) == '-') {
          push(TokKind::kLeftArrow);
          i += 2;
        } else if (peek(1) == '=') {
          push(TokKind::kLe);
          i += 2;
        } else {
          push(TokKind::kLt);
          ++i;
        }
        continue;
      case '>':
        if (peek(1) == '=') {
          push(TokKind::kGe);
          i += 2;
        } else {
          push(TokKind::kGt);
          ++i;
        }
        continue;
      case '=':
        if (peek(1) == '=') {
          push(TokKind::kEq);
          i += 2;
        } else {
          push(TokKind::kEqualSign);
          ++i;
        }
        continue;
      case '!':
        if (peek(1) == '=') {
          push(TokKind::kNe);
          i += 2;
        } else {
          push(TokKind::kBang);
          ++i;
        }
        continue;
      case ':':
        if (peek(1) == '=') {
          push(TokKind::kAssign);
          i += 2;
          continue;
        }
        return Status::ParseError(StrFormat("line %d: stray ':'", line));
      case '&':
        if (peek(1) == '&') {
          push(TokKind::kAndAnd);
          i += 2;
          continue;
        }
        return Status::ParseError(StrFormat("line %d: stray '&'", line));
      case '|':
        if (peek(1) == '|') {
          push(TokKind::kOrOr);
          i += 2;
        } else {
          push(TokKind::kBar);
          ++i;
        }
        continue;
      default:
        return Status::ParseError(
            StrFormat("line %d: unexpected character '%c'", line, c));
    }
  }
  push(TokKind::kEof);
  return out;
}

}  // namespace cologne::colog
