#include "colog/parser.h"

#include "colog/knobs.h"
#include "colog/lexer.h"
#include "common/strings.h"

namespace cologne::colog {

namespace {

using datalog::AggKindFromName;
using datalog::ExprOp;

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Result<Program> Run() {
    Program prog;
    while (!Cur().is(TokKind::kEof)) {
      if (Cur().IsKeyword("goal")) {
        COLOGNE_RETURN_IF_ERROR(ParseGoal(&prog));
      } else if (Cur().IsKeyword("var")) {
        COLOGNE_RETURN_IF_ERROR(ParseVarDecl(&prog));
      } else if (Cur().IsKeyword("param")) {
        COLOGNE_RETURN_IF_ERROR(ParseParam(&prog));
      } else if (Cur().IsKeyword("table")) {
        COLOGNE_RETURN_IF_ERROR(ParseTableDecl(&prog));
      } else {
        COLOGNE_RETURN_IF_ERROR(ParseRule(&prog));
      }
    }
    return prog;
  }

 private:
  const Token& Cur() const { return toks_[pos_]; }
  const Token& Peek(size_t off = 1) const {
    size_t i = pos_ + off;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  Token Take() { return toks_[pos_++]; }

  Status Err(const std::string& msg) const {
    return Status::ParseError(
        StrFormat("line %d: %s (at %s)", Cur().line, msg.c_str(),
                  TokKindName(Cur().kind)));
  }

  Status Expect(TokKind k, const char* what) {
    if (!Cur().is(k)) {
      return Err(StrFormat("expected %s", what));
    }
    ++pos_;
    return Status::OK();
  }

  // --- Statements ----------------------------------------------------------

  Status ParseGoal(Program* prog) {
    GoalDecl goal;
    goal.line = Cur().line;
    ++pos_;  // 'goal'
    if (Cur().IsKeyword("minimize")) {
      goal.type = GoalType::kMinimize;
    } else if (Cur().IsKeyword("maximize")) {
      goal.type = GoalType::kMaximize;
    } else if (Cur().IsKeyword("satisfy")) {
      goal.type = GoalType::kSatisfy;
    } else {
      return Err("expected minimize/maximize/satisfy");
    }
    ++pos_;
    if (goal.type != GoalType::kSatisfy || Cur().is(TokKind::kVariable)) {
      if (!Cur().is(TokKind::kVariable)) return Err("expected goal attribute");
      goal.attr_var = Take().text;
      if (!Cur().IsKeyword("in")) return Err("expected 'in'");
      ++pos_;
      COLOGNE_ASSIGN_OR_RETURN(atom, ParseAtom());
      goal.atom = std::move(atom);
    }
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
    prog->goals.push_back(std::move(goal));
    return Status::OK();
  }

  Status ParseVarDecl(Program* prog) {
    VarDeclStmt decl;
    decl.line = Cur().line;
    ++pos_;  // 'var'
    COLOGNE_ASSIGN_OR_RETURN(va, ParseAtom());
    decl.var_atom = std::move(va);
    if (!Cur().IsKeyword("forall")) return Err("expected 'forall'");
    ++pos_;
    COLOGNE_ASSIGN_OR_RETURN(fa, ParseAtom());
    decl.forall_atom = std::move(fa);
    if (Cur().IsKeyword("domain")) {
      ++pos_;
      COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kLBracket, "'['"));
      COLOGNE_ASSIGN_OR_RETURN(lo, ParseExpr());
      decl.dom_lo = std::move(lo);
      COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kComma, "','"));
      COLOGNE_ASSIGN_OR_RETURN(hi, ParseExpr());
      decl.dom_hi = std::move(hi);
      COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kRBracket, "']'"));
    }
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
    prog->var_decls.push_back(std::move(decl));
    return Status::OK();
  }

  Status ParseParam(Program* prog) {
    ParamDecl p;
    p.line = Cur().line;
    ++pos_;  // 'param'
    if (!Cur().is(TokKind::kIdent) && !Cur().is(TokKind::kVariable)) {
      return Err("expected parameter name");
    }
    p.name = Take().text;
    if (Cur().is(TokKind::kEqualSign)) {
      ++pos_;
      bool neg = false;
      if (Cur().is(TokKind::kMinus)) {
        neg = true;
        ++pos_;
      }
      if (Cur().is(TokKind::kInt)) {
        p.value = neg ? Value::Int(-Cur().literal.as_int()) : Cur().literal;
      } else if (Cur().is(TokKind::kDouble)) {
        p.value =
            neg ? Value::Double(-Cur().literal.as_double()) : Cur().literal;
      } else if (Cur().is(TokKind::kString) && !neg) {
        p.value = Cur().literal;
      } else {
        return Err("expected literal parameter value");
      }
      ++pos_;
    } else if (FindKnob(p.name) != nullptr) {
      // Reserved knobs (SOLVER_MAX_TIME etc.) configure the runtime rather
      // than the program; an open (valueless) knob is meaningless.
      return Err("knob " + p.name + " requires a literal value");
    }
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
    prog->params.push_back(std::move(p));
    return Status::OK();
  }

  Status ParseTableDecl(Program* prog) {
    TableDecl t;
    t.line = Cur().line;
    ++pos_;  // 'table'
    if (!Cur().is(TokKind::kIdent)) return Err("expected table name");
    t.name = Take().text;
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    while (true) {
      if (!Cur().is(TokKind::kVariable)) return Err("expected attribute name");
      t.attrs.push_back(Take().text);
      if (Cur().is(TokKind::kComma)) {
        ++pos_;
        continue;
      }
      break;
    }
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    if (Cur().IsKeyword("keys")) {
      ++pos_;
      COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      while (true) {
        if (!Cur().is(TokKind::kVariable)) return Err("expected key attribute");
        t.keys.push_back(Take().text);
        if (Cur().is(TokKind::kComma)) {
          ++pos_;
          continue;
        }
        break;
      }
      COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    }
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
    prog->table_decls.push_back(std::move(t));
    return Status::OK();
  }

  Status ParseRule(Program* prog) {
    SrcRule rule;
    rule.line = Cur().line;
    // Optional label: identifier followed by another identifier + '('.
    if (Cur().is(TokKind::kIdent) && Peek(1).is(TokKind::kIdent) &&
        Peek(2).is(TokKind::kLParen)) {
      rule.label = Take().text;
    }
    COLOGNE_ASSIGN_OR_RETURN(head, ParseAtom());
    rule.head = std::move(head);
    if (Cur().is(TokKind::kLeftArrow)) {
      rule.is_constraint = false;
    } else if (Cur().is(TokKind::kRightArrow)) {
      rule.is_constraint = true;
    } else {
      return Err("expected '<-' or '->'");
    }
    ++pos_;
    while (true) {
      COLOGNE_ASSIGN_OR_RETURN(elem, ParseBodyElem());
      rule.body.push_back(std::move(elem));
      if (Cur().is(TokKind::kComma)) {
        ++pos_;
        continue;
      }
      break;
    }
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
    prog->rules.push_back(std::move(rule));
    return Status::OK();
  }

  // --- Atoms & body elements ----------------------------------------------

  Result<SrcAtom> ParseAtom() {
    SrcAtom atom;
    atom.line = Cur().line;
    if (!Cur().is(TokKind::kIdent)) {
      return Status(Err("expected predicate name"));
    }
    atom.pred = Take().text;
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    while (true) {
      SrcArg arg;
      if (Cur().is(TokKind::kAt)) {
        arg.loc = true;
        ++pos_;
      }
      // Aggregate argument: AGGNAME '<' Var '>'.
      if (Cur().is(TokKind::kVariable) && AggKindFromName(Cur().text) &&
          Peek(1).is(TokKind::kLt) && Peek(2).is(TokKind::kVariable) &&
          Peek(3).is(TokKind::kGt)) {
        arg.agg = *AggKindFromName(Cur().text);
        arg.agg_var = Peek(2).text;
        pos_ += 4;
      } else {
        COLOGNE_ASSIGN_OR_RETURN(e, ParseExpr());
        arg.expr = std::move(e);
      }
      atom.args.push_back(std::move(arg));
      if (Cur().is(TokKind::kComma)) {
        ++pos_;
        continue;
      }
      break;
    }
    COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    return atom;
  }

  Result<SrcBodyElem> ParseBodyElem() {
    SrcBodyElem elem;
    // Atom: lowercase identifier followed by '('.
    if (Cur().is(TokKind::kIdent) && Peek(1).is(TokKind::kLParen)) {
      elem.kind = SrcBodyElem::Kind::kAtom;
      COLOGNE_ASSIGN_OR_RETURN(atom, ParseAtom());
      elem.atom = std::move(atom);
      return elem;
    }
    // Assignment: Variable ':=' expr.
    if (Cur().is(TokKind::kVariable) && Peek(1).is(TokKind::kAssign)) {
      elem.kind = SrcBodyElem::Kind::kAssign;
      elem.assign_var = Take().text;
      ++pos_;  // ':='
      COLOGNE_ASSIGN_OR_RETURN(e, ParseExpr());
      elem.expr = std::move(e);
      return elem;
    }
    // Otherwise a boolean condition.
    elem.kind = SrcBodyElem::Kind::kCond;
    COLOGNE_ASSIGN_OR_RETURN(e, ParseExpr());
    elem.expr = std::move(e);
    return elem;
  }

  // --- Expressions (precedence climbing) -----------------------------------

  Result<SrcExpr> ParseExpr() { return ParseOr(); }

  Result<SrcExpr> ParseOr() {
    COLOGNE_ASSIGN_OR_RETURN(lhs, ParseAnd());
    while (Cur().is(TokKind::kOrOr)) {
      ++pos_;
      COLOGNE_ASSIGN_OR_RETURN(rhs, ParseAnd());
      lhs = SrcExpr::Binary(ExprOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<SrcExpr> ParseAnd() {
    COLOGNE_ASSIGN_OR_RETURN(lhs, ParseCmp());
    while (Cur().is(TokKind::kAndAnd)) {
      ++pos_;
      COLOGNE_ASSIGN_OR_RETURN(rhs, ParseCmp());
      lhs = SrcExpr::Binary(ExprOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<SrcExpr> ParseCmp() {
    COLOGNE_ASSIGN_OR_RETURN(lhs, ParseAdd());
    ExprOp op;
    switch (Cur().kind) {
      case TokKind::kEq: op = ExprOp::kEq; break;
      case TokKind::kNe: op = ExprOp::kNe; break;
      case TokKind::kLt: op = ExprOp::kLt; break;
      case TokKind::kLe: op = ExprOp::kLe; break;
      case TokKind::kGt: op = ExprOp::kGt; break;
      case TokKind::kGe: op = ExprOp::kGe; break;
      default: return lhs;
    }
    ++pos_;
    COLOGNE_ASSIGN_OR_RETURN(rhs, ParseAdd());
    return SrcExpr::Binary(op, std::move(lhs), std::move(rhs));
  }

  Result<SrcExpr> ParseAdd() {
    COLOGNE_ASSIGN_OR_RETURN(lhs, ParseMul());
    while (Cur().is(TokKind::kPlus) || Cur().is(TokKind::kMinus)) {
      ExprOp op = Cur().is(TokKind::kPlus) ? ExprOp::kAdd : ExprOp::kSub;
      ++pos_;
      COLOGNE_ASSIGN_OR_RETURN(rhs, ParseMul());
      lhs = SrcExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<SrcExpr> ParseMul() {
    COLOGNE_ASSIGN_OR_RETURN(lhs, ParseUnary());
    while (Cur().is(TokKind::kStar) || Cur().is(TokKind::kSlash) ||
           Cur().is(TokKind::kPercent)) {
      ExprOp op = Cur().is(TokKind::kStar)
                      ? ExprOp::kMul
                      : (Cur().is(TokKind::kSlash) ? ExprOp::kDiv
                                                   : ExprOp::kMod);
      ++pos_;
      COLOGNE_ASSIGN_OR_RETURN(rhs, ParseUnary());
      lhs = SrcExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<SrcExpr> ParseUnary() {
    if (Cur().is(TokKind::kMinus)) {
      ++pos_;
      COLOGNE_ASSIGN_OR_RETURN(operand, ParseUnary());
      return SrcExpr::Unary(ExprOp::kNeg, std::move(operand));
    }
    if (Cur().is(TokKind::kBang)) {
      ++pos_;
      COLOGNE_ASSIGN_OR_RETURN(operand, ParseUnary());
      return SrcExpr::Unary(ExprOp::kNot, std::move(operand));
    }
    return ParsePrimary();
  }

  Result<SrcExpr> ParsePrimary() {
    switch (Cur().kind) {
      case TokKind::kInt:
      case TokKind::kDouble:
      case TokKind::kString: {
        SrcExpr e = SrcExpr::Const(Cur().literal);
        ++pos_;
        return e;
      }
      case TokKind::kVariable: {
        SrcExpr e = SrcExpr::Var(Cur().text);
        ++pos_;
        return e;
      }
      case TokKind::kIdent: {
        SrcExpr e = SrcExpr::Param(Cur().text);
        ++pos_;
        return e;
      }
      case TokKind::kLParen: {
        ++pos_;
        COLOGNE_ASSIGN_OR_RETURN(inner, ParseExpr());
        COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        return inner;
      }
      case TokKind::kBar: {
        ++pos_;
        COLOGNE_ASSIGN_OR_RETURN(inner, ParseExpr());
        COLOGNE_RETURN_IF_ERROR(Expect(TokKind::kBar, "closing '|'"));
        return SrcExpr::Unary(ExprOp::kAbs, std::move(inner));
      }
      default:
        return Status(Err("expected expression"));
    }
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<Program> Parse(const std::string& source) {
  COLOGNE_ASSIGN_OR_RETURN(toks, Lex(source));
  Parser parser(std::move(toks));
  return parser.Run();
}

}  // namespace cologne::colog
