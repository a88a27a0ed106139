// Slot-based expression IR shared by the Datalog engine (concrete evaluation)
// and the solver bridge (symbolic evaluation over constraint-network values).
//
// The Colog planner resolves source-level variable names to dense *slots* in
// a per-rule binding array; expressions then reference slots only.
#ifndef COLOGNE_DATALOG_EXPR_H_
#define COLOGNE_DATALOG_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace cologne::datalog {

/// Expression node operator.
enum class ExprOp : uint8_t {
  kConst,  ///< Literal value.
  kSlot,   ///< Reference to a rule binding slot.
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kNeg,  ///< Unary minus.
  kAbs,  ///< |x| (the paper's wireless programs use |C1-C2|).
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
};

/// True for ==, !=, <, <=, >, >=.
bool IsComparison(ExprOp op);
/// True for and/or/not.
bool IsLogical(ExprOp op);

/// \brief Expression tree over constants and binding slots.
struct Expr {
  ExprOp op = ExprOp::kConst;
  Value const_val;          ///< kConst payload.
  int slot = -1;            ///< kSlot payload.
  std::vector<Expr> kids;   ///< Operands for compound nodes.

  static Expr Const(Value v) {
    Expr e;
    e.op = ExprOp::kConst;
    e.const_val = std::move(v);
    return e;
  }
  static Expr Slot(int s) {
    Expr e;
    e.op = ExprOp::kSlot;
    e.slot = s;
    return e;
  }
  static Expr Unary(ExprOp op, Expr a) {
    Expr e;
    e.op = op;
    e.kids.push_back(std::move(a));
    return e;
  }
  static Expr Binary(ExprOp op, Expr a, Expr b) {
    Expr e;
    e.op = op;
    e.kids.push_back(std::move(a));
    e.kids.push_back(std::move(b));
    return e;
  }

  /// Collect all referenced slots into `out` (with duplicates).
  void CollectSlots(std::vector<int>* out) const;

  std::string ToString() const;
};

/// Evaluate over concrete values. Returns an error if a referenced slot holds
/// a symbolic (kSym) value or is unbound (null), or on type mismatch /
/// division by zero. Integer arithmetic stays integral; mixing with doubles
/// promotes to double; comparisons yield Int(0/1).
Result<Value> EvalExpr(const Expr& e, const std::vector<Value>& slots);

/// Apply a unary operator (kNeg, kAbs, kNot) to a concrete operand.
Result<Value> EvalUnaryOp(ExprOp op, const Value& a);

/// Apply a binary operator to two concrete operands that are both already
/// evaluated (kAnd/kOr therefore do not short-circuit). Same results and
/// errors as EvalExpr over two constants.
Result<Value> EvalBinaryOp(ExprOp op, const Value& a, const Value& b);

/// Truthiness of a concrete value (nonzero numeric).
bool ValueIsTrue(const Value& v);

}  // namespace cologne::datalog

#endif  // COLOGNE_DATALOG_EXPR_H_
