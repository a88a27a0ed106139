#include "datalog/expr.h"

#include <cmath>

#include "common/strings.h"

namespace cologne::datalog {

bool IsComparison(ExprOp op) {
  switch (op) {
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsLogical(ExprOp op) {
  return op == ExprOp::kAnd || op == ExprOp::kOr || op == ExprOp::kNot;
}

void Expr::CollectSlots(std::vector<int>* out) const {
  if (op == ExprOp::kSlot) out->push_back(slot);
  for (const Expr& k : kids) k.CollectSlots(out);
}

namespace {
const char* OpName(ExprOp op) {
  switch (op) {
    case ExprOp::kConst: return "const";
    case ExprOp::kSlot: return "slot";
    case ExprOp::kAdd: return "+";
    case ExprOp::kSub: return "-";
    case ExprOp::kMul: return "*";
    case ExprOp::kDiv: return "/";
    case ExprOp::kMod: return "%";
    case ExprOp::kNeg: return "neg";
    case ExprOp::kAbs: return "abs";
    case ExprOp::kEq: return "==";
    case ExprOp::kNe: return "!=";
    case ExprOp::kLt: return "<";
    case ExprOp::kLe: return "<=";
    case ExprOp::kGt: return ">";
    case ExprOp::kGe: return ">=";
    case ExprOp::kAnd: return "&&";
    case ExprOp::kOr: return "||";
    case ExprOp::kNot: return "!";
  }
  return "?";
}
}  // namespace

std::string Expr::ToString() const {
  switch (op) {
    case ExprOp::kConst: return const_val.ToString();
    case ExprOp::kSlot: return "s" + std::to_string(slot);
    case ExprOp::kNeg: return "-(" + kids[0].ToString() + ")";
    case ExprOp::kAbs: return "|" + kids[0].ToString() + "|";
    case ExprOp::kNot: return "!(" + kids[0].ToString() + ")";
    default:
      return "(" + kids[0].ToString() + " " + OpName(op) + " " +
             kids[1].ToString() + ")";
  }
}

bool ValueIsTrue(const Value& v) {
  if (v.is_int()) return v.as_int() != 0;
  if (v.is_double()) return v.as_double() != 0.0;
  return false;
}

namespace {

bool BothInt(const Value& a, const Value& b) {
  return a.is_int() && b.is_int();
}

Result<Value> Compare(ExprOp op, const Value& a, const Value& b) {
  // Numeric comparison coerces; otherwise compare only like types.
  bool result;
  if (a.is_numeric() && b.is_numeric()) {
    if (BothInt(a, b)) {
      int64_t x = a.as_int(), y = b.as_int();
      switch (op) {
        case ExprOp::kEq: result = x == y; break;
        case ExprOp::kNe: result = x != y; break;
        case ExprOp::kLt: result = x < y; break;
        case ExprOp::kLe: result = x <= y; break;
        case ExprOp::kGt: result = x > y; break;
        default: result = x >= y; break;
      }
    } else {
      double x = a.as_double(), y = b.as_double();
      switch (op) {
        case ExprOp::kEq: result = x == y; break;
        case ExprOp::kNe: result = x != y; break;
        case ExprOp::kLt: result = x < y; break;
        case ExprOp::kLe: result = x <= y; break;
        case ExprOp::kGt: result = x > y; break;
        default: result = x >= y; break;
      }
    }
  } else if (a.type() == b.type()) {
    switch (op) {
      case ExprOp::kEq: result = a == b; break;
      case ExprOp::kNe: result = !(a == b); break;
      case ExprOp::kLt: result = a < b; break;
      case ExprOp::kLe: result = a < b || a == b; break;
      case ExprOp::kGt: result = b < a; break;
      default: result = b < a || a == b; break;
    }
  } else {
    // Cross-type: only (in)equality is meaningful.
    if (op == ExprOp::kEq) {
      result = false;
    } else if (op == ExprOp::kNe) {
      result = true;
    } else {
      return Status::RuntimeError("ordering comparison across types: " +
                                  a.ToString() + " vs " + b.ToString());
    }
  }
  return Value::Int(result ? 1 : 0);
}

Result<Value> Arith(ExprOp op, const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::RuntimeError("arithmetic on non-numeric values: " +
                                a.ToString() + " " + b.ToString());
  }
  if (BothInt(a, b)) {
    int64_t x = a.as_int(), y = b.as_int();
    switch (op) {
      case ExprOp::kAdd: return Value::Int(x + y);
      case ExprOp::kSub: return Value::Int(x - y);
      case ExprOp::kMul: return Value::Int(x * y);
      case ExprOp::kDiv:
        if (y == 0) return Status::RuntimeError("integer division by zero");
        return Value::Int(x / y);
      case ExprOp::kMod:
        if (y == 0) return Status::RuntimeError("modulo by zero");
        return Value::Int(x % y);
      default: break;
    }
  }
  double x = a.as_double(), y = b.as_double();
  switch (op) {
    case ExprOp::kAdd: return Value::Double(x + y);
    case ExprOp::kSub: return Value::Double(x - y);
    case ExprOp::kMul: return Value::Double(x * y);
    case ExprOp::kDiv:
      if (y == 0) return Status::RuntimeError("division by zero");
      return Value::Double(x / y);
    case ExprOp::kMod:
      return Status::RuntimeError("modulo on doubles");
    default: break;
  }
  return Status::RuntimeError("bad arithmetic op");
}

}  // namespace

Result<Value> EvalUnaryOp(ExprOp op, const Value& a) {
  switch (op) {
    case ExprOp::kNeg:
      if (a.is_int()) return Value::Int(-a.as_int());
      if (a.is_double()) return Value::Double(-a.as_double());
      return Status::RuntimeError("negating non-numeric value");
    case ExprOp::kAbs:
      if (a.is_int()) return Value::Int(std::abs(a.as_int()));
      if (a.is_double()) return Value::Double(std::fabs(a.as_double()));
      return Status::RuntimeError("abs of non-numeric value");
    case ExprOp::kNot:
      return Value::Int(ValueIsTrue(a) ? 0 : 1);
    default:
      return Status::RuntimeError("bad unary op");
  }
}

Result<Value> EvalBinaryOp(ExprOp op, const Value& a, const Value& b) {
  if (op == ExprOp::kAnd) {
    return Value::Int(ValueIsTrue(a) && ValueIsTrue(b) ? 1 : 0);
  }
  if (op == ExprOp::kOr) {
    return Value::Int(ValueIsTrue(a) || ValueIsTrue(b) ? 1 : 0);
  }
  if (IsComparison(op)) return Compare(op, a, b);
  return Arith(op, a, b);
}

Result<Value> EvalExpr(const Expr& e, const std::vector<Value>& slots) {
  switch (e.op) {
    case ExprOp::kConst:
      return e.const_val;
    case ExprOp::kSlot: {
      if (e.slot < 0 || static_cast<size_t>(e.slot) >= slots.size()) {
        return Status::RuntimeError("slot out of range");
      }
      const Value& v = slots[static_cast<size_t>(e.slot)];
      if (v.is_null()) {
        return Status::RuntimeError("unbound slot s" + std::to_string(e.slot));
      }
      if (v.is_sym()) {
        return Status::RuntimeError(
            "symbolic value reached the concrete evaluator (slot s" +
            std::to_string(e.slot) + ")");
      }
      return v;
    }
    case ExprOp::kNeg:
    case ExprOp::kAbs:
    case ExprOp::kNot: {
      COLOGNE_ASSIGN_OR_RETURN(v, EvalExpr(e.kids[0], slots));
      return EvalUnaryOp(e.op, v);
    }
    case ExprOp::kAnd: {
      COLOGNE_ASSIGN_OR_RETURN(a, EvalExpr(e.kids[0], slots));
      if (!ValueIsTrue(a)) return Value::Int(0);
      COLOGNE_ASSIGN_OR_RETURN(b, EvalExpr(e.kids[1], slots));
      return Value::Int(ValueIsTrue(b) ? 1 : 0);
    }
    case ExprOp::kOr: {
      COLOGNE_ASSIGN_OR_RETURN(a, EvalExpr(e.kids[0], slots));
      if (ValueIsTrue(a)) return Value::Int(1);
      COLOGNE_ASSIGN_OR_RETURN(b, EvalExpr(e.kids[1], slots));
      return Value::Int(ValueIsTrue(b) ? 1 : 0);
    }
    default: {
      COLOGNE_ASSIGN_OR_RETURN(a, EvalExpr(e.kids[0], slots));
      COLOGNE_ASSIGN_OR_RETURN(b, EvalExpr(e.kids[1], slots));
      return EvalBinaryOp(e.op, a, b);
    }
  }
}

}  // namespace cologne::datalog
