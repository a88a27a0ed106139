#include "solver/types.h"

#include <algorithm>

#include "common/strings.h"

namespace cologne::solver {

const char* RelName(Rel rel) {
  switch (rel) {
    case Rel::kEq: return "==";
    case Rel::kNe: return "!=";
    case Rel::kLe: return "<=";
    case Rel::kLt: return "<";
    case Rel::kGe: return ">=";
    case Rel::kGt: return ">";
  }
  return "?";
}

Rel Negate(Rel rel) {
  switch (rel) {
    case Rel::kEq: return Rel::kNe;
    case Rel::kNe: return Rel::kEq;
    case Rel::kLe: return Rel::kGt;
    case Rel::kLt: return Rel::kGe;
    case Rel::kGe: return Rel::kLt;
    case Rel::kGt: return Rel::kLe;
  }
  return Rel::kEq;
}

Rel Flip(Rel rel) {
  switch (rel) {
    case Rel::kEq: return Rel::kEq;
    case Rel::kNe: return Rel::kNe;
    case Rel::kLe: return Rel::kGe;
    case Rel::kLt: return Rel::kGt;
    case Rel::kGe: return Rel::kLe;
    case Rel::kGt: return Rel::kLt;
  }
  return rel;
}

bool EvalRel(int64_t lhs, Rel rel, int64_t rhs) {
  switch (rel) {
    case Rel::kEq: return lhs == rhs;
    case Rel::kNe: return lhs != rhs;
    case Rel::kLe: return lhs <= rhs;
    case Rel::kLt: return lhs < rhs;
    case Rel::kGe: return lhs >= rhs;
    case Rel::kGt: return lhs > rhs;
  }
  return false;
}

LinExpr& LinExpr::operator+=(const LinExpr& o) {
  constant += o.constant;
  terms.insert(terms.end(), o.terms.begin(), o.terms.end());
  Canonicalize();
  return *this;
}

LinExpr& LinExpr::operator-=(const LinExpr& o) {
  constant -= o.constant;
  for (const auto& [c, v] : o.terms) terms.push_back({-c, v});
  Canonicalize();
  return *this;
}

LinExpr& LinExpr::MulBy(int64_t k) {
  constant *= k;
  if (k == 0) {
    terms.clear();
    return *this;
  }
  for (auto& [c, v] : terms) c *= k;
  return *this;
}

void LinExpr::Canonicalize() {
  auto by_id = [](const std::pair<int64_t, IntVar>& a,
                  const std::pair<int64_t, IntVar>& b) {
    return a.second.id < b.second.id;
  };
  // Already canonical (the common case: a sum built term by term or a
  // re-canonicalized posting): strictly ascending ids, no zero coefficient.
  bool canonical = true;
  for (size_t i = 0; i < terms.size() && canonical; ++i) {
    canonical = terms[i].first != 0 &&
                (i == 0 || terms[i - 1].second.id < terms[i].second.id);
  }
  if (canonical) return;
  std::sort(terms.begin(), terms.end(), by_id);
  size_t out = 0;
  for (size_t i = 0; i < terms.size();) {
    int64_t c = 0;
    size_t j = i;
    for (; j < terms.size() && terms[j].second.id == terms[i].second.id; ++j) {
      c += terms[j].first;
    }
    if (c != 0) terms[out++] = {c, terms[i].second};
    i = j;
  }
  terms.resize(out);
}

std::string LinExpr::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void LinExpr::AppendTo(std::string* out) const {
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i) *out += " + ";
    AppendInt(out, terms[i].first);
    *out += "*x";
    AppendInt(out, terms[i].second.id);
  }
  if (constant != 0 || terms.empty()) {
    if (!terms.empty()) *out += " + ";
    AppendInt(out, constant);
  }
}

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kBranchAndBound: return "bnb";
    case Backend::kLns: return "lns";
  }
  return "?";
}

bool ParseBackend(const std::string& name, Backend* out) {
  if (name == "bnb" || name == "branch_and_bound") {
    *out = Backend::kBranchAndBound;
    return true;
  }
  if (name == "lns") {
    *out = Backend::kLns;
    return true;
  }
  return false;
}

const char* SolveStatusName(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnknown: return "unknown";
  }
  return "?";
}

const char* PropKindName(PropKind kind) {
  switch (kind) {
    case PropKind::kLinear: return "linear";
    case PropKind::kReified: return "reified";
    case PropKind::kTimes: return "times";
    case PropKind::kAbs: return "abs";
    case PropKind::kOr: return "or";
    case PropKind::kMaxConst: return "max_const";
    case PropKind::kOther: return "other";
  }
  return "?";
}

}  // namespace cologne::solver
