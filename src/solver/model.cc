#include "solver/model.h"

#include <algorithm>
#include <set>

#include "solver/template_cache.h"

namespace cologne::solver {

void Model::Clear() {
  domains_.clear();
  is_decision_.clear();
  groups_.clear();
  has_decisions_ = false;
  sense_ = Sense::kSatisfy;
  objective_ = IntVar{};
  shape_.clear();
  consts_.clear();
  num_props_ = 0;
}

IntVar Model::NewInt(int64_t lo, int64_t hi) {
  return NewIntFromDomain(IntDomain(lo, hi));
}

IntVar Model::NewIntFromDomain(IntDomain dom) {
  IntVar v{static_cast<int32_t>(domains_.size())};
  domains_.push_back(std::move(dom));
  shape_.push_back(static_cast<int32_t>(ModelOp::kVar));
  return v;
}

void Model::RecordLinear(ModelOp op, IntVar b, const LinExpr& e, Rel rel) {
  shape_.push_back(static_cast<int32_t>(op));
  if (op == ModelOp::kReified) shape_.push_back(b.id);
  shape_.push_back(static_cast<int32_t>(rel));
  shape_.push_back(static_cast<int32_t>(e.terms.size()));
  consts_.push_back(e.constant);
  for (const auto& [c, v] : e.terms) {
    shape_.push_back(v.id);
    consts_.push_back(c);
  }
  ++num_props_;
}

void Model::PostLinear(LinExpr e, Rel rel) {
  e.Canonicalize();
  RecordLinear(ModelOp::kLinear, IntVar{}, e, rel);
}

void Model::PostRel(LinExpr lhs, Rel rel, LinExpr rhs) {
  lhs -= rhs;
  PostLinear(std::move(lhs), rel);
}

void Model::PostReified(IntVar b, LinExpr lhs, Rel rel, LinExpr rhs) {
  lhs -= rhs;  // canonicalizes
  RecordLinear(ModelOp::kReified, b, lhs, rel);
}

IntVar Model::ReifyRel(LinExpr lhs, Rel rel, LinExpr rhs) {
  IntVar b = NewBool();
  PostReified(b, std::move(lhs), rel, std::move(rhs));
  return b;
}

void Model::RemoveValue(IntVar v, int64_t value) {
  domains_[static_cast<size_t>(v.id)].Remove(value);
  Record(ModelOp::kRemove, v.id);
}

ExprBounds Model::InitialBounds(const LinExpr& e) const {
  __int128 lo = e.constant, hi = e.constant;
  for (const auto& [c, v] : e.terms) {
    const IntDomain& d = domains_[static_cast<size_t>(v.id)];
    if (c >= 0) {
      lo += static_cast<__int128>(c) * d.min();
      hi += static_cast<__int128>(c) * d.max();
    } else {
      lo += static_cast<__int128>(c) * d.max();
      hi += static_cast<__int128>(c) * d.min();
    }
  }
  auto clamp = [](__int128 x) {
    if (x > kDomainLimit) return kDomainLimit;
    if (x < -kDomainLimit) return -kDomainLimit;
    return static_cast<int64_t>(x);
  };
  return {clamp(lo), clamp(hi)};
}

IntVar Model::VarOf(const LinExpr& e) {
  if (e.constant == 0 && e.terms.size() == 1 && e.terms[0].first == 1) {
    return e.terms[0].second;
  }
  ExprBounds b = InitialBounds(e);
  IntVar v = NewInt(b.min, b.max);
  LinExpr chan = e;
  chan -= LinExpr(v);
  PostLinear(std::move(chan), Rel::kEq);
  return v;
}

IntVar Model::MakeTimes(IntVar x, IntVar y) {
  ExprBounds bx{InitialDomain(x).min(), InitialDomain(x).max()};
  ExprBounds by{InitialDomain(y).min(), InitialDomain(y).max()};
  __int128 c1 = static_cast<__int128>(bx.min) * by.min;
  __int128 c2 = static_cast<__int128>(bx.min) * by.max;
  __int128 c3 = static_cast<__int128>(bx.max) * by.min;
  __int128 c4 = static_cast<__int128>(bx.max) * by.max;
  __int128 lo = std::min(std::min(c1, c2), std::min(c3, c4));
  __int128 hi = std::max(std::max(c1, c2), std::max(c3, c4));
  auto clamp = [](__int128 v) {
    if (v > kDomainLimit) return kDomainLimit;
    if (v < -kDomainLimit) return -kDomainLimit;
    return static_cast<int64_t>(v);
  };
  IntVar z = NewInt(clamp(lo), clamp(hi));
  shape_.insert(shape_.end(),
                {static_cast<int32_t>(ModelOp::kTimes), z.id, x.id, y.id});
  ++num_props_;
  return z;
}

IntVar Model::MakeSquare(const LinExpr& e) {
  IntVar x = VarOf(e);
  return MakeTimes(x, x);
}

IntVar Model::MakeAbs(const LinExpr& e) {
  IntVar x = VarOf(e);
  const IntDomain& d = InitialDomain(x);
  int64_t hi = std::max(std::abs(d.min()), std::abs(d.max()));
  IntVar z = NewInt(0, hi);
  shape_.insert(shape_.end(),
                {static_cast<int32_t>(ModelOp::kAbs), z.id, x.id});
  ++num_props_;
  return z;
}

IntVar Model::MakeMaxConst(const LinExpr& e, int64_t c) {
  IntVar x = VarOf(e);
  const IntDomain& d = InitialDomain(x);
  IntVar z = NewInt(std::max(d.min(), c), std::max(d.max(), c));
  shape_.insert(shape_.end(),
                {static_cast<int32_t>(ModelOp::kMaxConst), z.id, x.id});
  consts_.push_back(c);
  ++num_props_;
  return z;
}

IntVar Model::MakeOr(std::vector<IntVar> bs) {
  IntVar b = NewBool();
  shape_.insert(shape_.end(), {static_cast<int32_t>(ModelOp::kOr), b.id,
                               static_cast<int32_t>(bs.size())});
  for (IntVar v : bs) shape_.push_back(v.id);
  ++num_props_;
  return b;
}

IntVar Model::MakeCountDistinct(const std::vector<IntVar>& vars) {
  // Union of candidate values over all initial domains.
  std::set<int64_t> values;
  for (IntVar v : vars) {
    for (int64_t x : InitialDomain(v).Values()) values.insert(x);
  }
  LinExpr sum;
  for (int64_t val : values) {
    std::vector<IntVar> members;
    for (IntVar v : vars) {
      if (!InitialDomain(v).Contains(val)) continue;
      members.push_back(ReifyRel(LinExpr(v), Rel::kEq, LinExpr(val)));
    }
    if (members.empty()) continue;
    IntVar used = MakeOr(std::move(members));
    sum += LinExpr(used);
  }
  IntVar count = NewInt(vars.empty() ? 0 : 1,
                        static_cast<int64_t>(
                            std::min(values.size(), vars.size())));
  if (vars.empty()) count = NewInt(0, 0);
  PostRel(sum, Rel::kEq, LinExpr(count));
  return count;
}

void Model::Minimize(const LinExpr& e) {
  sense_ = Sense::kMinimize;
  objective_ = VarOf(e);
}

void Model::Maximize(const LinExpr& e) {
  sense_ = Sense::kMaximize;
  objective_ = VarOf(e);
}

size_t Model::MemoryEstimate() const {
  size_t bytes = 0;
  for (const IntDomain& d : domains_) {
    bytes += sizeof(IntDomain) + d.ranges().size() * sizeof(IntDomain::Range);
  }
  bytes += num_props_ * 96;  // rough per-propagator footprint
  return bytes;
}

Solution Model::Solve(const Options& options) const {
  TemplateCache one_shot;
  return Solve(one_shot.Bind(*this), options);
}

}  // namespace cologne::solver
