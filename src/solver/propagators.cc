// Concrete propagator implementations.
//
// Each propagator declares, per watched variable, the event mask that can
// actually affect it (a bounds propagator never cares about interior holes;
// a disequality only cares about variables becoming fixed), and the linear
// family additionally keeps exact running sum-min/sum-max aggregates in
// trailed store aux slots, maintained by O(1) Advise deltas. The aggregates
// make the failure/entailment check O(1) per wake and replace the
// full-recompute first pass of the prune; the prune pass itself is
// term-for-term identical to the legacy code, so fixpoints — and search
// trees — are unchanged in either scheduling mode.
#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "solver/propagator.h"

namespace cologne::solver {
namespace {

int64_t Clamp128(__int128 x) {
  if (x > kDomainLimit) return kDomainLimit;
  if (x < -kDomainLimit) return -kDomainLimit;
  return static_cast<int64_t>(x);
}

// Exact [sum-min, sum-max] of `e` over the store's current domains, written
// into aux slots [base, base+1].
void InitLinearAux(const LinExpr& e, DomainStore& store, int base) {
  __int128 lo = e.constant, hi = e.constant;
  for (const auto& [c, v] : e.terms) {
    if (c >= 0) {
      lo += static_cast<__int128>(c) * store.lo(v.id);
      hi += static_cast<__int128>(c) * store.hi(v.id);
    } else {
      lo += static_cast<__int128>(c) * store.hi(v.id);
      hi += static_cast<__int128>(c) * store.lo(v.id);
    }
  }
  store.SetAux(base, lo);
  store.SetAux(base + 1, hi);
}

// Wake mask for one term of `e rel 0`: which bound movements can tighten the
// relation's pruning or fail it. kLe/kLt only act when sum-min rises — via
// the min of a positive-coefficient term or the max of a negative one;
// kGe/kGt mirror; kEq needs both directions; kNe only reads fixed statuses.
uint8_t LinearTermMask(Rel rel, int64_t c) {
  switch (rel) {
    case Rel::kLe:
    case Rel::kLt:
      return c >= 0 ? kEventMin : kEventMax;
    case Rel::kGe:
    case Rel::kGt:
      return c >= 0 ? kEventMax : kEventMin;
    case Rel::kEq:
      return kEventMin | kEventMax;
    case Rel::kNe:
      return kEventFix;
  }
  return kEventAny;
}

// Rewrite the constants of `e` from `*consts` in Model's recording order:
// the constant term, then every coefficient in term order.
void RebindExpr(LinExpr* e, const int64_t** consts) {
  e->constant = *(*consts)++;
  for (auto& term : e->terms) term.first = *(*consts)++;
}

// ---------------------------------------------------------------------------
// e rel 0
// ---------------------------------------------------------------------------
class LinearProp : public Propagator {
 public:
  LinearProp(LinExpr e, Rel rel) : e_(std::move(e)), rel_(rel) {
    e_.Canonicalize();
    for (const auto& [c, v] : e_.terms) Watch(v, LinearTermMask(rel_, c));
  }

  bool Propagate(PropCtx& ctx) override {
    if (!ctx.incremental()) return PruneLinear(ctx, e_, rel_);
    const ExprBounds b = ClampExprBounds(ctx.AuxVal(0), ctx.AuxVal(1));
    const Entail ent = EntailedRel(b, rel_);
    if (ent == Entail::kYes) {
      // Domains only shrink below this node, so the relation stays entailed
      // for the whole subtree: unplug until backtrack.
      ctx.SetEntailed();
      return true;
    }
    if (ent == Entail::kNo) return false;
    return PruneLinearIncremental(ctx, e_, rel_);
  }

  void AppendDebugString(std::string* out) const override {
    e_.AppendTo(out);
    *out += ' ';
    *out += RelName(rel_);
    *out += " 0";
  }

  PropKind kind() const override { return PropKind::kLinear; }

  // A canonical expression watches each variable once, so watch k is term k.
  void RebindConstants(const int64_t** consts) override {
    RebindExpr(&e_, consts);
    for (size_t k = 0; k < e_.terms.size(); ++k) {
      SetWatchMask(k, LinearTermMask(rel_, e_.terms[k].first));
    }
  }

  // One-sided sums prune opposite bounds only (a <= prunes maxes off the
  // sum-of-mins, which those prunes leave untouched), and != removes at most
  // one value once everything else is fixed — a successful run is at its own
  // fixpoint. == is the exception: its min pass shifts the sum its max pass
  // read, so the engine re-runs it to closure.
  bool IdempotentAfterRun() const override { return rel_ != Rel::kEq; }

  // Slot 2 = width certificate: a wake whose slack covers every term width
  // provably cannot prune (or fail) — the advisor subsumes it. The engine
  // evaluates the proof inline from this descriptor.
  FixpointProof fixpoint_proof() const override {
    if (rel_ == Rel::kNe) return {};  // no aux slots, no certificate
    return {FixpointProof::Kind::kLinear, rel_, -1};
  }

  int NumAuxSlots() const override { return rel_ == Rel::kNe ? 0 : 3; }
  void InitAux(DomainStore& store, int aux_base) const override {
    InitLinearAux(e_, store, aux_base);
    store.SetAux(aux_base + 2, MaxTermWidth(e_, store));
  }
  int64_t AdviseCoefficient(uint32_t watch_pos) const override {
    return e_.terms[watch_pos].first;
  }

 private:
  LinExpr e_;
  Rel rel_;
};

// ---------------------------------------------------------------------------
// b <=> (e rel 0)
// ---------------------------------------------------------------------------
class ReifiedLinearProp : public Propagator {
 public:
  ReifiedLinearProp(IntVar b, LinExpr e, Rel rel)
      : b_(b), e_(std::move(e)), rel_(rel) {
    e_.Canonicalize();
    // b is 0/1: any change fixes it. The expression needs both bound
    // directions — either can decide entailment and flip b.
    Watch(b_, kEventFix);
    WatchExpr(e_, kEventMin | kEventMax);
  }

  bool Propagate(PropCtx& ctx) override {
    if (!ctx.incremental()) return PropagateRecompute(ctx);
    const ExprBounds bd = ClampExprBounds(ctx.AuxVal(0), ctx.AuxVal(1));
    // Three-valued status of the *positive* relation; entailment of the
    // negated relation is its dual (bounds-based: rel is No exactly when
    // Negate(rel) is Yes).
    const Entail ent = EntailedRel(bd, rel_);
    if (ctx.IsFixed(b_)) {
      if (ctx.ValueOf(b_) != 0) {
        if (ent == Entail::kYes) {
          // b already says "holds" and the relation is entailed: nothing can
          // ever change below this node — stop re-pruning a satisfied
          // relation on every wake.
          ctx.SetEntailed();
          return true;
        }
        if (ent == Entail::kNo) return false;
        return PruneLinearIncremental(ctx, e_, rel_);
      }
      if (ent == Entail::kNo) {  // negated relation entailed
        ctx.SetEntailed();
        return true;
      }
      if (ent == Entail::kYes) return false;
      return PruneLinearIncremental(ctx, e_, Negate(rel_));
    }
    if (ent == Entail::kYes) {
      if (!ctx.Assign(b_, 1)) return false;
      ctx.SetEntailed();
      return true;
    }
    if (ent == Entail::kNo) {
      if (!ctx.Assign(b_, 0)) return false;
      ctx.SetEntailed();
      return true;
    }
    return true;
  }

  void AppendDebugString(std::string* out) const override {
    *out += 'x';
    AppendInt(out, b_.id);
    *out += " <=> (";
    e_.AppendTo(out);
    *out += ' ';
    *out += RelName(rel_);
    *out += " 0)";
  }

  PropKind kind() const override { return PropKind::kReified; }

  void RebindConstants(const int64_t** consts) override {
    RebindExpr(&e_, consts);
  }

  // Idempotent unless one of the two enforceable relations (rel when b=1,
  // its negation when b=0) is the two-pass ==; kEq/kNe each have == on one
  // side of the negation.
  bool IdempotentAfterRun() const override {
    return rel_ != Rel::kEq && rel_ != Rel::kNe;
  }

  // While b is open the run only acts when the bounds decide the relation:
  // an undecided (kMaybe) wake is a provable no-op. Once b is fixed the
  // effective pass is plain linear pruning, certified by the width slot.
  // The engine evaluates both cases inline from this descriptor.
  FixpointProof fixpoint_proof() const override {
    return {FixpointProof::Kind::kReified, rel_, b_.id};
  }

  int NumAuxSlots() const override { return 3; }
  void InitAux(DomainStore& store, int aux_base) const override {
    InitLinearAux(e_, store, aux_base);
    store.SetAux(aux_base + 2, MaxTermWidth(e_, store));
  }
  int64_t AdviseCoefficient(uint32_t watch_pos) const override {
    // Watch 0 is b: the control variable carries no aggregate contribution.
    return watch_pos == 0 ? 0 : e_.terms[watch_pos - 1].first;
  }

 private:
  // Legacy full-recompute body (naive reference mode / no aux).
  bool PropagateRecompute(PropCtx& ctx) {
    if (ctx.IsFixed(b_)) {
      Rel eff = ctx.ValueOf(b_) != 0 ? rel_ : Negate(rel_);
      return PruneLinear(ctx, e_, eff);
    }
    Entail ent = EntailedRel(BoundsOf(ctx, e_), rel_);
    if (ent == Entail::kYes) return ctx.Assign(b_, 1);
    if (ent == Entail::kNo) return ctx.Assign(b_, 0);
    return true;
  }

  IntVar b_;
  LinExpr e_;
  Rel rel_;
};

// ---------------------------------------------------------------------------
// z == x * y  (bounds consistency; exact when x == y, i.e. squares)
// ---------------------------------------------------------------------------
class TimesProp : public Propagator {
 public:
  TimesProp(IntVar z, IntVar x, IntVar y) : z_(z), x_(x), y_(y) {
    // Pure bounds propagator: interior holes can't affect it.
    Watch(z_, kEventMin | kEventMax);
    Watch(x_, kEventMin | kEventMax);
    if (!(y_ == x_)) Watch(y_, kEventMin | kEventMax);
  }

  bool Propagate(PropCtx& ctx) override {
    if (x_ == y_) return PropagateSquare(ctx);
    // Forward: z bounds from corner products.
    int64_t xl = ctx.Min(x_), xh = ctx.Max(x_);
    int64_t yl = ctx.Min(y_), yh = ctx.Max(y_);
    __int128 c1 = static_cast<__int128>(xl) * yl;
    __int128 c2 = static_cast<__int128>(xl) * yh;
    __int128 c3 = static_cast<__int128>(xh) * yl;
    __int128 c4 = static_cast<__int128>(xh) * yh;
    __int128 zl = std::min(std::min(c1, c2), std::min(c3, c4));
    __int128 zh = std::max(std::max(c1, c2), std::max(c3, c4));
    if (!ctx.ClampMin(z_, Clamp128(zl))) return false;
    if (!ctx.ClampMax(z_, Clamp128(zh))) return false;
    // Backward: only when the divisor domain does not straddle zero.
    if (!PruneFactor(ctx, x_, y_)) return false;
    if (!PruneFactor(ctx, y_, x_)) return false;
    return true;
  }

  void AppendDebugString(std::string* out) const override {
    *out += 'x';
    AppendInt(out, z_.id);
    *out += " == x";
    AppendInt(out, x_.id);
    *out += " * x";
    AppendInt(out, y_.id);
  }

  PropKind kind() const override { return PropKind::kTimes; }

 private:
  // Prune `target` given z and the other factor `other`.
  bool PruneFactor(PropCtx& ctx, IntVar target, IntVar other) {
    int64_t ol = ctx.Min(other), oh = ctx.Max(other);
    if (ol <= 0 && oh >= 0) return true;  // divisor straddles 0: no pruning
    int64_t zl = ctx.Min(z_), zh = ctx.Max(z_);
    // target in [min, max] of z/other over corner quotients.
    double q1 = static_cast<double>(zl) / static_cast<double>(ol);
    double q2 = static_cast<double>(zl) / static_cast<double>(oh);
    double q3 = static_cast<double>(zh) / static_cast<double>(ol);
    double q4 = static_cast<double>(zh) / static_cast<double>(oh);
    double lo = std::floor(std::min(std::min(q1, q2), std::min(q3, q4)));
    double hi = std::ceil(std::max(std::max(q1, q2), std::max(q3, q4)));
    if (!ctx.ClampMin(target, static_cast<int64_t>(lo))) return false;
    if (!ctx.ClampMax(target, static_cast<int64_t>(hi))) return false;
    return true;
  }

  bool PropagateSquare(PropCtx& ctx) {
    int64_t xl = ctx.Min(x_), xh = ctx.Max(x_);
    // z >= 0 and z <= max square.
    __int128 sqmax =
        std::max(static_cast<__int128>(xl) * xl, static_cast<__int128>(xh) * xh);
    __int128 sqmin = 0;
    if (xl > 0) sqmin = static_cast<__int128>(xl) * xl;
    if (xh < 0) sqmin = static_cast<__int128>(xh) * xh;
    if (!ctx.ClampMin(z_, Clamp128(sqmin))) return false;
    if (!ctx.ClampMax(z_, Clamp128(sqmax))) return false;
    // |x| <= floor(sqrt(z_max)).
    int64_t zmax = ctx.Max(z_);
    int64_t root = static_cast<int64_t>(
        std::floor(std::sqrt(static_cast<double>(std::max<int64_t>(zmax, 0)))));
    while (static_cast<__int128>(root) * root > zmax) --root;
    while (static_cast<__int128>(root + 1) * (root + 1) <= zmax) ++root;
    if (!ctx.ClampMin(x_, -root)) return false;
    if (!ctx.ClampMax(x_, root)) return false;
    return true;
  }

  IntVar z_, x_, y_;
};

// ---------------------------------------------------------------------------
// z == |x|
// ---------------------------------------------------------------------------
class AbsProp : public Propagator {
 public:
  AbsProp(IntVar z, IntVar x) : z_(z), x_(x) {
    Watch(z_, kEventMin | kEventMax);
    Watch(x_, kEventMin | kEventMax);
  }

  bool Propagate(PropCtx& ctx) override {
    int64_t xl = ctx.Min(x_), xh = ctx.Max(x_);
    int64_t zmin = 0;
    if (xl > 0) zmin = xl;
    if (xh < 0) zmin = -xh;
    int64_t zmax = std::max(std::abs(xl), std::abs(xh));
    if (!ctx.ClampMin(z_, zmin)) return false;
    if (!ctx.ClampMax(z_, zmax)) return false;
    // x in [-z_max, z_max]; sharpen when the sign of x is known.
    int64_t zM = ctx.Max(z_), zm = ctx.Min(z_);
    if (!ctx.ClampMin(x_, -zM)) return false;
    if (!ctx.ClampMax(x_, zM)) return false;
    if (ctx.Min(x_) >= 0 && !ctx.ClampMin(x_, zm)) return false;
    if (ctx.Max(x_) <= 0 && !ctx.ClampMax(x_, -zm)) return false;
    return true;
  }

  void AppendDebugString(std::string* out) const override {
    *out += 'x';
    AppendInt(out, z_.id);
    *out += " == |x";
    AppendInt(out, x_.id);
    *out += '|';
  }

  PropKind kind() const override { return PropKind::kAbs; }

 private:
  IntVar z_, x_;
};

// ---------------------------------------------------------------------------
// b <=> OR(b1..bn) over 0/1 variables
// ---------------------------------------------------------------------------
class OrProp : public Propagator {
 public:
  OrProp(IntVar b, std::vector<IntVar> bs) : b_(b), bs_(std::move(bs)) {
    // 0/1 variables: every change is a fixing; the propagator only reads
    // fixed statuses.
    Watch(b_, kEventFix);
    for (IntVar v : bs_) Watch(v, kEventFix);
  }

  bool Propagate(PropCtx& ctx) override {
    int n_true = 0, n_false = 0;
    IntVar last_unfixed;
    for (IntVar v : bs_) {
      if (ctx.IsFixed(v)) {
        if (ctx.ValueOf(v) != 0) {
          ++n_true;
        } else {
          ++n_false;
        }
      } else {
        last_unfixed = v;
      }
    }
    size_t n = bs_.size();
    if (n_true > 0) {
      if (!ctx.Assign(b_, 1)) return false;
    } else if (static_cast<size_t>(n_false) == n) {
      if (!ctx.Assign(b_, 0)) return false;
    }
    if (ctx.IsFixed(b_)) {
      if (ctx.ValueOf(b_) == 0) {
        for (IntVar v : bs_) {
          if (!ctx.Assign(v, 0)) return false;
        }
      } else if (n_true == 0 && static_cast<size_t>(n_false) == n - 1 &&
                 last_unfixed.valid()) {
        // b is true and only one disjunct can still be true.
        if (!ctx.Assign(last_unfixed, 1)) return false;
      }
    }
    return true;
  }

  void AppendDebugString(std::string* out) const override {
    *out += 'x';
    AppendInt(out, b_.id);
    *out += " <=> OR(";
    AppendInt(out, static_cast<int64_t>(bs_.size()));
    *out += " vars)";
  }

  PropKind kind() const override { return PropKind::kOr; }

 private:
  IntVar b_;
  std::vector<IntVar> bs_;
};

// ---------------------------------------------------------------------------
// z == max(x, c)
// ---------------------------------------------------------------------------
class MaxConstProp : public Propagator {
 public:
  MaxConstProp(IntVar z, IntVar x, int64_t c) : z_(z), x_(x), c_(c) {
    Watch(z_, kEventMin | kEventMax);
    Watch(x_, kEventMin | kEventMax);
  }

  bool Propagate(PropCtx& ctx) override {
    // z bounds.
    if (!ctx.ClampMin(z_, std::max(ctx.Min(x_), c_))) return false;
    if (!ctx.ClampMax(z_, std::max(ctx.Max(x_), c_))) return false;
    // x bounds: x <= z_max; if z_min > c then x == z (so x >= z_min).
    if (!ctx.ClampMax(x_, ctx.Max(z_))) return false;
    if (ctx.Min(z_) > c_ && !ctx.ClampMin(x_, ctx.Min(z_))) return false;
    return true;
  }

  void AppendDebugString(std::string* out) const override {
    *out += 'x';
    AppendInt(out, z_.id);
    *out += " == max(x";
    AppendInt(out, x_.id);
    *out += ", ";
    AppendInt(out, c_);
    *out += ')';
  }

  PropKind kind() const override { return PropKind::kMaxConst; }

  void RebindConstants(const int64_t** consts) override {
    c_ = *(*consts)++;
  }

 private:
  IntVar z_, x_;
  int64_t c_;
};

}  // namespace

std::unique_ptr<Propagator> MakeLinear(LinExpr e, Rel rel) {
  return std::make_unique<LinearProp>(std::move(e), rel);
}
std::unique_ptr<Propagator> MakeReifiedLinear(IntVar b, LinExpr e, Rel rel) {
  return std::make_unique<ReifiedLinearProp>(b, std::move(e), rel);
}
std::unique_ptr<Propagator> MakeTimes(IntVar z, IntVar x, IntVar y) {
  return std::make_unique<TimesProp>(z, x, y);
}
std::unique_ptr<Propagator> MakeAbs(IntVar z, IntVar x) {
  return std::make_unique<AbsProp>(z, x);
}
std::unique_ptr<Propagator> MakeOr(IntVar b, std::vector<IntVar> bs) {
  return std::make_unique<OrProp>(b, std::move(bs));
}
std::unique_ptr<Propagator> MakeMaxConst(IntVar z, IntVar x, int64_t c) {
  return std::make_unique<MaxConstProp>(z, x, c);
}

}  // namespace cologne::solver
