#include "runtime/solver_bridge.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "datalog/aggregates.h"
#include "solver/context_cache.h"

namespace cologne::runtime {

namespace {

using colog::CompiledProgram;
using colog::GoalType;
using colog::SolverRuleIR;
using colog::VarDeclIR;
using datalog::AggKind;
using datalog::AtomIR;
using datalog::Expr;
using datalog::ExprOp;
using datalog::RuleIR;
using datalog::TermIR;
using solver::IntVar;
using solver::LinExpr;
using solver::Model;
using solver::Rel;

Rel RelOfOp(ExprOp op) {
  switch (op) {
    case ExprOp::kEq: return Rel::kEq;
    case ExprOp::kNe: return Rel::kNe;
    case ExprOp::kLt: return Rel::kLt;
    case ExprOp::kLe: return Rel::kLe;
    case ExprOp::kGt: return Rel::kGt;
    case ExprOp::kGe: return Rel::kGe;
    default: return Rel::kEq;
  }
}

// One hard constraint posted on behalf of a Colog rule, kept for provenance:
// re-evaluating lhs/rhs under the incumbent tells whether the constraint was
// binding (zero slack) there. Structural constraints the bridge posts for
// aggregate encodings (MIN/MAX exactness ORs) are deliberately not recorded —
// they carry no user-facing rule identity.
struct PostedConstraint {
  std::string label;  // originating rule label
  LinExpr lhs;
  Rel rel;
  LinExpr rhs;
};

// A value during solver-rule evaluation: concrete or an affine expression
// over model variables.
struct SVal {
  bool symbolic = false;
  Value concrete;  // valid when !symbolic
  LinExpr expr;    // valid when symbolic

  static SVal Concrete(Value v) {
    SVal s;
    s.concrete = std::move(v);
    return s;
  }
  static SVal Sym(LinExpr e) {
    SVal s;
    s.symbolic = true;
    s.expr = std::move(e);
    return s;
  }
  // Concrete int -> LinExpr constant; symbolic -> its expression.
  Result<LinExpr> AsExpr() const {
    if (symbolic) return expr;
    if (!concrete.is_int()) {
      return Status::SolverError(
          "expected integer in symbolic context, got " + concrete.ToString());
    }
    return LinExpr(concrete.as_int());
  }
};

// Evaluate a LinExpr under a solution.
int64_t EvalLin(const LinExpr& e, const solver::Solution& sol) {
  int64_t v = e.constant;
  for (const auto& [c, var] : e.terms) v += c * sol.ValueOf(var);
  return v;
}

// Evaluation context for one Solve(): each solver rule is evaluated once,
// bottom-up, into the constraint network. Solver attributes are affine
// expressions registered in `sym_exprs_` and referenced from rows via
// Value::Sym(index); after the search, Substitute() replaces every symbolic
// cell with its value under the incumbent, which turns the bridge-local
// tables into the solve's concrete output.
//
// Joins read each table in one fixed scan order: the bridge-local rows in
// derivation order, or the engine table's sorted snapshot (taken once per
// solve). Bound columns are probed through hash indexes built lazily from
// that order, so a probe yields exactly the rows a nested-loop scan would
// accept, in the same order; variable ids and propagator order therefore
// do not depend on the index.
class BridgeEval {
 public:
  BridgeEval(const CompiledProgram* program, const datalog::Engine* engine,
             Model* model)
      : program_(program), engine_(engine), model_(model) {}

  std::map<std::string, std::vector<Row>>& tables() { return tables_; }

  /// One instantiated var-table row: its regular-column key plus the solver
  /// variables created for its solver cells, in column order. This is the
  /// identity the warm-start cache is keyed by.
  struct VarRow {
    const std::string* table;
    Row key;
    std::vector<IntVar> vars;
  };
  const std::vector<VarRow>& var_rows() const { return var_rows_; }

  // ---- Variable instantiation -----------------------------------------------
  Status InstantiateVars() {
    for (const VarDeclIR& decl : program_->var_decls) {
      const datalog::Table* forall = engine_->GetTable(decl.forall_table);
      if (forall == nullptr) {
        return Status::SolverError("forall table missing: " +
                                   decl.forall_table);
      }
      std::set<Row> seen;  // dedupe identical regular projections
      auto& out = tables_[decl.var_table];
      for (const Row& frow : forall->Rows()) {
        Row key;
        for (int src : decl.from_forall_col) {
          if (src >= 0) key.push_back(frow[static_cast<size_t>(src)]);
        }
        if (!seen.insert(key).second) continue;
        Row row;
        row.reserve(decl.from_forall_col.size());
        VarRow vrow;
        vrow.table = &decl.var_table;
        vrow.key = key;
        for (int src : decl.from_forall_col) {
          if (src >= 0) {
            row.push_back(frow[static_cast<size_t>(src)]);
          } else {
            IntVar v = model_->NewInt(decl.dom_lo, decl.dom_hi);
            model_->MarkDecision(v);
            vrow.vars.push_back(v);
            row.push_back(Value::Sym(Register(LinExpr(v))));
          }
        }
        var_rows_.push_back(std::move(vrow));
        out.push_back(std::move(row));
      }
    }
    return Status::OK();
  }

  // ---- Rule evaluation ------------------------------------------------------
  Status EvalRule(const SolverRuleIR& srule) {
    const RuleIR& rule = srule.ir;
    cur_rule_ = &rule;
    cur_constraint_ = srule.is_constraint;
    agg_groups_.clear();
    PrepareRule(rule);

    std::vector<Value> slots(static_cast<size_t>(rule.num_slots));
    std::vector<char> guards_done(rule.sels.size() + rule.assigns.size(), 0);

    if (srule.is_constraint) {
      // Head is a pattern over an existing table: every row must satisfy the
      // body.
      for (const Row& hrow : RowsOf(rule.head.table)) {
        std::vector<Value> s = slots;
        std::vector<char> g = guards_done;
        COLOGNE_ASSIGN_OR_RETURN(ok, MatchAtom(rule.head, hrow, s));
        if (!ok) continue;
        COLOGNE_RETURN_IF_ERROR(JoinBody(rule, 0, s, g, nullptr));
      }
      return Status::OK();
    }

    // Derivation rule: full join over the body, emitting head rows.
    std::vector<Row> emitted;
    COLOGNE_RETURN_IF_ERROR(JoinBody(rule, 0, slots, guards_done, &emitted));
    auto& out = tables_[rule.head.table];
    // The head's scan order changes (or it now shadows an engine table):
    // indexes over the old rows are stale.
    indexes_.erase(rule.head.table);

    if (rule.agg) {
      // `emitted` holds group rows; aggregate per group.
      int agg_pos = rule.agg->arg_index;
      for (auto& [group, vals] : agg_groups_) {
        COLOGNE_ASSIGN_OR_RETURN(agg_val, Aggregate(rule.agg->kind, vals));
        Row row;
        size_t g = 0;
        for (size_t i = 0; i <= group.size(); ++i) {
          if (static_cast<int>(i) == agg_pos) {
            row.push_back(agg_val);
          } else {
            row.push_back(group[g++]);
          }
        }
        out.push_back(std::move(row));
      }
    } else {
      for (Row& r : emitted) out.push_back(std::move(r));
    }
    return Status::OK();
  }

  // ---- Goal -----------------------------------------------------------------
  // Returns a concrete 0 when the goal table is empty (no cost terms apply:
  // e.g. the first wireless link negotiation before any neighbor has chosen
  // a channel) — the solve then degrades to pure satisfaction.
  Result<SVal> GoalValue() {
    const auto& goal = program_->goal;
    const std::vector<Row>& rows = RowsOf(goal.table);
    if (rows.empty()) {
      return SVal::Concrete(Value::Int(0));
    }
    if (rows.size() > 1) {
      return Status::SolverError(
          StrFormat("goal table %s has %zu rows; expected a single row",
                    goal.table.c_str(), rows.size()));
    }
    return ToSVal(rows[0][static_cast<size_t>(goal.col)]);
  }

  /// Replace every symbolic cell of the bridge-local tables with its value
  /// under `sol`. Every encoding is value-exact (the sum of abs variables is
  /// the SUMABS, MIN/MAX are pinned by their exactness OR, reified
  /// comparisons are 0/1, ...) except STDEV, whose model cell is the integer
  /// surrogate: it is recomputed from its substituted inputs.
  void Substitute(const solver::Solution& sol) {
    for (auto& [name, rows] : tables_) {
      for (Row& row : rows) {
        for (Value& cell : row) {
          if (cell.is_sym()) cell = SymValue(cell.sym_index(), sol);
        }
      }
    }
  }

  /// Mirror every rule-originated PostRel into `out` (provenance recording).
  void RecordConstraintsTo(std::vector<PostedConstraint>* out) {
    record_ = out;
  }

 private:
  // A hash index over one table's scan order, keyed by the values of a
  // column set: projected key -> row positions, ascending.
  struct JoinIndex {
    struct RowHasher {
      size_t operator()(const Row& r) const {
        return static_cast<size_t>(HashRow(r));
      }
    };
    // False when an indexed cell is symbolic (unification may post an
    // equality or reject the join) or a double: such a column set is always
    // scanned. Hash and == agree on doubles (both zeros hash alike); they
    // stay unindexed only because a NaN key never equals itself.
    bool usable = true;
    std::unordered_map<Row, std::vector<uint32_t>, RowHasher> buckets;
  };

  // Per-depth working state of the rule being evaluated, reused across
  // rows: the binding copies handed to the next depth and the probe's
  // column set and key.
  struct Frame {
    std::vector<Value> slots;
    std::vector<char> done;
    std::vector<int> cols;
    Row key;
  };

  // Slot dependencies of a guard, computed once per rule: the whole
  // expression and, for an equality, each side (the binding forms test
  // readiness of one side).
  struct GuardDeps {
    std::vector<int> all;
    std::vector<int> lhs;
    std::vector<int> rhs;
  };

  // How a guard's slots are bound right now.
  enum class Binding { kUnbound, kConcrete, kSymbolic };

  static std::vector<int> SlotsOf(const Expr& e) {
    std::vector<int> deps;
    e.CollectSlots(&deps);
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    return deps;
  }

  static Binding BindingOf(const std::vector<int>& deps,
                           const std::vector<Value>& slots) {
    Binding b = Binding::kConcrete;
    for (int d : deps) {
      const Value& v = slots[static_cast<size_t>(d)];
      if (v.is_null()) return Binding::kUnbound;
      if (v.is_sym()) b = Binding::kSymbolic;
    }
    return b;
  }

  void PrepareRule(const RuleIR& rule) {
    sel_deps_.clear();
    for (const datalog::SelIR& sel : rule.sels) {
      GuardDeps d;
      d.all = SlotsOf(sel.expr);
      if (sel.expr.op == ExprOp::kEq) {
        d.lhs = SlotsOf(sel.expr.kids[0]);
        d.rhs = SlotsOf(sel.expr.kids[1]);
      }
      sel_deps_.push_back(std::move(d));
    }
    assign_deps_.clear();
    for (const datalog::AssignIR& as : rule.assigns) {
      assign_deps_.push_back(SlotsOf(as.expr));
    }
    frames_.assign(rule.body.size(), Frame{});
  }

  // Rows of a table in scan order: the bridge-local solver table first, the
  // engine table's sorted snapshot otherwise.
  const std::vector<Row>& RowsOf(const std::string& name) {
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second;
    auto [snap, fresh] = snapshots_.try_emplace(name);
    if (fresh) {
      const datalog::Table* t = engine_->GetTable(name);
      if (t != nullptr) snap->second = t->Rows();
    }
    return snap->second;
  }

  int32_t Register(LinExpr e) {
    sym_exprs_.push_back(std::move(e));
    return static_cast<int32_t>(sym_exprs_.size() - 1);
  }

  Value SymValue(int32_t idx, const solver::Solution& sol) const {
    auto it = stdev_inputs_.find(idx);
    if (it == stdev_inputs_.end()) {
      return Value::Int(EvalLin(sym_exprs_[static_cast<size_t>(idx)], sol));
    }
    std::vector<Value> xs;
    xs.reserve(it->second.size());
    for (const LinExpr& e : it->second) {
      xs.push_back(Value::Int(EvalLin(e, sol)));
    }
    return datalog::ComputeAggregate(AggKind::kStdev, xs);
  }

  SVal ToSVal(const Value& v) const {
    if (v.is_sym()) return SVal::Sym(sym_exprs_[static_cast<size_t>(v.sym_index())]);
    return SVal::Concrete(v);
  }

  Value FromSVal(const SVal& s) {
    if (!s.symbolic) return s.concrete;
    return Value::Sym(Register(s.expr));
  }

  void RecordPost(const LinExpr& lhs, Rel rel, const LinExpr& rhs) {
    if (record_ == nullptr || cur_rule_ == nullptr) return;
    record_->push_back({cur_rule_->label, lhs, rel, rhs});
  }

  // ---- Atom matching --------------------------------------------------------
  // Returns false (no error) when the row does not match. Symbolic cells
  // unify: in constraint rules a clash posts an equality constraint; in
  // derivation rules it is an error (joins on solver attributes are
  // disallowed, Section 5.3).
  Result<bool> MatchAtom(const AtomIR& atom, const Row& row,
                         std::vector<Value>& slots) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const TermIR& term = atom.args[i];
      const Value& v = row[i];
      const Value* test = nullptr;
      if (term.is_const) {
        test = &term.const_val;
      } else {
        Value& s = slots[static_cast<size_t>(term.slot)];
        if (s.is_null()) {
          s = v;
          continue;
        }
        test = &s;
      }
      if (*test == v) continue;
      if (test->is_sym() || v.is_sym()) {
        if (!cur_constraint_) {
          return Status::SolverError(
              "rule " + cur_rule_->label +
              ": join on a solver attribute is not supported");
        }
        COLOGNE_ASSIGN_OR_RETURN(ea, ToSVal(*test).AsExpr());
        COLOGNE_ASSIGN_OR_RETURN(eb, ToSVal(v).AsExpr());
        model_->PostRel(ea, Rel::kEq, eb);
        RecordPost(ea, Rel::kEq, eb);
        continue;
      }
      return false;
    }
    return true;
  }

  // ---- Body join ------------------------------------------------------------
  Status JoinBody(const RuleIR& rule, size_t depth, std::vector<Value>& slots,
                  std::vector<char>& guards_done, std::vector<Row>* emitted) {
    COLOGNE_ASSIGN_OR_RETURN(alive, RunGuards(rule, slots, guards_done));
    if (!alive) return Status::OK();
    if (depth == rule.body.size()) {
      return Emit(rule, slots, emitted);
    }
    const AtomIR& atom = rule.body[depth];
    const std::vector<Row>& rows = RowsOf(atom.table);
    Frame& f = frames_[depth];
    auto visit = [&](const Row& row) -> Status {
      f.slots = slots;
      f.done = guards_done;
      COLOGNE_ASSIGN_OR_RETURN(ok, MatchAtom(atom, row, f.slots));
      if (!ok) return Status::OK();
      return JoinBody(rule, depth + 1, f.slots, f.done, emitted);
    };
    if (const std::vector<uint32_t>* hits = Probe(atom, slots, rows, f)) {
      for (uint32_t pos : *hits) COLOGNE_RETURN_IF_ERROR(visit(rows[pos]));
    } else {
      for (const Row& row : rows) COLOGNE_RETURN_IF_ERROR(visit(row));
    }
    return Status::OK();
  }

  // Positions of the rows of `rows` whose bound columns (constants and
  // already-bound slots of `atom`) equal the current bindings, in scan
  // order; nullptr means "scan every row" (nothing bound, or a symbolic or
  // double cell on either side, where MatchAtom's unification rules apply).
  // MatchAtom still runs on every candidate, so repeated slots inside the
  // atom are checked there.
  const std::vector<uint32_t>* Probe(const AtomIR& atom,
                                     const std::vector<Value>& slots,
                                     const std::vector<Row>& rows, Frame& f) {
    f.cols.clear();
    f.key.clear();
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const TermIR& term = atom.args[i];
      const Value& v = term.is_const ? term.const_val
                                     : slots[static_cast<size_t>(term.slot)];
      if (v.is_null()) continue;
      if (v.is_sym() || v.is_double()) return nullptr;
      f.cols.push_back(static_cast<int>(i));
      f.key.push_back(v);
    }
    if (f.cols.empty()) return nullptr;
    const JoinIndex& index = IndexFor(atom.table, f.cols, rows);
    if (!index.usable) return nullptr;
    auto it = index.buckets.find(f.key);
    return it == index.buckets.end() ? &kNoRows : &it->second;
  }

  const JoinIndex& IndexFor(const std::string& table,
                            const std::vector<int>& cols,
                            const std::vector<Row>& rows) {
    auto [it, fresh] = indexes_[table].try_emplace(cols);
    JoinIndex& index = it->second;
    if (!fresh) return index;
    Row proj;
    for (size_t pos = 0; pos < rows.size(); ++pos) {
      proj.clear();
      for (int c : cols) {
        const Value& v = rows[pos][static_cast<size_t>(c)];
        if (v.is_sym() || v.is_double()) {
          index.usable = false;
          index.buckets.clear();
          return index;
        }
        proj.push_back(v);
      }
      index.buckets[proj].push_back(static_cast<uint32_t>(pos));
    }
    return index;
  }

  // Run ready guards; Result<false> = a selection filtered this branch out.
  Result<bool> RunGuards(const RuleIR& rule, std::vector<Value>& slots,
                         std::vector<char>& done) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t i = 0; i < rule.sels.size(); ++i) {
        if (done[i]) continue;
        COLOGNE_ASSIGN_OR_RETURN(
            state, TrySelection(rule.sels[i].expr, sel_deps_[i], slots));
        if (state == GuardState::kNotReady) continue;
        if (state == GuardState::kFailed) return false;
        done[i] = 1;
        progress = true;
      }
      for (size_t i = 0; i < rule.assigns.size(); ++i) {
        size_t gi = rule.sels.size() + i;
        if (done[gi]) continue;
        const auto& as = rule.assigns[i];
        Binding b = BindingOf(assign_deps_[i], slots);
        if (b == Binding::kUnbound) continue;
        COLOGNE_ASSIGN_OR_RETURN(v, EvalBound(as.expr, b, slots));
        Value& target = slots[static_cast<size_t>(as.slot)];
        Value newv = FromSVal(v);
        if (target.is_null()) {
          target = newv;
        } else if (!(target == newv)) {
          return false;
        }
        done[gi] = 1;
        progress = true;
      }
    }
    return true;
  }

  enum class GuardState { kNotReady, kPassed, kFailed };

  // Evaluate an expression whose slots are all bound: straight through the
  // concrete evaluator when none is symbolic.
  Result<SVal> EvalBound(const Expr& e, Binding b,
                         const std::vector<Value>& slots) {
    if (b == Binding::kConcrete) {
      COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalExpr(e, slots));
      return SVal::Concrete(std::move(v));
    }
    return Eval(e, slots);
  }

  // Selection handling with the binding forms of Section 5.3:
  //   X == expr                (X unbound)    bind X to the expression
  //   (X == k) == boolexpr     (X unbound)    bind X := k * [boolexpr]
  //   boolexpr == (X == k)     symmetric
  // plus plain filtering / hard-constraint posting.
  Result<GuardState> TrySelection(const Expr& e, const GuardDeps& deps,
                                  std::vector<Value>& slots) {
    if (e.op == ExprOp::kEq) {
      const Expr& l = e.kids[0];
      const Expr& r = e.kids[1];
      // Form 1: bare unbound slot on one side.
      for (int side = 0; side < 2; ++side) {
        const Expr& a = side == 0 ? l : r;
        const Expr& b = side == 0 ? r : l;
        if (a.op == ExprOp::kSlot &&
            slots[static_cast<size_t>(a.slot)].is_null()) {
          Binding bb = BindingOf(side == 0 ? deps.rhs : deps.lhs, slots);
          if (bb == Binding::kUnbound) return GuardState::kNotReady;
          COLOGNE_ASSIGN_OR_RETURN(v, EvalBound(b, bb, slots));
          slots[static_cast<size_t>(a.slot)] = FromSVal(v);
          return GuardState::kPassed;
        }
      }
      // Form 2: (X == k) == boolexpr with X unbound.
      for (int side = 0; side < 2; ++side) {
        const Expr& pat = side == 0 ? l : r;
        if (pat.op != ExprOp::kEq) continue;
        const Expr* slot_kid = nullptr;
        const Expr* const_kid = nullptr;
        for (int k = 0; k < 2; ++k) {
          const Expr& kid = pat.kids[static_cast<size_t>(k)];
          const Expr& sib = pat.kids[static_cast<size_t>(1 - k)];
          if (kid.op == ExprOp::kSlot &&
              slots[static_cast<size_t>(kid.slot)].is_null()) {
            slot_kid = &kid;
            const_kid = &sib;
          }
        }
        if (slot_kid == nullptr) continue;
        if (const_kid->op != ExprOp::kConst || !const_kid->const_val.is_int()) {
          continue;
        }
        const Expr& other = side == 0 ? r : l;
        Binding ob = BindingOf(side == 0 ? deps.rhs : deps.lhs, slots);
        if (ob == Binding::kUnbound) return GuardState::kNotReady;
        int64_t k = const_kid->const_val.as_int();
        COLOGNE_ASSIGN_OR_RETURN(cond, EvalBound(other, ob, slots));
        Value bound;
        if (cond.symbolic) {
          LinExpr scaled = cond.expr;
          scaled.MulBy(k);
          bound = Value::Sym(Register(std::move(scaled)));
        } else {
          bound = Value::Int(datalog::ValueIsTrue(cond.concrete) ? k : 0);
        }
        slots[static_cast<size_t>(slot_kid->slot)] = bound;
        return GuardState::kPassed;
      }
    }
    // Plain evaluation: not ready / filter / hard constraint.
    Binding b = BindingOf(deps.all, slots);
    if (b == Binding::kUnbound) return GuardState::kNotReady;
    if (b == Binding::kConcrete) {
      COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalExpr(e, slots));
      return datalog::ValueIsTrue(v) ? GuardState::kPassed
                                     : GuardState::kFailed;
    }
    return EvalCondition(e, slots);
  }

  // Evaluate a fully-bound boolean condition. Concrete: filter. Symbolic:
  // post a hard constraint (selections in solver rules restrict the search
  // space, Sections 5.3-5.4) and keep the branch alive.
  Result<GuardState> EvalCondition(const Expr& e, std::vector<Value>& slots) {
    if (datalog::IsComparison(e.op)) {
      COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0], slots));
      COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1], slots));
      if (!a.symbolic && !b.symbolic) {
        COLOGNE_ASSIGN_OR_RETURN(
            v, datalog::EvalBinaryOp(e.op, a.concrete, b.concrete));
        return datalog::ValueIsTrue(v) ? GuardState::kPassed
                                       : GuardState::kFailed;
      }
      COLOGNE_ASSIGN_OR_RETURN(ea, a.AsExpr());
      COLOGNE_ASSIGN_OR_RETURN(eb, b.AsExpr());
      model_->PostRel(ea, RelOfOp(e.op), eb);
      RecordPost(ea, RelOfOp(e.op), eb);
      return GuardState::kPassed;
    }
    if (e.op == ExprOp::kAnd) {
      COLOGNE_ASSIGN_OR_RETURN(a, EvalCondition(e.kids[0], slots));
      if (a == GuardState::kFailed) return a;
      return EvalCondition(e.kids[1], slots);
    }
    COLOGNE_ASSIGN_OR_RETURN(v, Eval(e, slots));
    if (!v.symbolic) {
      return datalog::ValueIsTrue(v.concrete) ? GuardState::kPassed
                                              : GuardState::kFailed;
    }
    model_->PostRel(v.expr, Rel::kEq, LinExpr(1));
    RecordPost(v.expr, Rel::kEq, LinExpr(1));
    return GuardState::kPassed;
  }

  // ---- Expression evaluation (symbolic-aware) -------------------------------
  Result<SVal> Eval(const Expr& e, const std::vector<Value>& slots) {
    switch (e.op) {
      case ExprOp::kConst:
        return SVal::Concrete(e.const_val);
      case ExprOp::kSlot:
        return ToSVal(slots[static_cast<size_t>(e.slot)]);
      case ExprOp::kNeg: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0], slots));
        if (!a.symbolic) return ConcreteUnary(e.op, a.concrete);
        LinExpr neg = a.expr;
        neg.MulBy(-1);
        return SVal::Sym(std::move(neg));
      }
      case ExprOp::kAbs: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0], slots));
        if (!a.symbolic) return ConcreteUnary(e.op, a.concrete);
        return SVal::Sym(LinExpr(model_->MakeAbs(a.expr)));
      }
      case ExprOp::kNot: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0], slots));
        if (!a.symbolic) return ConcreteUnary(e.op, a.concrete);
        LinExpr inv(1);
        inv -= a.expr;
        return SVal::Sym(std::move(inv));
      }
      case ExprOp::kAdd:
      case ExprOp::kSub: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0], slots));
        COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1], slots));
        if (!a.symbolic && !b.symbolic) {
          return ConcreteBinary(e.op, a.concrete, b.concrete);
        }
        COLOGNE_ASSIGN_OR_RETURN(ea, a.AsExpr());
        COLOGNE_ASSIGN_OR_RETURN(eb, b.AsExpr());
        if (e.op == ExprOp::kSub) {
          ea -= eb;
        } else {
          ea += eb;
        }
        return SVal::Sym(std::move(ea));
      }
      case ExprOp::kMul: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0], slots));
        COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1], slots));
        if (!a.symbolic && !b.symbolic) {
          return ConcreteBinary(e.op, a.concrete, b.concrete);
        }
        if (!a.symbolic || !b.symbolic) {
          const SVal& sym = a.symbolic ? a : b;
          const SVal& con = a.symbolic ? b : a;
          if (!con.concrete.is_int()) {
            return Status::SolverError(
                "multiplying a solver attribute by a non-integer");
          }
          LinExpr scaled = sym.expr;
          scaled.MulBy(con.concrete.as_int());
          return SVal::Sym(std::move(scaled));
        }
        IntVar va = model_->VarOf(a.expr);
        IntVar vb = model_->VarOf(b.expr);
        return SVal::Sym(LinExpr(model_->MakeTimes(va, vb)));
      }
      case ExprOp::kDiv:
      case ExprOp::kMod: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0], slots));
        COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1], slots));
        if (a.symbolic || b.symbolic) {
          return Status::SolverError(
              "division/modulo over solver attributes is not supported");
        }
        return ConcreteBinary(e.op, a.concrete, b.concrete);
      }
      default: {  // comparisons and logical connectives
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0], slots));
        COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1], slots));
        if (!a.symbolic && !b.symbolic) {
          return ConcreteBinary(e.op, a.concrete, b.concrete);
        }
        COLOGNE_ASSIGN_OR_RETURN(ea, a.AsExpr());
        COLOGNE_ASSIGN_OR_RETURN(eb, b.AsExpr());
        if (datalog::IsComparison(e.op)) {
          IntVar bvar = model_->ReifyRel(ea, RelOfOp(e.op), eb);
          return SVal::Sym(LinExpr(bvar));
        }
        if (e.op == ExprOp::kAnd) {
          ea += eb;  // both 0/1
          IntVar bvar = model_->ReifyRel(ea, Rel::kEq, LinExpr(2));
          return SVal::Sym(LinExpr(bvar));
        }
        if (e.op == ExprOp::kOr) {
          ea += eb;
          IntVar bvar = model_->ReifyRel(ea, Rel::kGe, LinExpr(1));
          return SVal::Sym(LinExpr(bvar));
        }
        return Status::SolverError("unsupported symbolic operator");
      }
    }
  }

  static Result<SVal> ConcreteUnary(ExprOp op, const Value& a) {
    COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalUnaryOp(op, a));
    return SVal::Concrete(std::move(v));
  }
  static Result<SVal> ConcreteBinary(ExprOp op, const Value& a,
                                     const Value& b) {
    COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalBinaryOp(op, a, b));
    return SVal::Concrete(std::move(v));
  }

  // ---- Head emission --------------------------------------------------------
  Status Emit(const RuleIR& rule, const std::vector<Value>& slots,
              std::vector<Row>* emitted) {
    if (cur_constraint_) return Status::OK();  // constraints derive nothing
    if (rule.agg) {
      Row group;
      for (size_t i = 0; i < rule.head.args.size(); ++i) {
        if (static_cast<int>(i) == rule.agg->arg_index) continue;
        const TermIR& term = rule.head.args[i];
        Value v = term.is_const ? term.const_val
                                : slots[static_cast<size_t>(term.slot)];
        if (v.is_null()) {
          return Status::SolverError("rule " + rule.label +
                                     ": unbound group-by attribute");
        }
        if (v.is_sym()) {
          return Status::SolverError("rule " + rule.label +
                                     ": symbolic group-by attribute");
        }
        group.push_back(std::move(v));
      }
      const Value& v = slots[static_cast<size_t>(rule.agg->value_slot)];
      if (v.is_null()) {
        return Status::SolverError("rule " + rule.label +
                                   ": unbound aggregate input");
      }
      agg_groups_[group].push_back(ToSVal(v));
      return Status::OK();
    }
    Row row;
    for (const TermIR& term : rule.head.args) {
      Value v = term.is_const ? term.const_val
                              : slots[static_cast<size_t>(term.slot)];
      if (v.is_null()) {
        return Status::SolverError("rule " + rule.label +
                                   ": unbound head attribute");
      }
      row.push_back(std::move(v));
    }
    emitted->push_back(std::move(row));
    return Status::OK();
  }

  // ---- Aggregates -----------------------------------------------------------
  Result<Value> Aggregate(AggKind kind, const std::vector<SVal>& vals) {
    bool any_sym = false;
    for (const SVal& v : vals) any_sym |= v.symbolic;
    if (!any_sym) {
      std::vector<Value> xs;
      xs.reserve(vals.size());
      for (const SVal& v : vals) xs.push_back(v.concrete);
      return datalog::ComputeAggregate(kind, xs);
    }
    // Symbolic aggregate constructions (Section 5.3).
    switch (kind) {
      case AggKind::kSum: {
        LinExpr sum;
        for (const SVal& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, v.AsExpr());
          sum += e;
        }
        return Value::Sym(Register(std::move(sum)));
      }
      case AggKind::kSumAbs: {
        LinExpr sum;
        for (const SVal& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, v.AsExpr());
          sum += LinExpr(model_->MakeAbs(e));
        }
        return Value::Sym(Register(std::move(sum)));
      }
      case AggKind::kCount:
        return Value::Int(static_cast<int64_t>(vals.size()));
      case AggKind::kStdev: {
        // Integer surrogate: J = sum_i (n*x_i - S)^2 = n^2 * sum (x_i-mean)^2.
        // Minimizing J minimizes the stdev. The inputs are kept with J's
        // index so Substitute() computes the true stdev under the solution.
        int64_t n = static_cast<int64_t>(vals.size());
        LinExpr total;
        std::vector<LinExpr> exprs;
        for (const SVal& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, v.AsExpr());
          total += e;
          exprs.push_back(std::move(e));
        }
        LinExpr j;
        for (LinExpr& e : exprs) {
          LinExpr dev = e;
          dev.MulBy(n);
          dev -= total;
          j += LinExpr(model_->MakeSquare(dev));
        }
        int32_t idx = Register(std::move(j));
        stdev_inputs_[idx] = std::move(exprs);
        return Value::Sym(idx);
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        // m bounded by every input; exactness via an OR of equalities.
        std::vector<LinExpr> exprs;
        solver::ExprBounds overall{0, 0};
        bool first = true;
        for (const SVal& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, v.AsExpr());
          solver::ExprBounds b = model_->InitialBounds(e);
          if (first) {
            overall = b;
            first = false;
          } else {
            overall.min = std::min(overall.min, b.min);
            overall.max = std::max(overall.max, b.max);
          }
          exprs.push_back(std::move(e));
        }
        IntVar m = model_->NewInt(overall.min, overall.max);
        std::vector<IntVar> hits;
        for (const LinExpr& e : exprs) {
          model_->PostRel(LinExpr(m), kind == AggKind::kMax ? Rel::kGe : Rel::kLe,
                          e);
          hits.push_back(model_->ReifyRel(LinExpr(m), Rel::kEq, e));
        }
        IntVar any = model_->MakeOr(std::move(hits));
        model_->PostRel(LinExpr(any), Rel::kEq, LinExpr(1));
        return Value::Sym(Register(LinExpr(m)));
      }
      case AggKind::kUnique: {
        std::vector<IntVar> vars;
        for (const SVal& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, v.AsExpr());
          vars.push_back(model_->VarOf(e));
        }
        return Value::Sym(Register(LinExpr(model_->MakeCountDistinct(vars))));
      }
      case AggKind::kAvg:
        return Status::SolverError(
            "AVG over solver attributes is not supported (use SUM)");
      case AggKind::kNone:
        break;
    }
    return Status::SolverError("unsupported symbolic aggregate");
  }

  static inline const std::vector<uint32_t> kNoRows;

  const CompiledProgram* program_;
  const datalog::Engine* engine_;
  Model* model_;
  std::vector<VarRow> var_rows_;
  std::vector<LinExpr> sym_exprs_;
  // STDEV surrogate index -> the aggregate's input expressions.
  std::map<int32_t, std::vector<LinExpr>> stdev_inputs_;
  std::map<std::string, std::vector<Row>> tables_;
  // Engine tables read this solve, each sorted once (Table::Rows()).
  std::map<std::string, std::vector<Row>> snapshots_;
  // table -> bound column set -> index over RowsOf(table).
  std::map<std::string, std::map<std::vector<int>, JoinIndex>> indexes_;
  std::map<Row, std::vector<SVal>> agg_groups_;
  const RuleIR* cur_rule_ = nullptr;
  bool cur_constraint_ = false;
  std::vector<GuardDeps> sel_deps_;
  std::vector<std::vector<int>> assign_deps_;
  std::vector<Frame> frames_;
  std::vector<PostedConstraint>* record_ = nullptr;
};

// ---- Solve provenance (ISSUE 6) -------------------------------------------

// Zero slack at the incumbent: the constraint holds with equality (for the
// strict relations, the integer gap of exactly one). A satisfied `==` is
// binding by definition; `!=` never is (its feasible set has no boundary a
// solution can sit on).
bool BindingAt(const PostedConstraint& c, const solver::Solution& sol) {
  int64_t l = EvalLin(c.lhs, sol);
  int64_t r = EvalLin(c.rhs, sol);
  switch (c.rel) {
    case Rel::kEq: return l == r;
    case Rel::kNe: return false;
    case Rel::kLe: return l == r;
    case Rel::kLt: return l + 1 == r;
    case Rel::kGe: return l == r;
    case Rel::kGt: return l == r + 1;
  }
  return false;
}

// Render a grouping-prefix row as the provenance group key ("2" / "1,3").
std::string GroupKeyString(const Row& prefix) {
  std::string s;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (i > 0) s += ",";
    s += prefix[i].ToString();
  }
  return s;
}

// Classify where one decision value came from: its warm-start cache hint, a
// bound of its initial domain (propagation or a B&B objective clamp decided
// it), or the search itself.
const char* SrcOfValue(const Model& model, IntVar v,
                       const std::vector<int64_t>& cache_hints,
                       const solver::Solution& sol) {
  int64_t val = sol.ValueOf(v);
  size_t id = static_cast<size_t>(v.id);
  if (id < cache_hints.size() && cache_hints[id] != Model::Options::kNoHint &&
      cache_hints[id] == val) {
    return "warm";
  }
  const auto& d0 = model.InitialDomain(v);
  if (val == d0.min() || val == d0.max()) return "domain";
  return "search";
}

// Assemble one SolveProvGroup per decision group (or one whole-model group
// for an ungrouped solve): the binding constraints touching any group
// variable, sorted and deduplicated, plus the value-source classification.
std::vector<SolveProvGroup> BuildProvenance(
    const Model& model, const std::vector<BridgeEval::VarRow>& var_rows,
    const std::vector<std::string>& group_keys,
    const std::vector<PostedConstraint>& posted,
    const std::vector<int64_t>& cache_hints, const solver::Solution& sol) {
  // Binding-constraint index per variable.
  std::map<int32_t, std::vector<size_t>> touching;
  for (size_t i = 0; i < posted.size(); ++i) {
    if (!BindingAt(posted[i], sol)) continue;
    for (const auto& [c, v] : posted[i].lhs.terms) touching[v.id].push_back(i);
    for (const auto& [c, v] : posted[i].rhs.terms) touching[v.id].push_back(i);
  }

  std::vector<std::pair<std::string, std::vector<IntVar>>> groups;
  const auto& marked = model.decision_groups();
  if (!marked.empty() && marked.size() == group_keys.size()) {
    for (size_t i = 0; i < marked.size(); ++i) {
      groups.push_back({group_keys[i], marked[i]});
    }
  } else {
    std::vector<IntVar> all;
    for (const BridgeEval::VarRow& vr : var_rows) {
      all.insert(all.end(), vr.vars.begin(), vr.vars.end());
    }
    groups.push_back({std::string(), std::move(all)});
  }

  std::vector<SolveProvGroup> out;
  out.reserve(groups.size());
  for (const auto& [key, vars] : groups) {
    SolveProvGroup g;
    g.key = key;
    std::set<std::string> tight;
    const char* src = nullptr;
    bool mixed = false;
    for (IntVar v : vars) {
      const char* s = SrcOfValue(model, v, cache_hints, sol);
      if (src == nullptr) {
        src = s;
      } else if (std::string_view(src) != s) {
        mixed = true;
      }
      auto it = touching.find(v.id);
      if (it == touching.end()) continue;
      for (size_t ci : it->second) tight.insert(posted[ci].label);
    }
    g.src = src == nullptr ? "search" : (mixed ? "mixed" : src);
    g.tight.assign(tight.begin(), tight.end());
    out.push_back(std::move(g));
  }
  return out;
}

// ---- Incremental fingerprints (ISSUE 7) ------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xFF;
    *h *= kFnvPrime;
  }
}

void FnvMixStr(uint64_t* h, std::string_view s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= kFnvPrime;
  }
  FnvMix(h, s.size());
}

// One 64-bit fingerprint per decision group (aligned with
// model.decision_groups(); a single entry for an ungrouped model).
//
// The hash covers everything that determines the group's slice of the
// search problem: its var rows (table, key, initial domains), every
// propagator watching one of its variables — Propagator::DebugString()
// renders variable ids and every constant the Colog rules baked into the
// expression, so a changed base fact (a demand, a cost coefficient, a
// neighbor's announced placement) changes the hash of exactly the
// propagators it reached — and a model-global component folded into every
// group: propagators that watch no grouped variable or couple several
// groups (shared capacity sums, objective channeling) plus the objective
// sense/variable. Variable ids are deterministic for a fixed row set; a
// structural change (row added/removed) shifts later ids and conservatively
// dirties the affected groups.
std::vector<uint64_t> ComputeFingerprints(
    const Model& model, const std::vector<BridgeEval::VarRow>& var_rows) {
  const auto& groups = model.decision_groups();
  const size_t ngroups = std::max<size_t>(groups.size(), 1);
  std::vector<int32_t> group_of(model.num_vars(), -1);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (IntVar v : groups[gi]) {
      group_of[static_cast<size_t>(v.id)] = static_cast<int32_t>(gi);
    }
  }

  std::vector<uint64_t> fp(ngroups, kFnvOffset);
  uint64_t global = kFnvOffset;
  auto target_of = [&](int32_t var_id) -> int32_t {
    return group_of[static_cast<size_t>(var_id)];
  };

  for (const BridgeEval::VarRow& vr : var_rows) {
    int32_t gi = vr.vars.empty() ? -1 : target_of(vr.vars[0].id);
    uint64_t* h = gi >= 0 ? &fp[static_cast<size_t>(gi)] : &global;
    FnvMixStr(h, *vr.table);
    for (const Value& k : vr.key) FnvMixStr(h, k.ToString());
    for (IntVar v : vr.vars) {
      const auto& d = model.InitialDomain(v);
      FnvMix(h, static_cast<uint64_t>(v.id));
      FnvMix(h, static_cast<uint64_t>(d.min()));
      FnvMix(h, static_cast<uint64_t>(d.max()));
    }
  }

  std::vector<int32_t> seen;  // distinct groups watched by one propagator
  for (const auto& p : model.propagators()) {
    uint64_t h = kFnvOffset;
    FnvMixStr(&h, p->DebugString());
    seen.clear();
    for (int32_t id : p->watched()) {
      int32_t gi = target_of(id);
      if (gi >= 0 &&
          std::find(seen.begin(), seen.end(), gi) == seen.end()) {
        seen.push_back(gi);
      }
    }
    if (seen.size() == 1) {
      FnvMix(&fp[static_cast<size_t>(seen[0])], h);
    } else {
      // No grouped watcher (pure auxiliary channeling) or a coupling
      // propagator spanning groups: model-global either way.
      FnvMix(&global, h);
    }
  }

  if (model.sense() != solver::Sense::kSatisfy) {
    FnvMix(&global, static_cast<uint64_t>(model.sense()));
    FnvMix(&global, static_cast<uint64_t>(model.objective_var().id));
  }
  for (uint64_t& h : fp) FnvMix(&h, global);
  return fp;
}

}  // namespace

std::vector<std::string> SolverInputTables(
    const colog::CompiledProgram& program) {
  std::set<std::string> names;
  for (const colog::SolverRuleIR& rule : program.solver_rules) {
    names.insert(rule.ir.head.table);
    for (const datalog::AtomIR& atom : rule.ir.body) names.insert(atom.table);
  }
  for (const colog::VarDeclIR& decl : program.var_decls) {
    names.insert(decl.var_table);
    names.insert(decl.forall_table);
  }
  if (program.goal.present && !program.goal.table.empty()) {
    names.insert(program.goal.table);
  }
  return {names.begin(), names.end()};
}

Result<SolveOutput> SolverBridge::Solve(const SolveOptions& options,
                                        WarmStartCache* warm_cache,
                                        IncrementalState* incr,
                                        solver::ContextCache* ctx_cache) const {
  SolveOutput out;
  out.backend = options.backend;
  out.seed = options.seed;
  Model model;
  const bool incremental = options.incremental && incr != nullptr;

  // ---- Build the constraint network: one pass over the solver rules -------
  BridgeEval eval(program_, engine_, &model);
  std::vector<PostedConstraint> posted;
  if (options.record_provenance) eval.RecordConstraintsTo(&posted);
  COLOGNE_RETURN_IF_ERROR(eval.InstantiateVars());

  for (const SolverRuleIR& rule : program_->solver_rules) {
    COLOGNE_RETURN_IF_ERROR(eval.EvalRule(rule));
  }

  bool optimizing = program_->goal.present && !program_->goal.table.empty();
  if (optimizing) {
    COLOGNE_ASSIGN_OR_RETURN(goal_val, eval.GoalValue());
    COLOGNE_ASSIGN_OR_RETURN(goal_expr, goal_val.AsExpr());
    if (program_->goal.type == GoalType::kMinimize) {
      model.Minimize(goal_expr);
    } else if (program_->goal.type == GoalType::kMaximize) {
      model.Maximize(goal_expr);
    }
  }

  // Batched solves: partition the var rows into decision groups by key
  // prefix (one group per negotiation unit, e.g. per link of the batch) so
  // group-aware backends relax per-unit neighborhoods. First-seen order
  // keeps the grouping deterministic.
  std::vector<std::string> group_keys;  // aligned with decision_groups()
  if (options.group_key_prefix > 0) {
    std::vector<std::pair<Row, std::vector<IntVar>>> groups;  // ordered
    std::map<std::pair<std::string, Row>, size_t> index;
    for (const BridgeEval::VarRow& vr : eval.var_rows()) {
      Row prefix(vr.key.begin(),
                 vr.key.begin() +
                     std::min<size_t>(vr.key.size(),
                                      static_cast<size_t>(
                                          options.group_key_prefix)));
      auto [it, inserted] =
          index.try_emplace({*vr.table, prefix}, groups.size());
      if (inserted) groups.push_back({prefix, {}});
      auto& vars = groups[it->second].second;
      vars.insert(vars.end(), vr.vars.begin(), vr.vars.end());
    }
    for (auto& [prefix, vars] : groups) {
      // MarkGroup drops empty groups; keep the keys aligned with the model.
      if (!vars.empty() && (options.record_provenance || incremental)) {
        group_keys.push_back(GroupKeyString(prefix));
      }
      model.MarkGroup(std::move(vars));
    }
    out.model_groups = model.decision_groups().size();
  }

  out.model_vars = model.num_vars();
  out.model_propagators = model.num_propagators();

  // ---- Search -------------------------------------------------------
  Model::Options sopts;
  sopts.time_limit_ms = options.time_limit_ms;
  sopts.node_limit = options.node_limit;
  sopts.backend = options.backend;
  sopts.seed = options.seed;
  sopts.restart_base_nodes = options.restart_base_nodes;
  sopts.num_workers = options.num_workers;
  sopts.max_iterations = options.max_iterations;
  sopts.subproblems = options.subproblems;
  sopts.naive_propagation = options.naive_propagation;

  // Warm start: map the cached previous solution onto this solve's freshly
  // created variables by var-table row identity. The periodic invokeSolver
  // loop usually re-solves a near-identical model, so yesterday's placement
  // is an excellent first incumbent today.
  const bool use_cache = warm_cache != nullptr && options.warm_start;
  std::vector<int64_t> hints;
  bool any_hint = false;
  if ((use_cache && !warm_cache->empty()) || options.group_key_prefix > 0) {
    hints.assign(model.num_vars(), Model::Options::kNoHint);
  }
  if (use_cache && !warm_cache->empty()) {
    for (const BridgeEval::VarRow& vr : eval.var_rows()) {
      auto tit = warm_cache->rows.find(*vr.table);
      if (tit == warm_cache->rows.end()) continue;
      auto rit = tit->second.find(vr.key);
      if (rit == tit->second.end() ||
          rit->second.values.size() != vr.vars.size()) {
        continue;
      }
      for (size_t i = 0; i < vr.vars.size(); ++i) {
        hints[static_cast<size_t>(vr.vars[i].id)] = rit->second.values[i];
        any_hint = true;
      }
    }
    out.warm_started = any_hint;
  }
  // Snapshot the cache-derived hints (before the null-decision defaults
  // below) — the "warm" provenance classification means "the warm-start
  // cache supplied this value", matching warm_started above, not "any hint".
  std::vector<int64_t> cache_hints;
  if (options.record_provenance) cache_hints = hints;
  if (options.group_key_prefix > 0) {
    // Null-decision default for batched negotiation models: a decision cell
    // with no cached value is hinted to 0 when its domain allows it (e.g.
    // "migrate nothing" — the status quo each negotiation improves on).
    // Without this, the first-solution dive of a wide multi-link model must
    // discover a feasible point from scratch over [-cap, cap]^n, which is
    // exponential exactly when batching makes n large. Infeasible hints are
    // repaired by the search, never trusted.
    for (const BridgeEval::VarRow& vr : eval.var_rows()) {
      for (solver::IntVar v : vr.vars) {
        int64_t& h = hints[static_cast<size_t>(v.id)];
        if (h == Model::Options::kNoHint &&
            model.InitialDomain(v).Contains(0)) {
          h = 0;
          any_hint = true;
        }
      }
    }
  }
  if (any_hint) sopts.warm_start = std::move(hints);

  // ---- Incremental classification -------------------------------------------
  // Fingerprint the model per decision group and compare against the
  // previous solve: clean groups stay pinned to the warm incumbent, search
  // focuses on the dirty ones. Falls back to a cold solve when there is
  // nothing to compare against (first solve, post-crash, cache disabled),
  // when no warm incumbent exists to pin to, or when more than
  // incr_threshold_pct of the groups changed.
  std::map<std::string, uint64_t> fp_map;
  const bool context_caching = ctx_cache != nullptr && options.cache;
  std::vector<uint64_t> fps;
  if (incremental || context_caching) {
    fps = ComputeFingerprints(model, eval.var_rows());
  }
  if (context_caching) {
    // Namespace the persistent proof cache by the model fingerprint: a fact
    // delta that changes any group fingerprint changes the key, so proofs
    // about the previous model can never match — invalidation without a
    // sweep. Identical models across solves keep the namespace, which is
    // what lets a re-solve skip subtrees the last solve exhausted.
    uint64_t model_key = kFnvOffset;
    for (uint64_t f : fps) FnvMix(&model_key, f);
    ctx_cache->set_model_key(model_key);
    sopts.context_cache = ctx_cache;
  }
  if (incremental) {
    const size_t total = fps.size();
    auto key_of = [&](size_t gi) {
      return gi < group_keys.size() ? group_keys[gi] : std::string();
    };
    for (size_t gi = 0; gi < total; ++gi) fp_map[key_of(gi)] = fps[gi];

    bool fallback = false;
    std::vector<size_t> dirty;
    if (!incr->valid || !out.warm_started) {
      fallback = true;
      out.incr_dirty = static_cast<int>(total);
      out.incr_clean = 0;
    } else {
      for (size_t gi = 0; gi < total; ++gi) {
        auto it = incr->fingerprints.find(key_of(gi));
        if (it == incr->fingerprints.end() || it->second != fps[gi]) {
          dirty.push_back(gi);
        }
      }
      size_t vanished = 0;  // groups that existed last solve but not now
      for (const auto& [key, fp] : incr->fingerprints) {
        if (fp_map.find(key) == fp_map.end()) ++vanished;
      }
      out.incr_dirty = static_cast<int>(dirty.size());
      out.incr_clean = static_cast<int>(total - dirty.size());
      const size_t changes = dirty.size() + vanished;
      const auto threshold =
          static_cast<size_t>(std::max(options.incr_threshold_pct, 0));
      if (changes * 100 > threshold * total) fallback = true;
    }
    out.incr_fallback = fallback;
    if (!fallback) {
      sopts.incremental = true;
      sopts.focus_groups = std::move(dirty);
    }
  }

  solver::Solution sol = model.Solve(sopts);
  out.status = sol.status;
  out.stats = sol.stats;
  out.model_memory_bytes = sol.stats.peak_memory_bytes;
  if (!sol.has_solution()) return out;

  if (options.record_provenance) {
    out.provenance = BuildProvenance(model, eval.var_rows(), group_keys,
                                     posted, cache_hints, sol);
  }

  if (use_cache) {
    // Fingerprints refresh in lockstep with the cache: they describe the
    // model whose incumbent the cache now holds.
    if (incremental) {
      incr->fingerprints = std::move(fp_map);
      incr->valid = true;
    }
    ++warm_cache->generation;
    for (const BridgeEval::VarRow& vr : eval.var_rows()) {
      std::vector<int64_t> vals;
      vals.reserve(vr.vars.size());
      for (IntVar v : vr.vars) vals.push_back(sol.ValueOf(v));
      warm_cache->rows[*vr.table][vr.key] = {std::move(vals),
                                             warm_cache->generation};
    }
    // Evict keys that have not appeared for max_idle_solves solves; drop
    // emptied tables so empty() stays meaningful.
    if (warm_cache->max_idle_solves > 0) {
      for (auto& [table, entries] : warm_cache->rows) {
        std::erase_if(entries, [&](const auto& kv) {
          return warm_cache->generation - kv.second.last_used >
                 warm_cache->max_idle_solves;
        });
      }
      std::erase_if(warm_cache->rows,
                    [](const auto& kv) { return kv.second.empty(); });
    }
  }

  // ---- Output: the same tables with the incumbent substituted -------------
  eval.Substitute(sol);
  if (optimizing) {
    COLOGNE_ASSIGN_OR_RETURN(goal_val, eval.GoalValue());
    if (!goal_val.symbolic && goal_val.concrete.is_numeric()) {
      out.objective = goal_val.concrete.as_double();
      out.has_objective = true;
    }
  }
  out.tables = std::move(eval.tables());
  return out;
}

}  // namespace cologne::runtime
