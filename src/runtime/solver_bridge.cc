#include "runtime/solver_bridge.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "datalog/aggregates.h"

namespace cologne::runtime {

namespace {

using colog::CompiledProgram;
using colog::GoalType;
using colog::PlanArg;
using colog::PlanAtom;
using colog::PlanGuard;
using colog::PlanRule;
using colog::SolverPlan;
using colog::SolverRuleIR;
using colog::VarDeclIR;
using datalog::AggKind;
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

// A value during solver-rule evaluation: concrete, or an affine expression
// over model variables. A symbolic value read straight from a slot refers to
// the registered expression (`ref`) instead of copying it; one computed here
// owns its expression.
struct SVal {
  bool symbolic = false;
  Value concrete;    // !symbolic
  int32_t ref = -1;  // symbolic: registered expression index, or -1
  LinExpr expr;      // symbolic with ref < 0

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
};

Status NotAnInteger(const Value& v) {
  return Status::SolverError("expected integer in symbolic context, got " +
                             v.ToString());
}

// Evaluate a LinExpr under a solution.
int64_t EvalLin(const LinExpr& e, const solver::Solution& sol) {
  int64_t v = e.constant;
  for (const auto& [c, var] : e.terms) v += c * sol.ValueOf(var);
  return v;
}

// Evaluation context for one Solve(): binds rows along the program's
// SolverPlan (colog/solver_plan.h), each solver rule once, bottom-up, into
// the constraint network. Solver attributes are affine expressions
// registered in `exprs_` and referenced from rows via Value::Sym(index);
// after the search, Substitute() replaces every symbolic cell with its value
// under the incumbent, which turns the bridge-local tables into the solve's
// concrete output.
//
// Joins read each table in one fixed scan order: the bridge-local rows in
// derivation order, or the engine table's sorted view (read in place; the
// engine does not change while the model is built). Bound columns are
// probed through hash indexes built lazily from that order, so a probe
// yields exactly the rows a nested-loop scan would accept, in the same
// order; variable ids and propagator order therefore do not depend on the
// index.
class PlanEval {
 public:
  PlanEval(const CompiledProgram* program, const datalog::Engine* engine,
           Model* model)
      : program_(program),
        plan_(program->solver_plan),
        engine_(engine),
        model_(model),
        local_(plan_.tables.size()),
        has_local_(plan_.tables.size(), 0),
        snapshots_(plan_.tables.size()),
        has_snapshot_(plan_.tables.size(), 0),
        indexes_(static_cast<size_t>(plan_.num_indexes)) {}

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
    for (size_t d = 0; d < program_->var_decls.size(); ++d) {
      const VarDeclIR& decl = program_->var_decls[d];
      const int forall = plan_.forall_tables[d];
      if (forall < 0) {
        return Status::SolverError("forall table missing: " +
                                   decl.forall_table);
      }
      const int table = plan_.var_tables[d];
      has_local_[static_cast<size_t>(table)] = 1;
      std::vector<Row>& out = local_[static_cast<size_t>(table)];
      std::set<Row> seen;  // dedupe identical regular projections
      for (const Row& frow : engine_->table(forall).View()) {
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
  Status EvalRule(size_t r) {
    const SolverRuleIR& srule = program_->solver_rules[r];
    rule_ = &srule.ir;
    plan_rule_ = &plan_.rules[r];
    constraint_ = srule.is_constraint;
    slots_.assign(static_cast<size_t>(rule_->num_slots), Value());
    keys_.resize(plan_rule_->body.size());

    if (constraint_) {
      // Head is a pattern over an existing table: every row must satisfy the
      // body.
      const PlanAtom& head = plan_rule_->head;
      const ScanRows rows = RowsOf(head.table);
      for (size_t i = 0; i < rows.size(); ++i) {
        Result<bool> ok = Match(head, rows[i]);
        Status st = ok.status();
        if (ok.ok() && ok.value()) st = JoinBody(0);
        Unbind(head);
        COLOGNE_RETURN_IF_ERROR(st);
      }
      return Status::OK();
    }

    // Derivation rule: full join over the body, emitting head rows.
    emitted_.clear();
    agg_keys_.clear();
    agg_vals_.clear();
    COLOGNE_RETURN_IF_ERROR(JoinBody(0));
    const auto head = static_cast<size_t>(plan_rule_->head_table);
    has_local_[head] = 1;
    std::vector<Row>& out = local_[head];
    // The head's scan order changes (or it now shadows an engine table):
    // indexes over the old rows are stale.
    for (int idx : plan_rule_->stale_indexes) {
      indexes_[static_cast<size_t>(idx)] = JoinIndex{};
    }
    if (rule_->agg) return EmitGroups(out);
    for (Row& row : emitted_) out.push_back(std::move(row));
    return Status::OK();
  }

  // ---- Goal -----------------------------------------------------------------
  // Returns a concrete 0 when the goal table is empty (no cost terms apply:
  // e.g. the first wireless link negotiation before any neighbor has chosen
  // a channel) — the solve then degrades to pure satisfaction.
  Result<SVal> GoalValue() {
    const ScanRows rows = RowsOf(plan_.goal_table);
    if (rows.size() == 0) {
      return SVal::Concrete(Value::Int(0));
    }
    if (rows.size() > 1) {
      return Status::SolverError(
          StrFormat("goal table %s has %zu rows; expected a single row",
                    program_->goal.table.c_str(), rows.size()));
    }
    return ToSVal(rows[0][static_cast<size_t>(program_->goal.col)]);
  }

  /// The expression of `s` by value: its own, a copy of the registered one
  /// it refers to, or an integer constant.
  Result<LinExpr> TakeExpr(SVal s) const {
    if (!s.symbolic) {
      if (!s.concrete.is_int()) return NotAnInteger(s.concrete);
      return LinExpr(s.concrete.as_int());
    }
    if (s.ref >= 0) return ExprAt(s.ref);
    return std::move(s.expr);
  }

  /// Replace every symbolic cell of the bridge-local tables with its value
  /// under `sol`. Every encoding is value-exact (the sum of abs variables is
  /// the SUMABS, MIN/MAX are pinned by their exactness OR, reified
  /// comparisons are 0/1, ...) except STDEV, whose model cell is the integer
  /// surrogate: it is recomputed from its substituted inputs.
  void Substitute(const solver::Solution& sol) {
    for (size_t t = 0; t < local_.size(); ++t) {
      if (!has_local_[t]) continue;
      for (Row& row : local_[t]) {
        for (Value& cell : row) {
          if (cell.is_sym()) cell = SymValue(cell.sym_index(), sol);
        }
      }
    }
  }

  /// The bridge-local tables by name: every var table and derived head.
  std::map<std::string, std::vector<Row>> TakeTables() {
    std::map<std::string, std::vector<Row>> out;
    for (size_t t = 0; t < local_.size(); ++t) {
      if (has_local_[t]) out.emplace(plan_.tables[t], std::move(local_[t]));
    }
    return out;
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
    bool built = false;
    // False when an indexed cell is symbolic (unification may post an
    // equality or reject the join) or a double: such a column set is always
    // scanned. Hash and == agree on doubles (both zeros hash alike); they
    // stay unindexed only because a NaN key never equals itself.
    bool usable = true;
    std::unordered_map<Row, std::vector<uint32_t>, RowHasher> buckets;
  };

  // A table's rows in scan order: the bridge-local rows, or an engine
  // table's view.
  class ScanRows {
   public:
    explicit ScanRows(const std::vector<Row>* local) : local_(local) {}
    explicit ScanRows(datalog::RowsView view) : view_(view) {}
    size_t size() const { return local_ ? local_->size() : view_.size(); }
    const Row& operator[](size_t i) const {
      return local_ ? (*local_)[i] : view_[i];
    }

   private:
    const std::vector<Row>* local_ = nullptr;
    datalog::RowsView view_;
  };

  // Rows of a table in scan order: the bridge-local solver table once one
  // exists, the engine table's sorted view otherwise (plan table ids are
  // engine table ids).
  ScanRows RowsOf(int table) {
    const auto t = static_cast<size_t>(table);
    if (has_local_[t]) return ScanRows(&local_[t]);
    if (!has_snapshot_[t]) {
      has_snapshot_[t] = 1;
      snapshots_[t] = engine_->table(table).View();
    }
    return ScanRows(snapshots_[t]);
  }

  int32_t Register(LinExpr e) {
    exprs_.push_back(std::move(e));
    return static_cast<int32_t>(exprs_.size() - 1);
  }

  const LinExpr& ExprAt(int32_t idx) const {
    return exprs_[static_cast<size_t>(idx)];
  }

  // The expression of a symbolic value, or `scratch` holding an integer
  // constant.
  Result<const LinExpr*> ExprOf(const SVal& s, LinExpr* scratch) const {
    if (s.symbolic) return s.ref >= 0 ? &ExprAt(s.ref) : &s.expr;
    if (!s.concrete.is_int()) return NotAnInteger(s.concrete);
    *scratch = LinExpr(s.concrete.as_int());
    return scratch;
  }

  Value SymValue(int32_t idx, const solver::Solution& sol) const {
    auto it = stdev_inputs_.find(idx);
    if (it == stdev_inputs_.end()) return Value::Int(EvalLin(ExprAt(idx), sol));
    std::vector<Value> xs;
    xs.reserve(it->second.size());
    for (const LinExpr& e : it->second) {
      xs.push_back(Value::Int(EvalLin(e, sol)));
    }
    return datalog::ComputeAggregate(AggKind::kStdev, xs);
  }

  static SVal ToSVal(const Value& v) {
    if (!v.is_sym()) return SVal::Concrete(v);
    SVal s;
    s.symbolic = true;
    s.ref = v.sym_index();
    return s;
  }

  // A symbolic value always gets a fresh index, so a later unification of
  // two cells compares expression identities exactly as it did when every
  // binding registered its own copy.
  Value FromSVal(SVal s) {
    if (!s.symbolic) return s.concrete;
    if (s.ref >= 0) return Value::Sym(Register(LinExpr(ExprAt(s.ref))));
    return Value::Sym(Register(std::move(s.expr)));
  }

  void PostRecorded(LinExpr lhs, Rel rel, LinExpr rhs) {
    if (record_ != nullptr) record_->push_back({rule_->label, lhs, rel, rhs});
    model_->PostRel(std::move(lhs), rel, std::move(rhs));
  }

  Value& Slot(int slot) { return slots_[static_cast<size_t>(slot)]; }

  bool AnySym(const std::vector<int>& deps) const {
    for (int d : deps) {
      if (slots_[static_cast<size_t>(d)].is_sym()) return true;
    }
    return false;
  }

  // ---- Atom matching --------------------------------------------------------
  // Returns false (no error) when the row does not match. Every concrete
  // column is bound or tested first; only a row that passes them all gets
  // its symbolic clashes unified, in column order: in constraint rules a
  // clash posts an equality constraint; in derivation rules it is an error
  // (joins on solver attributes are disallowed, Section 5.3). The caller
  // unbinds the atom's slots afterwards either way.
  Result<bool> Match(const PlanAtom& atom, const Row& row) {
    clashes_.clear();
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const PlanArg& arg = atom.args[i];
      const Value& v = row[i];
      if (arg.kind == PlanArg::Kind::kBind) {
        Slot(arg.slot) = v;
        continue;
      }
      const Value& test = TestValue(arg);
      if (test == v) continue;
      if (!test.is_sym() && !v.is_sym()) return false;
      clashes_.push_back(i);
    }
    for (size_t i : clashes_) {
      if (!constraint_) {
        return Status::SolverError(
            "rule " + rule_->label +
            ": join on a solver attribute is not supported");
      }
      COLOGNE_ASSIGN_OR_RETURN(
          ea, TakeExpr(ToSVal(TestValue(atom.args[i]))));
      COLOGNE_ASSIGN_OR_RETURN(eb, TakeExpr(ToSVal(row[i])));
      PostRecorded(std::move(ea), Rel::kEq, std::move(eb));
    }
    return true;
  }

  // The value a test column must equal: the constant or the bound slot.
  const Value& TestValue(const PlanArg& arg) {
    return arg.kind == PlanArg::Kind::kTestConst ? arg.value : Slot(arg.slot);
  }

  void Unbind(const PlanAtom& atom) {
    for (const PlanArg& arg : atom.args) {
      if (arg.kind == PlanArg::Kind::kBind) Slot(arg.slot) = Value();
    }
  }

  // ---- Body join ------------------------------------------------------------
  // Run the guards that become ready at `depth`, then join body[depth] (or
  // emit the head past the last atom). Every slot bound here is unbound
  // again on the way out.
  Status JoinBody(size_t depth) {
    const std::vector<PlanGuard>& guards = plan_rule_->guards[depth];
    Result<bool> alive = RunGuards(guards);
    Status st = alive.status();
    if (alive.ok() && alive.value()) {
      st = depth == plan_rule_->body.size() ? Emit() : JoinAtom(depth);
    }
    for (const PlanGuard& g : guards) {
      if (g.kind != PlanGuard::Kind::kFilter &&
          g.kind != PlanGuard::Kind::kCheckAssign) {
        Slot(g.slot) = Value();
      }
    }
    return st;
  }

  Status JoinAtom(size_t depth) {
    const PlanAtom& atom = plan_rule_->body[depth];
    const ScanRows rows = RowsOf(atom.table);
    auto visit = [&](const Row& row) -> Status {
      Result<bool> ok = Match(atom, row);
      Status st = ok.status();
      if (ok.ok() && ok.value()) st = JoinBody(depth + 1);
      Unbind(atom);
      return st;
    };
    if (const std::vector<uint32_t>* hits = Probe(atom, depth, rows)) {
      for (uint32_t pos : *hits) COLOGNE_RETURN_IF_ERROR(visit(rows[pos]));
    } else {
      for (size_t i = 0; i < rows.size(); ++i) {
        COLOGNE_RETURN_IF_ERROR(visit(rows[i]));
      }
    }
    return Status::OK();
  }

  // Positions of the rows of `rows` whose probe columns equal the current
  // bindings, in scan order; nullptr means "scan every row" (nothing bound,
  // or a symbolic or double cell on either side, where Match's unification
  // rules apply). Match still runs on every candidate, so repeated slots
  // inside the atom are checked there.
  const std::vector<uint32_t>* Probe(const PlanAtom& atom, size_t depth,
                                     const ScanRows& rows) {
    if (atom.index < 0) return nullptr;
    Row& key = keys_[depth];
    key.clear();
    for (int col : atom.probe_cols) {
      const Value& v = TestValue(atom.args[static_cast<size_t>(col)]);
      if (v.is_sym() || v.is_double()) return nullptr;
      key.push_back(v);
    }
    JoinIndex& index = indexes_[static_cast<size_t>(atom.index)];
    if (!index.built) BuildIndex(atom.probe_cols, rows, &index);
    if (!index.usable) return nullptr;
    auto it = index.buckets.find(key);
    return it == index.buckets.end() ? &kNoRows : &it->second;
  }

  static void BuildIndex(const std::vector<int>& cols, const ScanRows& rows,
                         JoinIndex* index) {
    index->built = true;
    Row proj;
    for (size_t pos = 0; pos < rows.size(); ++pos) {
      proj.clear();
      for (int c : cols) {
        const Value& v = rows[pos][static_cast<size_t>(c)];
        if (v.is_sym() || v.is_double()) {
          index->usable = false;
          index->buckets.clear();
          return;
        }
        proj.push_back(v);
      }
      index->buckets[proj].push_back(static_cast<uint32_t>(pos));
    }
  }

  // Run one depth's guards in plan order; Result<false> = a selection or an
  // assignment check filtered this branch out.
  Result<bool> RunGuards(const std::vector<PlanGuard>& guards) {
    for (const PlanGuard& g : guards) {
      switch (g.kind) {
        case PlanGuard::Kind::kBind: {
          const Expr& e = rule_->sels[static_cast<size_t>(g.index)].expr;
          COLOGNE_ASSIGN_OR_RETURN(
              v, EvalBound(e.kids[static_cast<size_t>(1 - g.side)], g.deps));
          Slot(g.slot) = FromSVal(std::move(v));
          break;
        }
        case PlanGuard::Kind::kBindReified: {
          const Expr& e = rule_->sels[static_cast<size_t>(g.index)].expr;
          COLOGNE_ASSIGN_OR_RETURN(
              cond,
              EvalBound(e.kids[static_cast<size_t>(1 - g.side)], g.deps));
          if (cond.symbolic) {
            COLOGNE_ASSIGN_OR_RETURN(scaled, TakeExpr(std::move(cond)));
            scaled.MulBy(g.k);
            Slot(g.slot) = Value::Sym(Register(std::move(scaled)));
          } else {
            Slot(g.slot) =
                Value::Int(datalog::ValueIsTrue(cond.concrete) ? g.k : 0);
          }
          break;
        }
        case PlanGuard::Kind::kFilter: {
          const Expr& e = rule_->sels[static_cast<size_t>(g.index)].expr;
          if (!AnySym(g.deps)) {
            COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalExpr(e, slots_));
            if (!datalog::ValueIsTrue(v)) return false;
          } else {
            COLOGNE_ASSIGN_OR_RETURN(passed, EvalCondition(e));
            if (!passed) return false;
          }
          break;
        }
        case PlanGuard::Kind::kAssign:
        case PlanGuard::Kind::kCheckAssign: {
          const Expr& e = rule_->assigns[static_cast<size_t>(g.index)].expr;
          COLOGNE_ASSIGN_OR_RETURN(v, EvalBound(e, g.deps));
          Value newv = FromSVal(std::move(v));
          if (g.kind == PlanGuard::Kind::kAssign) {
            Slot(g.slot) = newv;
          } else if (!(Slot(g.slot) == newv)) {
            return false;
          }
          break;
        }
      }
    }
    return true;
  }

  // Evaluate an expression whose slots are all bound: straight through the
  // concrete evaluator when none is symbolic.
  Result<SVal> EvalBound(const Expr& e, const std::vector<int>& deps) {
    if (!AnySym(deps)) {
      COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalExpr(e, slots_));
      return SVal::Concrete(v);
    }
    return Eval(e);
  }

  // Evaluate a fully-bound boolean condition. Concrete: filter (false =
  // filtered out). Symbolic: post a hard constraint (selections in solver
  // rules restrict the search space, Sections 5.3-5.4) and keep the branch
  // alive.
  Result<bool> EvalCondition(const Expr& e) {
    if (datalog::IsComparison(e.op)) {
      COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0]));
      COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1]));
      if (!a.symbolic && !b.symbolic) {
        COLOGNE_ASSIGN_OR_RETURN(
            v, datalog::EvalBinaryOp(e.op, a.concrete, b.concrete));
        return datalog::ValueIsTrue(v);
      }
      COLOGNE_ASSIGN_OR_RETURN(ea, TakeExpr(std::move(a)));
      COLOGNE_ASSIGN_OR_RETURN(eb, TakeExpr(std::move(b)));
      PostRecorded(std::move(ea), RelOfOp(e.op), std::move(eb));
      return true;
    }
    if (e.op == ExprOp::kAnd) {
      COLOGNE_ASSIGN_OR_RETURN(a, EvalCondition(e.kids[0]));
      if (!a) return false;
      return EvalCondition(e.kids[1]);
    }
    COLOGNE_ASSIGN_OR_RETURN(v, Eval(e));
    if (!v.symbolic) return datalog::ValueIsTrue(v.concrete);
    COLOGNE_ASSIGN_OR_RETURN(ev, TakeExpr(std::move(v)));
    PostRecorded(std::move(ev), Rel::kEq, LinExpr(1));
    return true;
  }

  // ---- Expression evaluation (symbolic-aware) -------------------------------
  Result<SVal> Eval(const Expr& e) {
    switch (e.op) {
      case ExprOp::kConst:
        return SVal::Concrete(e.const_val);
      case ExprOp::kSlot:
        return ToSVal(Slot(e.slot));
      case ExprOp::kNeg: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0]));
        if (!a.symbolic) return ConcreteUnary(e.op, a.concrete);
        COLOGNE_ASSIGN_OR_RETURN(neg, TakeExpr(std::move(a)));
        neg.MulBy(-1);
        return SVal::Sym(std::move(neg));
      }
      case ExprOp::kAbs: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0]));
        if (!a.symbolic) return ConcreteUnary(e.op, a.concrete);
        LinExpr scratch;
        COLOGNE_ASSIGN_OR_RETURN(ea, ExprOf(a, &scratch));
        return SVal::Sym(LinExpr(model_->MakeAbs(*ea)));
      }
      case ExprOp::kNot: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0]));
        if (!a.symbolic) return ConcreteUnary(e.op, a.concrete);
        LinExpr scratch;
        COLOGNE_ASSIGN_OR_RETURN(ea, ExprOf(a, &scratch));
        LinExpr inv(1);
        inv -= *ea;
        return SVal::Sym(std::move(inv));
      }
      case ExprOp::kAdd:
      case ExprOp::kSub: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0]));
        COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1]));
        if (!a.symbolic && !b.symbolic) {
          return ConcreteBinary(e.op, a.concrete, b.concrete);
        }
        COLOGNE_ASSIGN_OR_RETURN(ea, TakeExpr(std::move(a)));
        LinExpr scratch;
        COLOGNE_ASSIGN_OR_RETURN(eb, ExprOf(b, &scratch));
        if (e.op == ExprOp::kSub) {
          ea -= *eb;
        } else {
          ea += *eb;
        }
        return SVal::Sym(std::move(ea));
      }
      case ExprOp::kMul: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0]));
        COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1]));
        if (!a.symbolic && !b.symbolic) {
          return ConcreteBinary(e.op, a.concrete, b.concrete);
        }
        if (!a.symbolic || !b.symbolic) {
          SVal& sym = a.symbolic ? a : b;
          const SVal& con = a.symbolic ? b : a;
          if (!con.concrete.is_int()) {
            return Status::SolverError(
                "multiplying a solver attribute by a non-integer");
          }
          COLOGNE_ASSIGN_OR_RETURN(scaled, TakeExpr(std::move(sym)));
          scaled.MulBy(con.concrete.as_int());
          return SVal::Sym(std::move(scaled));
        }
        LinExpr sa, sb;
        COLOGNE_ASSIGN_OR_RETURN(ea, ExprOf(a, &sa));
        COLOGNE_ASSIGN_OR_RETURN(eb, ExprOf(b, &sb));
        IntVar va = model_->VarOf(*ea);
        IntVar vb = model_->VarOf(*eb);
        return SVal::Sym(LinExpr(model_->MakeTimes(va, vb)));
      }
      case ExprOp::kDiv:
      case ExprOp::kMod: {
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0]));
        COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1]));
        if (a.symbolic || b.symbolic) {
          return Status::SolverError(
              "division/modulo over solver attributes is not supported");
        }
        return ConcreteBinary(e.op, a.concrete, b.concrete);
      }
      default: {  // comparisons and logical connectives
        COLOGNE_ASSIGN_OR_RETURN(a, Eval(e.kids[0]));
        COLOGNE_ASSIGN_OR_RETURN(b, Eval(e.kids[1]));
        if (!a.symbolic && !b.symbolic) {
          return ConcreteBinary(e.op, a.concrete, b.concrete);
        }
        COLOGNE_ASSIGN_OR_RETURN(ea, TakeExpr(std::move(a)));
        LinExpr scratch;
        COLOGNE_ASSIGN_OR_RETURN(eb, ExprOf(b, &scratch));
        if (datalog::IsComparison(e.op)) {
          IntVar bvar = model_->ReifyRel(std::move(ea), RelOfOp(e.op), *eb);
          return SVal::Sym(LinExpr(bvar));
        }
        if (e.op == ExprOp::kAnd) {
          ea += *eb;  // both 0/1
          IntVar bvar = model_->ReifyRel(std::move(ea), Rel::kEq, LinExpr(2));
          return SVal::Sym(LinExpr(bvar));
        }
        if (e.op == ExprOp::kOr) {
          ea += *eb;
          IntVar bvar = model_->ReifyRel(std::move(ea), Rel::kGe, LinExpr(1));
          return SVal::Sym(LinExpr(bvar));
        }
        return Status::SolverError("unsupported symbolic operator");
      }
    }
  }

  static Result<SVal> ConcreteUnary(ExprOp op, const Value& a) {
    COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalUnaryOp(op, a));
    return SVal::Concrete(v);
  }
  static Result<SVal> ConcreteBinary(ExprOp op, const Value& a,
                                     const Value& b) {
    COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalBinaryOp(op, a, b));
    return SVal::Concrete(v);
  }

  // ---- Head emission --------------------------------------------------------
  // An aggregate rule records its group-by values and its input per
  // emission; EmitGroups() aggregates them once the join is done.
  Status Emit() {
    if (constraint_) return Status::OK();  // constraints derive nothing
    const RuleIR& rule = *rule_;
    if (rule.agg) {
      for (size_t i = 0; i < rule.head.args.size(); ++i) {
        if (static_cast<int>(i) == rule.agg->arg_index) continue;
        const TermIR& term = rule.head.args[i];
        const Value& v = term.is_const ? term.const_val : Slot(term.slot);
        if (v.is_null()) {
          return Status::SolverError("rule " + rule.label +
                                     ": unbound group-by attribute");
        }
        if (v.is_sym()) {
          return Status::SolverError("rule " + rule.label +
                                     ": symbolic group-by attribute");
        }
        agg_keys_.push_back(v);
      }
      const Value& v = Slot(rule.agg->value_slot);
      if (v.is_null()) {
        return Status::SolverError("rule " + rule.label +
                                   ": unbound aggregate input");
      }
      agg_vals_.push_back(v);
      return Status::OK();
    }
    Row row;
    row.reserve(rule.head.args.size());
    for (const TermIR& term : rule.head.args) {
      const Value& v = term.is_const ? term.const_val : Slot(term.slot);
      if (v.is_null()) {
        return Status::SolverError("rule " + rule.label +
                                   ": unbound head attribute");
      }
      row.push_back(v);
    }
    emitted_.push_back(std::move(row));
    return Status::OK();
  }

  // Aggregate the recorded emissions per group, groups in ascending key
  // order and each group's inputs in emission order, appending one head row
  // per group to `out`.
  Status EmitGroups(std::vector<Row>& out) {
    const size_t width = rule_->head.args.size() - 1;
    auto key = [&](uint32_t e) {
      return std::span<const Value>(agg_keys_.data() + e * width, width);
    };
    auto less = [&](uint32_t a, uint32_t b) {
      std::span<const Value> ka = key(a), kb = key(b);
      return std::lexicographical_compare(ka.begin(), ka.end(), kb.begin(),
                                          kb.end());
    };
    std::vector<uint32_t> order(agg_vals_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), less);
    std::vector<Value> inputs;
    const auto agg_pos = static_cast<size_t>(rule_->agg->arg_index);
    for (size_t i = 0; i < order.size();) {
      size_t j = i;
      inputs.clear();
      for (; j < order.size() && !less(order[i], order[j]); ++j) {
        inputs.push_back(agg_vals_[order[j]]);
      }
      COLOGNE_ASSIGN_OR_RETURN(agg_val, Aggregate(rule_->agg->kind, inputs));
      std::span<const Value> group = key(order[i]);
      Row row(group.begin(), group.end());
      row.insert(row.begin() + static_cast<std::ptrdiff_t>(agg_pos), agg_val);
      out.push_back(std::move(row));
      i = j;
    }
    return Status::OK();
  }

  // ---- Aggregates -----------------------------------------------------------
  Result<Value> Aggregate(AggKind kind, const std::vector<Value>& vals) {
    bool any_sym = false;
    for (const Value& v : vals) any_sym |= v.is_sym();
    if (!any_sym) return datalog::ComputeAggregate(kind, vals);
    // Symbolic aggregate constructions (Section 5.3). Sums collect every
    // term into one expression and canonicalize it once.
    switch (kind) {
      case AggKind::kSum: {
        LinExpr sum;
        for (const Value& v : vals) COLOGNE_RETURN_IF_ERROR(Append(v, &sum));
        sum.Canonicalize();
        return Value::Sym(Register(std::move(sum)));
      }
      case AggKind::kSumAbs: {
        LinExpr sum;
        LinExpr scratch;
        for (const Value& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, ExprOf(ToSVal(v), &scratch));
          sum.terms.push_back({1, model_->MakeAbs(*e)});
        }
        sum.Canonicalize();
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
        exprs.reserve(vals.size());
        for (const Value& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, TakeExpr(ToSVal(v)));
          exprs.push_back(std::move(e));
          total.constant += exprs.back().constant;
          total.terms.insert(total.terms.end(), exprs.back().terms.begin(),
                             exprs.back().terms.end());
        }
        total.Canonicalize();
        LinExpr j;
        for (const LinExpr& e : exprs) {
          LinExpr dev = e;
          dev.MulBy(n);
          dev -= total;
          j.terms.push_back({1, model_->MakeSquare(dev)});
        }
        j.Canonicalize();
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
        for (const Value& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, TakeExpr(ToSVal(v)));
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
        LinExpr scratch;
        for (const Value& v : vals) {
          COLOGNE_ASSIGN_OR_RETURN(e, ExprOf(ToSVal(v), &scratch));
          vars.push_back(model_->VarOf(*e));
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

  // sum += v, uncanonicalized.
  Status Append(const Value& v, LinExpr* sum) const {
    if (!v.is_sym()) {
      if (!v.is_int()) return NotAnInteger(v);
      sum->constant += v.as_int();
      return Status::OK();
    }
    const LinExpr& e = ExprAt(v.sym_index());
    sum->constant += e.constant;
    sum->terms.insert(sum->terms.end(), e.terms.begin(), e.terms.end());
    return Status::OK();
  }

  static inline const std::vector<uint32_t> kNoRows;

  const CompiledProgram* program_;
  const SolverPlan& plan_;
  const datalog::Engine* engine_;
  Model* model_;
  std::vector<VarRow> var_rows_;
  // Registered expressions; Value::Sym(i) refers to exprs_[i].
  std::vector<LinExpr> exprs_;
  // STDEV surrogate index -> the aggregate's input expressions.
  std::map<int32_t, std::vector<LinExpr>> stdev_inputs_;
  // By plan table id: the bridge-local rows (once a var declaration or a
  // derivation created them) and the engine table's view (once read).
  std::vector<std::vector<Row>> local_;
  std::vector<char> has_local_;
  std::vector<datalog::RowsView> snapshots_;
  std::vector<char> has_snapshot_;
  // By plan join-index id.
  std::vector<JoinIndex> indexes_;

  // The rule being evaluated.
  const RuleIR* rule_ = nullptr;
  const PlanRule* plan_rule_ = nullptr;
  bool constraint_ = false;
  std::vector<Value> slots_;
  std::vector<Row> keys_;  // probe key per depth
  std::vector<size_t> clashes_;  // Match: symbolic clash columns
  std::vector<Row> emitted_;
  // Aggregate emissions: `width` group-by values each, and the inputs.
  std::vector<Value> agg_keys_;
  std::vector<Value> agg_vals_;
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
    const Model& model, const std::vector<PlanEval::VarRow>& var_rows,
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
    for (const PlanEval::VarRow& vr : var_rows) {
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

// A warm-start cache entry unseen for this many solves is evicted.
constexpr uint64_t kWarmCacheMaxIdleSolves = 256;

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
    const Model& model,
    const std::vector<std::unique_ptr<solver::Propagator>>& propagators,
    const std::vector<PlanEval::VarRow>& var_rows) {
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

  for (const PlanEval::VarRow& vr : var_rows) {
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
  std::string text;           // one propagator's rendering, reused
  for (const auto& p : propagators) {
    uint64_t h = kFnvOffset;
    text.clear();
    p->AppendDebugString(&text);
    FnvMixStr(&h, text);
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

Result<SolveOutput> SolverBridge::Solve(const SolveOptions& options,
                                        WarmStartCache* warm_cache,
                                        IncrementalState* incr) const {
  SolveOutput out;
  out.backend = options.backend;
  out.seed = options.seed;
  solver::TemplateCache one_shot;
  solver::TemplateCache& templates =
      templates_ != nullptr ? *templates_ : one_shot;
  Model& model = templates.RecordModel();
  const bool incremental = incr != nullptr;

  // ---- Build the constraint network: one pass over the solver rules -------
  // The plan reads engine tables by id: the catalogs must be one id space.
  const colog::SolverPlan& plan = program_->solver_plan;
  bool same_catalog = engine_->num_tables() == plan.tables.size();
  for (size_t t = 0; same_catalog && t < plan.tables.size(); ++t) {
    same_catalog =
        engine_->table_name(static_cast<datalog::TableId>(t)) == plan.tables[t];
  }
  if (!same_catalog) {
    return Status::SolverError("engine tables do not match the program's");
  }
  PlanEval eval(program_, engine_, &model);
  std::vector<PostedConstraint> posted;
  if (options.record_provenance) eval.RecordConstraintsTo(&posted);
  COLOGNE_RETURN_IF_ERROR(eval.InstantiateVars());

  for (size_t r = 0; r < program_->solver_rules.size(); ++r) {
    COLOGNE_RETURN_IF_ERROR(eval.EvalRule(r));
  }

  bool optimizing = program_->goal.present && !program_->goal.table.empty();
  if (optimizing) {
    COLOGNE_ASSIGN_OR_RETURN(goal_val, eval.GoalValue());
    COLOGNE_ASSIGN_OR_RETURN(goal_expr, eval.TakeExpr(std::move(goal_val)));
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
    for (const PlanEval::VarRow& vr : eval.var_rows()) {
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
  // The recorded model is complete: reuse (or build) its shape's
  // propagators and engine layout, rebound to this solve's constants.
  const solver::ModelTemplate& tmpl = templates.Bind(model, &out.template_hit);

  // ---- Search -------------------------------------------------------
  Model::Options sopts;
  sopts.time_limit_ms = options.time_limit_ms;
  sopts.node_limit = options.node_limit;
  sopts.backend = options.backend;
  sopts.seed = options.seed;
  sopts.max_iterations = options.max_iterations;
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
    for (const PlanEval::VarRow& vr : eval.var_rows()) {
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
    for (const PlanEval::VarRow& vr : eval.var_rows()) {
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
  // previous solve. When every group is clean (none changed, none vanished)
  // the model is unchanged and the warm incumbent is its solution. Anything
  // else solves cold: nothing to compare against (first solve, post-crash,
  // cache disabled), no warm incumbent, or any group dirty or vanished.
  std::map<std::string, uint64_t> fp_map;
  if (incremental) {
    const std::vector<uint64_t> fps =
        ComputeFingerprints(model, tmpl.propagators(), eval.var_rows());
    const size_t total = fps.size();
    auto key_of = [&](size_t gi) {
      return gi < group_keys.size() ? group_keys[gi] : std::string();
    };
    for (size_t gi = 0; gi < total; ++gi) fp_map[key_of(gi)] = fps[gi];

    const bool compare = !incr->fingerprints.empty() && out.warm_started;
    size_t dirty = total;
    if (compare) {
      dirty = 0;
      for (size_t gi = 0; gi < total; ++gi) {
        auto it = incr->fingerprints.find(key_of(gi));
        if (it == incr->fingerprints.end() || it->second != fps[gi]) ++dirty;
      }
    }
    // With no group dirty, a group vanished iff the previous map is larger.
    const bool vanished = incr->fingerprints.size() != fp_map.size();
    out.incr_dirty = static_cast<int>(dirty);
    out.incr_clean = static_cast<int>(total - dirty);
    out.incr_fallback = !compare || dirty > 0 || vanished;
    sopts.accept_warm_incumbent = !out.incr_fallback;
  }

  solver::Solution sol = model.Solve(tmpl, sopts);
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
    if (incremental) incr->fingerprints = std::move(fp_map);
    ++warm_cache->generation;
    for (const PlanEval::VarRow& vr : eval.var_rows()) {
      std::vector<int64_t> vals;
      vals.reserve(vr.vars.size());
      for (IntVar v : vr.vars) vals.push_back(sol.ValueOf(v));
      warm_cache->rows[*vr.table][vr.key] = {std::move(vals),
                                             warm_cache->generation};
    }
    // Evict keys that have not appeared for kWarmCacheMaxIdleSolves
    // solves; drop emptied tables so empty() stays meaningful.
    for (auto& [table, entries] : warm_cache->rows) {
      std::erase_if(entries, [&](const auto& kv) {
        return warm_cache->generation - kv.second.last_used >
               kWarmCacheMaxIdleSolves;
      });
    }
    std::erase_if(warm_cache->rows,
                  [](const auto& kv) { return kv.second.empty(); });
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
  out.tables = eval.TakeTables();
  return out;
}

}  // namespace cologne::runtime
