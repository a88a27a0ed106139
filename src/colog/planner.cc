#include "colog/planner.h"

#include <algorithm>

#include "colog/knobs.h"
#include "colog/parser.h"
#include "common/strings.h"

namespace cologne::colog {

namespace {

using datalog::AssignIR;
using datalog::AtomIR;
using datalog::Expr;
using datalog::RuleIR;
using datalog::SelIR;
using datalog::TermIR;

// Location variable of an atom ("" if none).
std::string LocVarOf(const SrcAtom& atom) {
  int i = atom.LocArg();
  if (i < 0) return "";
  const SrcArg& arg = atom.args[static_cast<size_t>(i)];
  if (arg.is_aggregate() || !arg.expr.IsVar()) return "";
  return arg.expr.name;
}

class RuleLowerer {
 public:
  RuleLowerer(const SrcRule& rule, const std::map<std::string, Value>& params)
      : rule_(rule), params_(params) {}

  Result<RuleIR> Lower() {
    RuleIR ir;
    ir.label = rule_.label;

    // Body first so body-bound variables get slots before head use.
    for (const SrcBodyElem& e : rule_.body) {
      switch (e.kind) {
        case SrcBodyElem::Kind::kAtom: {
          COLOGNE_ASSIGN_OR_RETURN(atom, LowerBodyAtom(e.atom, &ir));
          ir.body.push_back(std::move(atom));
          break;
        }
        case SrcBodyElem::Kind::kCond: {
          COLOGNE_ASSIGN_OR_RETURN(ex, LowerExpr(e.expr));
          ir.sels.push_back(SelIR{std::move(ex)});
          break;
        }
        case SrcBodyElem::Kind::kAssign: {
          COLOGNE_ASSIGN_OR_RETURN(ex, LowerExpr(e.expr));
          ir.assigns.push_back(AssignIR{SlotOf(e.assign_var), std::move(ex)});
          break;
        }
      }
    }

    // Head.
    ir.head.table = rule_.head.pred;
    for (size_t i = 0; i < rule_.head.args.size(); ++i) {
      const SrcArg& arg = rule_.head.args[i];
      if (arg.is_aggregate()) {
        if (ir.agg) {
          return Status(Status::PlanError(
              "rule " + rule_.label + ": multiple aggregates in head"));
        }
        datalog::AggIR agg;
        agg.kind = arg.agg;
        agg.arg_index = static_cast<int>(i);
        agg.value_slot = SlotOf(arg.agg_var);
        ir.agg = agg;
        ir.head.args.push_back(TermIR::Slot(agg.value_slot));
        continue;
      }
      COLOGNE_ASSIGN_OR_RETURN(term, LowerHeadArg(arg.expr, &ir));
      ir.head.args.push_back(std::move(term));
    }

    // Trigger flags: suppress self-update atoms (same table, same location).
    std::string head_loc = LocVarOf(rule_.head);
    size_t ai = 0;
    for (const SrcBodyElem& e : rule_.body) {
      if (e.kind != SrcBodyElem::Kind::kAtom) continue;
      bool trig = true;
      if (e.atom.pred == rule_.head.pred && LocVarOf(e.atom) == head_loc) {
        trig = false;
      }
      ir.trigger.push_back(trig ? 1 : 0);
      ++ai;
    }
    (void)ai;
    ir.num_slots = next_slot_;
    return ir;
  }

 private:
  int SlotOf(const std::string& var) {
    auto it = slots_.find(var);
    if (it != slots_.end()) return it->second;
    int s = next_slot_++;
    slots_.emplace(var, s);
    return s;
  }

  Result<Expr> LowerExpr(const SrcExpr& e) {
    switch (e.kind) {
      case SrcExpr::Kind::kConst:
        return Expr::Const(e.const_val);
      case SrcExpr::Kind::kVar:
        return Expr::Slot(SlotOf(e.name));
      case SrcExpr::Kind::kParam: {
        auto it = params_.find(e.name);
        if (it == params_.end()) {
          return Status(Status::PlanError(
              "rule " + rule_.label + ": unknown parameter '" + e.name +
              "' (declare it with `param` or supply a value at compile time)"));
        }
        return Expr::Const(it->second);
      }
      case SrcExpr::Kind::kUnary: {
        COLOGNE_ASSIGN_OR_RETURN(a, LowerExpr(e.kids[0]));
        return Expr::Unary(e.op, std::move(a));
      }
      case SrcExpr::Kind::kBinary: {
        COLOGNE_ASSIGN_OR_RETURN(a, LowerExpr(e.kids[0]));
        COLOGNE_ASSIGN_OR_RETURN(b, LowerExpr(e.kids[1]));
        return Expr::Binary(e.op, std::move(a), std::move(b));
      }
    }
    return Status(Status::PlanError("bad expression"));
  }

  // Fold an expression with no slot references to a constant.
  static bool TryConstFold(const Expr& e, Value* out) {
    std::vector<int> slots;
    e.CollectSlots(&slots);
    if (!slots.empty()) return false;
    Result<Value> r = datalog::EvalExpr(e, {});
    if (!r.ok()) return false;
    *out = r.value();
    return true;
  }

  Result<AtomIR> LowerBodyAtom(const SrcAtom& atom, RuleIR* ir) {
    AtomIR out;
    out.table = atom.pred;
    for (const SrcArg& arg : atom.args) {
      if (arg.is_aggregate()) {
        return Status(Status::PlanError(
            "rule " + rule_.label + ": aggregate in body atom " + atom.pred));
      }
      if (arg.expr.IsVar()) {
        out.args.push_back(TermIR::Slot(SlotOf(arg.expr.name)));
        continue;
      }
      COLOGNE_ASSIGN_OR_RETURN(ex, LowerExpr(arg.expr));
      Value folded;
      if (TryConstFold(ex, &folded)) {
        out.args.push_back(TermIR::Const(std::move(folded)));
        continue;
      }
      // General expression argument: bind a hidden slot and test equality.
      int s = next_slot_++;
      out.args.push_back(TermIR::Slot(s));
      ir->sels.push_back(
          SelIR{Expr::Binary(datalog::ExprOp::kEq, Expr::Slot(s), std::move(ex))});
    }
    return out;
  }

  Result<TermIR> LowerHeadArg(const SrcExpr& e, RuleIR* ir) {
    if (e.IsVar()) return TermIR::Slot(SlotOf(e.name));
    COLOGNE_ASSIGN_OR_RETURN(ex, LowerExpr(e));
    Value folded;
    if (TryConstFold(ex, &folded)) return TermIR::Const(std::move(folded));
    // Computed head attribute: bind via a hidden assignment.
    int s = next_slot_++;
    ir->assigns.push_back(AssignIR{s, std::move(ex)});
    return TermIR::Slot(s);
  }

  const SrcRule& rule_;
  const std::map<std::string, Value>& params_;
  std::map<std::string, int> slots_;
  int next_slot_ = 0;
};

// Evaluate a domain bound expression to an integer constant.
Result<int64_t> EvalDomainBound(const SrcExpr& e,
                                const std::map<std::string, Value>& params) {
  SrcRule dummy;
  RuleLowerer lowerer(dummy, params);
  // Lower through a fresh lowerer so params resolve; variables are illegal.
  std::vector<std::string> vars;
  e.CollectVars(&vars);
  if (!vars.empty()) {
    return Status(
        Status::PlanError("domain bounds must be constants or parameters"));
  }
  // Re-lower via a local recursion (no slots involved).
  struct L {
    static Result<Expr> Go(const SrcExpr& e,
                           const std::map<std::string, Value>& params) {
      switch (e.kind) {
        case SrcExpr::Kind::kConst:
          return Expr::Const(e.const_val);
        case SrcExpr::Kind::kParam: {
          auto it = params.find(e.name);
          if (it == params.end()) {
            return Status(Status::PlanError("unknown parameter " + e.name));
          }
          return Expr::Const(it->second);
        }
        case SrcExpr::Kind::kUnary: {
          COLOGNE_ASSIGN_OR_RETURN(a, Go(e.kids[0], params));
          return Expr::Unary(e.op, std::move(a));
        }
        case SrcExpr::Kind::kBinary: {
          COLOGNE_ASSIGN_OR_RETURN(a, Go(e.kids[0], params));
          COLOGNE_ASSIGN_OR_RETURN(b, Go(e.kids[1], params));
          return Expr::Binary(e.op, std::move(a), std::move(b));
        }
        default:
          return Status(Status::PlanError("bad domain bound"));
      }
    }
  };
  COLOGNE_ASSIGN_OR_RETURN(ex, L::Go(e, params));
  COLOGNE_ASSIGN_OR_RETURN(v, datalog::EvalExpr(ex, {}));
  if (!v.is_int()) {
    return Status(Status::PlanError("domain bounds must be integers"));
  }
  return v.as_int();
}

}  // namespace

bool CompiledProgram::IsSolverCol(const std::string& table, int col) const {
  auto it = solver_cols.find(table);
  if (it == solver_cols.end()) return false;
  return std::find(it->second.begin(), it->second.end(), col) !=
         it->second.end();
}

Result<CompiledProgram> Plan(const AnalyzedProgram& analyzed) {
  CompiledProgram out;
  out.tables = analyzed.tables;
  // Reserved knobs configure the runtime, not the rules: they move out of
  // the rule-level parameter map and are validated against the knob table.
  for (const auto& [name, value] : analyzed.params) {
    if (FindKnob(name) != nullptr) {
      out.knobs[name] = value;
    } else if (StartsWith(name, "SOLVER_")) {
      return Status(Status::PlanError("unknown solver knob " + name));
    } else {
      out.params[name] = value;
    }
  }
  COLOGNE_RETURN_IF_ERROR(SetKnobs(out.knobs, nullptr, nullptr));
  out.distributed = analyzed.distributed;
  out.var_tables = analyzed.var_tables;
  for (const auto& [t, cols] : analyzed.solver_cols) {
    if (cols.empty()) continue;
    out.solver_cols[t] = std::vector<int>(cols.begin(), cols.end());
  }

  // ---- Lower rules ----------------------------------------------------------
  std::vector<SolverRuleIR> derivations, constraints;
  for (const AnalyzedRule& ar : analyzed.rules) {
    RuleLowerer lowerer(ar.rule, analyzed.params);
    COLOGNE_ASSIGN_OR_RETURN(ir, lowerer.Lower());
    switch (ar.cls) {
      case RuleClass::kRegular:
        out.counts.regular++;
        out.engine_rules.push_back(std::move(ir));
        break;
      case RuleClass::kPostSolve:
        out.counts.post_solve++;
        // Solver outputs drive post-solve rules as one-shot events: fire on
        // insertions only, so a retracted stale output cannot "un-apply" a
        // state update.
        ir.insert_only.assign(ir.body.size(), 1);
        out.engine_rules.push_back(std::move(ir));
        break;
      case RuleClass::kSolverDerivation:
        out.counts.solver_derivation++;
        derivations.push_back({std::move(ir), false, ar.rule.ToString()});
        break;
      case RuleClass::kSolverConstraint:
        out.counts.solver_constraint++;
        constraints.push_back({std::move(ir), true, ar.rule.ToString()});
        break;
    }
  }

  // ---- Topologically order solver derivations -------------------------------
  std::vector<SolverRuleIR> ordered;
  std::set<std::string> ready_tables;
  // Only tables produced by derivation rules gate the order; var tables and
  // engine-materialized tables (including shipped tmp tables) are ready.
  std::set<std::string> produced;
  for (const SolverRuleIR& d : derivations) produced.insert(d.ir.head.table);
  auto table_ready = [&](const std::string& t) {
    if (!produced.count(t)) return true;
    return ready_tables.count(t) > 0;
  };
  std::vector<bool> emitted(derivations.size(), false);
  size_t emitted_count = 0;
  while (emitted_count < derivations.size()) {
    bool progress = false;
    for (size_t i = 0; i < derivations.size(); ++i) {
      if (emitted[i]) continue;
      bool ready = true;
      for (const AtomIR& a : derivations[i].ir.body) {
        if (!table_ready(a.table)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      ready_tables.insert(derivations[i].ir.head.table);
      ordered.push_back(std::move(derivations[i]));
      emitted[i] = true;
      ++emitted_count;
      progress = true;
    }
    if (!progress) {
      std::string cycle;
      for (size_t i = 0; i < derivations.size(); ++i) {
        if (!emitted[i]) cycle += derivations[i].ir.label + " ";
      }
      return Status(Status::PlanError(
          "cyclic solver derivation rules (unsupported): " + cycle));
    }
  }
  out.solver_rules = std::move(ordered);
  for (SolverRuleIR& c : constraints) out.solver_rules.push_back(std::move(c));

  // A symbolic STDEV lives in the model only as its integer surrogate; the
  // bridge computes the true value for the solve's output, but a derivation
  // reading the cell would build on the surrogate. The goal may read it.
  std::set<std::string> stdev_tables;
  for (const SolverRuleIR& r : out.solver_rules) {
    if (!r.is_constraint && r.ir.agg &&
        r.ir.agg->kind == datalog::AggKind::kStdev &&
        out.IsSolverCol(r.ir.head.table, r.ir.agg->arg_index)) {
      stdev_tables.insert(r.ir.head.table);
    }
  }
  for (const SolverRuleIR& r : out.solver_rules) {
    if (r.is_constraint) continue;
    for (const AtomIR& a : r.ir.body) {
      if (stdev_tables.count(a.table)) {
        return Status(Status::PlanError(
            "rule " + r.ir.label + " reads " + a.table +
            ", a STDEV over solver attributes; only the goal may use it"));
      }
    }
  }

  // ---- Var declarations ------------------------------------------------------
  for (const VarDeclStmt& v : analyzed.var_decls) {
    VarDeclIR ir;
    ir.var_table = v.var_atom.pred;
    ir.forall_table = v.forall_atom.pred;
    std::map<std::string, int> forall_pos;
    for (size_t i = 0; i < v.forall_atom.args.size(); ++i) {
      const SrcArg& a = v.forall_atom.args[i];
      if (a.expr.IsVar()) forall_pos[a.expr.name] = static_cast<int>(i);
    }
    for (const SrcArg& a : v.var_atom.args) {
      auto it = forall_pos.find(a.expr.name);
      ir.from_forall_col.push_back(it == forall_pos.end() ? -1 : it->second);
    }
    if (v.dom_lo) {
      COLOGNE_ASSIGN_OR_RETURN(lo, EvalDomainBound(*v.dom_lo, analyzed.params));
      ir.dom_lo = lo;
    }
    if (v.dom_hi) {
      COLOGNE_ASSIGN_OR_RETURN(hi, EvalDomainBound(*v.dom_hi, analyzed.params));
      ir.dom_hi = hi;
    }
    if (ir.dom_lo > ir.dom_hi) {
      return Status(Status::PlanError("empty domain for var table " +
                                      ir.var_table));
    }
    // Auto-key var tables on their regular columns when no key is declared:
    // each re-solve then *replaces* the decision row for the same binding
    // instead of accumulating stale rows.
    auto tit = out.tables.find(ir.var_table);
    if (tit != out.tables.end() && tit->second.key_cols.empty()) {
      for (size_t i = 0; i < ir.from_forall_col.size(); ++i) {
        if (ir.from_forall_col[i] >= 0) {
          tit->second.key_cols.push_back(static_cast<int>(i));
        }
      }
    }
    out.var_decls.push_back(std::move(ir));
    out.counts.goal_and_var++;
  }

  // ---- Goal ------------------------------------------------------------------
  for (const GoalDecl& g : analyzed.goals) {
    out.goal.present = true;
    out.goal.type = g.type;
    out.counts.goal_and_var++;
    if (g.attr_var.empty()) continue;  // bare `goal satisfy.`
    out.goal.table = g.atom.pred;
    for (size_t i = 0; i < g.atom.args.size(); ++i) {
      const SrcArg& a = g.atom.args[i];
      if (!a.is_aggregate() && a.expr.IsVar() && a.expr.name == g.attr_var) {
        out.goal.col = static_cast<int>(i);
      }
    }
  }

  // ---- Output & base tables ---------------------------------------------------
  for (const std::string& v : out.var_tables) out.solver_output_tables.insert(v);
  for (const SolverRuleIR& r : out.solver_rules) {
    if (!r.is_constraint) out.solver_output_tables.insert(r.ir.head.table);
  }
  if (out.goal.present && !out.goal.table.empty()) {
    out.solver_output_tables.insert(out.goal.table);
  }
  std::set<std::string> derived;
  for (const datalog::RuleIR& r : out.engine_rules) derived.insert(r.head.table);
  for (const std::string& t : out.solver_output_tables) derived.insert(t);
  for (const auto& [name, schema] : out.tables) {
    if (!derived.count(name)) out.base_tables.insert(name);
  }
  out.solver_plan = BuildSolverPlan(out);
  // Engine rules carry the program-wide table ids, which every node's
  // engine shares (Engine::AddRule checks them against its catalog).
  for (datalog::RuleIR& rule : out.engine_rules) {
    rule.head.table_id = out.solver_plan.TableId(rule.head.table);
    for (datalog::AtomIR& atom : rule.body) {
      atom.table_id = out.solver_plan.TableId(atom.table);
    }
  }
  return out;
}

Result<CompiledProgram> CompileColog(const std::string& source,
                                     const std::map<std::string, Value>& params) {
  COLOGNE_ASSIGN_OR_RETURN(prog, Parse(source));
  COLOGNE_ASSIGN_OR_RETURN(analyzed, Analyze(prog, params));
  return Plan(analyzed);
}

}  // namespace cologne::colog
