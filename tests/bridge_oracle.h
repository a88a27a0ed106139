// An independent oracle for the solver bridge. From one solve's output it
// re-derives every solver table concretely: the var rows come from
// SolveOutput::tables (already substituted with the incumbent), every other
// table from the engine, and each solver rule runs as a plain nested-loop
// join whose selections and assignments are evaluated by
// datalog::EvalExpr once every atom is bound. It then checks that
//   1. the derived rows equal SolveOutput::tables, table by table and row by
//      row;
//   2. every constraint rule, and every selection over a solver attribute
//      in a derivation rule, holds on them;
//   3. SolveOutput::objective equals the goal row.
// It shares no code with the bridge's evaluator or the solver's
// propagators: a cell "comes from the solver" when it is a var-table solver
// cell or was computed from one, and a selection over such a cell is a
// requirement the solution must meet, where one over regular cells only
// filters.
#ifndef COLOGNE_TESTS_BRIDGE_ORACLE_H_
#define COLOGNE_TESTS_BRIDGE_ORACLE_H_

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "colog/planner.h"
#include "datalog/aggregates.h"
#include "datalog/engine.h"
#include "datalog/expr.h"
#include "runtime/solver_bridge.h"

namespace cologne::oracle {

class BridgeOracle {
 public:
  BridgeOracle(const colog::CompiledProgram& prog,
               const datalog::Engine& engine, const runtime::SolveOutput& out)
      : prog_(prog), engine_(engine), out_(out) {}

  /// Every problem found, one line each; empty when the solve checks out.
  std::vector<std::string> Check() {
    std::map<std::string, std::vector<const colog::VarDeclIR*>> decls;
    for (const colog::VarDeclIR& decl : prog_.var_decls) {
      decls[decl.var_table].push_back(&decl);
    }
    for (const auto& [name, ds] : decls) LoadVars(name, ds);
    for (const colog::SolverRuleIR& rule : prog_.solver_rules) {
      if (rule.is_constraint) {
        CheckConstraint(rule.ir);
      } else {
        Derive(rule.ir);
      }
    }
    CompareTables();
    CheckObjective();
    return problems_;
  }

 private:
  // Rows plus, per cell, whether it comes from the solver.
  struct Table {
    std::vector<Row> rows;
    std::vector<std::vector<char>> solver;
  };
  struct Binding {
    std::vector<Value> slots;
    std::vector<char> solver;
    std::vector<std::string> unmet;  // requirements this branch violates
  };

  void Problem(const std::string& what) { problems_.push_back(what); }

  static std::string RowString(const Row& row) {
    std::string s = "(";
    for (size_t i = 0; i < row.size(); ++i) {
      s += (i ? "," : "") + row[i].ToString();
    }
    return s + ")";
  }

  const Table& Read(const std::string& name) {
    auto it = derived_.find(name);
    if (it != derived_.end()) return it->second;
    auto [snap, fresh] = engine_tables_.try_emplace(name);
    if (fresh) {
      if (const datalog::Table* t = engine_.GetTable(name)) {
        snap->second.rows = t->Rows();
      }
      for (const Row& row : snap->second.rows) {
        snap->second.solver.emplace_back(row.size(), 0);
      }
    }
    return snap->second;
  }

  // The var rows as solved: one per distinct regular projection of each
  // declaration's forall rows, in forall order, every solver cell inside
  // its domain.
  void LoadVars(const std::string& name,
                const std::vector<const colog::VarDeclIR*>& decls) {
    auto it = out_.tables.find(name);
    if (it == out_.tables.end()) {
      Problem("no output rows for var table " + name);
      return;
    }
    std::vector<Row> keys;
    for (const colog::VarDeclIR* decl : decls) {
      std::set<Row> seen;
      const datalog::Table* forall = engine_.GetTable(decl->forall_table);
      if (forall == nullptr) continue;
      for (const Row& f : forall->Rows()) {
        Row key;
        for (int src : decl->from_forall_col) {
          if (src >= 0) key.push_back(f[static_cast<size_t>(src)]);
        }
        if (seen.insert(key).second) keys.push_back(key);
      }
    }
    const colog::VarDeclIR& decl = *decls.front();
    Table& t = derived_[name];
    std::vector<Row> got;
    for (const Row& row : it->second) {
      Row key;
      std::vector<char> solver;
      for (size_t c = 0; c < row.size(); ++c) {
        bool var = decl.from_forall_col[c] < 0;
        solver.push_back(var ? 1 : 0);
        if (!var) {
          key.push_back(row[c]);
        } else if (!row[c].is_int() || row[c].as_int() < decl.dom_lo ||
                   row[c].as_int() > decl.dom_hi) {
          Problem(name + RowString(row) + ": value outside [" +
                  std::to_string(decl.dom_lo) + "," +
                  std::to_string(decl.dom_hi) + "]");
        }
      }
      got.push_back(std::move(key));
      t.rows.push_back(row);
      t.solver.push_back(std::move(solver));
    }
    if (got != keys) {
      Problem("var table " + name + " does not hold one row per forall binding");
    }
  }

  // Match `atom` against a row: regular cells join, and a solver cell met
  // by a bound value must equal it (a requirement, not a filter).
  static bool MatchRow(const datalog::AtomIR& atom, const Row& row,
                       const std::vector<char>& solver, Binding* b) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const datalog::TermIR& term = atom.args[i];
      const Value& cell = row[i];
      const Value* want = nullptr;
      bool from_solver = solver[i] != 0;
      if (term.is_const) {
        want = &term.const_val;
      } else {
        auto s = static_cast<size_t>(term.slot);
        if (b->slots[s].is_null()) {
          b->slots[s] = cell;
          b->solver[s] = solver[i];
          continue;
        }
        want = &b->slots[s];
        from_solver |= b->solver[s] != 0;
      }
      if (*want == cell) continue;
      if (!from_solver) return false;
      b->unmet.push_back(atom.table + " column " + std::to_string(i) + ": " +
                         want->ToString() + " != " + cell.ToString());
    }
    return true;
  }

  static std::vector<int> Deps(const datalog::Expr& e) {
    std::vector<int> deps;
    e.CollectSlots(&deps);
    return deps;
  }

  static bool Bound(const std::vector<int>& deps, const Binding& b) {
    for (int d : deps) {
      if (b.slots[static_cast<size_t>(d)].is_null()) return false;
    }
    return true;
  }

  static bool FromSolver(const std::vector<int>& deps, const Binding& b) {
    for (int d : deps) {
      if (b.solver[static_cast<size_t>(d)]) return true;
    }
    return false;
  }

  static bool IsUnbound(const datalog::Expr& e, const Binding& b) {
    return e.op == datalog::ExprOp::kSlot &&
           b.slots[static_cast<size_t>(e.slot)].is_null();
  }

  // The binding forms `X == expr` and `(X == k) == cond` with X unbound;
  // false when `e` is not one of them or is not ready.
  static bool TryBind(const datalog::Expr& e, Binding* b) {
    using datalog::ExprOp;
    if (e.op != ExprOp::kEq) return false;
    for (size_t side = 0; side < 2; ++side) {
      const datalog::Expr& x = e.kids[side];
      const datalog::Expr& other = e.kids[1 - side];
      std::vector<int> deps = Deps(other);
      if (!Bound(deps, *b)) continue;
      Result<Value> v = datalog::EvalExpr(other, b->slots);
      if (!v.ok()) continue;
      if (IsUnbound(x, *b)) {
        b->slots[static_cast<size_t>(x.slot)] = v.value();
        b->solver[static_cast<size_t>(x.slot)] = FromSolver(deps, *b);
        return true;
      }
      if (x.op != ExprOp::kEq) continue;
      for (size_t k = 0; k < 2; ++k) {
        const datalog::Expr& c = x.kids[1 - k];
        if (!IsUnbound(x.kids[k], *b) || c.op != ExprOp::kConst ||
            !c.const_val.is_int()) {
          continue;
        }
        auto slot = static_cast<size_t>(x.kids[k].slot);
        b->slots[slot] = Value::Int(
            datalog::ValueIsTrue(v.value()) ? c.const_val.as_int() : 0);
        b->solver[slot] = FromSolver(deps, *b);
        return true;
      }
    }
    return false;
  }

  // Evaluate the selections and assignments of a fully joined binding until
  // none makes progress. False when a regular-cell selection filters the
  // binding out.
  bool Guards(const datalog::RuleIR& rule, Binding* b) {
    std::vector<char> done(rule.sels.size() + rule.assigns.size(), 0);
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t i = 0; i < rule.sels.size(); ++i) {
        if (done[i]) continue;
        const datalog::Expr& e = rule.sels[i].expr;
        if (!TryBind(e, b)) {
          std::vector<int> deps = Deps(e);
          if (!Bound(deps, *b)) continue;
          Result<Value> v = datalog::EvalExpr(e, b->slots);
          bool holds = v.ok() && datalog::ValueIsTrue(v.value());
          if (!holds && !FromSolver(deps, *b)) return false;
          if (!holds) b->unmet.push_back("selection " + std::to_string(i));
        }
        done[i] = 1;
        progress = true;
      }
      for (size_t i = 0; i < rule.assigns.size(); ++i) {
        size_t gi = rule.sels.size() + i;
        if (done[gi]) continue;
        const datalog::AssignIR& as = rule.assigns[i];
        std::vector<int> deps = Deps(as.expr);
        if (!Bound(deps, *b)) continue;
        Result<Value> v = datalog::EvalExpr(as.expr, b->slots);
        if (!v.ok()) return false;
        auto slot = static_cast<size_t>(as.slot);
        if (b->slots[slot].is_null()) {
          b->slots[slot] = v.value();
          b->solver[slot] = FromSolver(deps, *b);
        } else if (!(b->slots[slot] == v.value())) {
          return false;
        }
        done[gi] = 1;
        progress = true;
      }
    }
    return true;
  }

  // Every binding of rule.body[depth..] extending `b` that survives the
  // regular filters, in nested-loop order.
  void Join(const datalog::RuleIR& rule, size_t depth, const Binding& b,
            std::vector<Binding>* out) {
    if (depth == rule.body.size()) {
      Binding done = b;
      if (Guards(rule, &done)) out->push_back(std::move(done));
      return;
    }
    const datalog::AtomIR& atom = rule.body[depth];
    const Table& t = Read(atom.table);
    for (size_t r = 0; r < t.rows.size(); ++r) {
      Binding next = b;
      if (MatchRow(atom, t.rows[r], t.solver[r], &next)) {
        Join(rule, depth + 1, next, out);
      }
    }
  }

  Binding Empty(const datalog::RuleIR& rule) const {
    Binding b;
    b.slots.assign(static_cast<size_t>(rule.num_slots), Value());
    b.solver.assign(static_cast<size_t>(rule.num_slots), 0);
    return b;
  }

  void Report(const datalog::RuleIR& rule, const Binding& b) {
    for (const std::string& u : b.unmet) {
      Problem("rule " + rule.label + " violated: " + u);
    }
  }

  void Derive(const datalog::RuleIR& rule) {
    std::vector<Binding> bindings;
    Join(rule, 0, Empty(rule), &bindings);
    Table& head = derived_[rule.head.table];
    // Group-by key -> the aggregate's inputs, and whether any comes from
    // the solver.
    std::map<Row, std::pair<std::vector<Value>, bool>> groups;
    for (const Binding& b : bindings) {
      Report(rule, b);
      Row row;
      std::vector<char> solver;
      for (size_t i = 0; i < rule.head.args.size(); ++i) {
        if (rule.agg && static_cast<int>(i) == rule.agg->arg_index) continue;
        const datalog::TermIR& term = rule.head.args[i];
        auto s = static_cast<size_t>(term.slot);
        row.push_back(term.is_const ? term.const_val : b.slots[s]);
        solver.push_back(term.is_const ? 0 : b.solver[s]);
        if (row.back().is_null()) Problem("rule " + rule.label + ": unbound head");
      }
      if (rule.agg) {
        auto s = static_cast<size_t>(rule.agg->value_slot);
        auto& [vals, any_solver] = groups[row];
        vals.push_back(b.slots[s]);
        any_solver |= b.solver[s] != 0;
        continue;
      }
      head.rows.push_back(std::move(row));
      head.solver.push_back(std::move(solver));
    }
    for (const auto& [key, agg] : groups) {
      const auto pos = static_cast<std::ptrdiff_t>(rule.agg->arg_index);
      Row row = key;
      row.insert(row.begin() + pos,
                 datalog::ComputeAggregate(rule.agg->kind, agg.first));
      // COUNT counts rows, whatever their values.
      std::vector<char> solver(row.size(), 0);
      solver[static_cast<size_t>(pos)] =
          agg.second && rule.agg->kind != datalog::AggKind::kCount;
      head.rows.push_back(std::move(row));
      head.solver.push_back(std::move(solver));
    }
  }

  void CheckConstraint(const datalog::RuleIR& rule) {
    const Table& head = Read(rule.head.table);
    for (size_t r = 0; r < head.rows.size(); ++r) {
      Binding b = Empty(rule);
      if (!MatchRow(rule.head, head.rows[r], head.solver[r], &b)) continue;
      std::vector<Binding> bindings;
      Join(rule, 0, b, &bindings);
      for (const Binding& done : bindings) Report(rule, done);
    }
  }

  static bool SameValue(const Value& a, const Value& b) {
    if (a.is_double() && b.is_double()) {
      double x = a.as_double(), y = b.as_double();
      return std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(x));
    }
    return a == b;
  }

  void CompareTables() {
    for (const auto& [name, rows] : out_.tables) {
      auto it = derived_.find(name);
      if (it == derived_.end()) {
        Problem("output table " + name + " is not a solver table");
        continue;
      }
      const std::vector<Row>& want = it->second.rows;
      bool same = want.size() == rows.size();
      for (size_t r = 0; same && r < rows.size(); ++r) {
        same = want[r].size() == rows[r].size();
        for (size_t c = 0; same && c < rows[r].size(); ++c) {
          same = SameValue(want[r][c], rows[r][c]);
        }
      }
      if (!same) {
        std::string detail;
        for (const Row& row : rows) detail += " " + RowString(row);
        detail += " vs derived";
        for (const Row& row : want) detail += " " + RowString(row);
        Problem("table " + name + " differs:" + detail);
      }
    }
    for (const auto& [name, table] : derived_) {
      if (!out_.tables.count(name)) Problem("missing output table " + name);
    }
  }

  void CheckObjective() {
    const colog::GoalIR& goal = prog_.goal;
    if (!goal.present || goal.table.empty()) return;
    const Table& t = Read(goal.table);
    double want = 0;
    if (t.rows.size() > 1) Problem("goal table has several rows");
    if (!t.rows.empty()) {
      const Value& v = t.rows[0][static_cast<size_t>(goal.col)];
      if (!v.is_numeric()) {
        Problem("goal cell is not numeric: " + v.ToString());
        return;
      }
      want = v.as_double();
    }
    if (!out_.has_objective ||
        !SameValue(Value::Double(want), Value::Double(out_.objective))) {
      Problem("objective " + std::to_string(out_.objective) +
              " != goal row " + std::to_string(want));
    }
  }

  const colog::CompiledProgram& prog_;
  const datalog::Engine& engine_;
  const runtime::SolveOutput& out_;
  std::map<std::string, Table> derived_;
  std::map<std::string, Table> engine_tables_;
  std::vector<std::string> problems_;
};

}  // namespace cologne::oracle

#endif  // COLOGNE_TESTS_BRIDGE_ORACLE_H_
