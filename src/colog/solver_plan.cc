#include "colog/solver_plan.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "colog/planner.h"

namespace cologne::colog {

namespace {

using datalog::AtomIR;
using datalog::Expr;
using datalog::ExprOp;
using datalog::RuleIR;

std::vector<int> SlotsOf(const Expr& e) {
  std::vector<int> deps;
  e.CollectSlots(&deps);
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

bool AllBound(const std::vector<int>& deps, const std::vector<char>& bound) {
  for (int d : deps) {
    if (!bound[static_cast<size_t>(d)]) return false;
  }
  return true;
}

bool IsUnboundSlot(const Expr& e, const std::vector<char>& bound) {
  return e.op == ExprOp::kSlot && !bound[static_cast<size_t>(e.slot)];
}

// Slot dependencies of a selection: the whole expression and, for an
// equality, each side (the binding forms test one side's readiness).
struct SelDeps {
  std::vector<int> all;
  std::vector<int> side[2];
};

// The guard the selection `e` runs as under `bound`, or nullopt while it is
// not ready. The binding forms of Section 5.3 come first:
//   X == expr                (X unbound)    bind X to the expression
//   (X == k) == boolexpr     (X unbound)    bind X := k * [boolexpr]
//   boolexpr == (X == k)     symmetric
// and anything else is a filter once all its slots are bound. A form that
// matches but whose expression still reads an unbound slot waits, without
// trying the later forms.
std::optional<PlanGuard> ClassifySelection(const Expr& e, const SelDeps& deps,
                                           const std::vector<char>& bound) {
  PlanGuard g;
  if (e.op == ExprOp::kEq) {
    for (int side = 0; side < 2; ++side) {
      const Expr& a = e.kids[static_cast<size_t>(side)];
      if (!IsUnboundSlot(a, bound)) continue;
      const std::vector<int>& other = deps.side[1 - side];
      if (!AllBound(other, bound)) return std::nullopt;
      g.kind = PlanGuard::Kind::kBind;
      g.side = side;
      g.slot = a.slot;
      g.deps = other;
      return g;
    }
    for (int side = 0; side < 2; ++side) {
      const Expr& pat = e.kids[static_cast<size_t>(side)];
      if (pat.op != ExprOp::kEq) continue;
      const Expr* slot_kid = nullptr;
      const Expr* const_kid = nullptr;
      for (size_t k = 0; k < 2; ++k) {
        if (IsUnboundSlot(pat.kids[k], bound)) {
          slot_kid = &pat.kids[k];
          const_kid = &pat.kids[1 - k];
        }
      }
      if (slot_kid == nullptr) continue;
      if (const_kid->op != ExprOp::kConst || !const_kid->const_val.is_int()) {
        continue;
      }
      const std::vector<int>& other = deps.side[1 - side];
      if (!AllBound(other, bound)) return std::nullopt;
      g.kind = PlanGuard::Kind::kBindReified;
      g.side = side;
      g.slot = slot_kid->slot;
      g.k = const_kid->const_val.as_int();
      g.deps = other;
      return g;
    }
  }
  if (!AllBound(deps.all, bound)) return std::nullopt;
  g.kind = PlanGuard::Kind::kFilter;
  g.deps = deps.all;
  return g;
}

class Builder {
 public:
  explicit Builder(const CompiledProgram& program) : program_(program) {}

  SolverPlan Build() {
    CollectTables();
    for (const VarDeclIR& decl : program_.var_decls) {
      plan_.var_tables.push_back(TableId(decl.var_table));
      plan_.forall_tables.push_back(TableId(decl.forall_table));
    }
    for (const SolverRuleIR& srule : program_.solver_rules) {
      plan_.rules.push_back(PlanOne(srule));
    }
    for (size_t i = 0; i < plan_.rules.size(); ++i) {
      if (program_.solver_rules[i].is_constraint) continue;
      PlanRule& rule = plan_.rules[i];
      for (const auto& [key, id] : index_ids_) {
        if (key.first == rule.head_table) rule.stale_indexes.push_back(id);
      }
    }
    plan_.num_indexes = static_cast<int>(index_ids_.size());
    return std::move(plan_);
  }

 private:
  void CollectTables() {
    std::set<std::string> inputs;
    for (const SolverRuleIR& rule : program_.solver_rules) {
      inputs.insert(rule.ir.head.table);
      for (const AtomIR& atom : rule.ir.body) inputs.insert(atom.table);
    }
    for (const VarDeclIR& decl : program_.var_decls) {
      inputs.insert(decl.var_table);
      inputs.insert(decl.forall_table);
    }
    const GoalIR& goal = program_.goal;
    if (goal.present && !goal.table.empty()) inputs.insert(goal.table);
    for (const auto& [name, schema] : program_.tables) {
      plan_.tables.push_back(name);
    }
    for (const std::string& name : inputs) {
      plan_.input_tables.push_back(TableId(name));
    }
    for (const std::string& name : program_.solver_output_tables) {
      plan_.output_tables.push_back(TableId(name));
    }
    if (goal.present && !goal.table.empty()) {
      plan_.goal_table = TableId(goal.table);
    }
  }

  // Analysis declares every table a rule, goal or var declaration names.
  int TableId(const std::string& name) const { return plan_.TableId(name); }

  int IndexId(int table, const std::vector<int>& cols) {
    auto [it, fresh] = index_ids_.try_emplace(
        {table, cols}, static_cast<int>(index_ids_.size()));
    return it->second;
  }

  // Match `atom`, marking the slots it binds in `bound`. Only body atoms
  // probe: a head pattern scans every row of its table.
  PlanAtom PlanMatch(const AtomIR& atom, bool probe, std::vector<char>* bound) {
    PlanAtom out;
    out.table = TableId(atom.table);
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const datalog::TermIR& term = atom.args[i];
      if (term.is_const || (*bound)[static_cast<size_t>(term.slot)]) {
        out.probe_cols.push_back(static_cast<int>(i));
      }
    }
    for (const datalog::TermIR& term : atom.args) {
      PlanArg arg;
      if (term.is_const) {
        arg.kind = PlanArg::Kind::kTestConst;
        arg.value = term.const_val;
      } else {
        char& b = (*bound)[static_cast<size_t>(term.slot)];
        arg.kind = b ? PlanArg::Kind::kTestSlot : PlanArg::Kind::kBind;
        arg.slot = term.slot;
        b = 1;
      }
      out.args.push_back(std::move(arg));
    }
    if (!probe) {
      out.probe_cols.clear();
    } else if (!out.probe_cols.empty()) {
      out.index = IndexId(out.table, out.probe_cols);
    }
    return out;
  }

  // The guards that become ready at one depth, in the order the readiness
  // loop runs them: every pending selection, then every pending assignment,
  // repeated until a pass makes no progress.
  static std::vector<PlanGuard> PlanGuards(
      const RuleIR& rule, const std::vector<SelDeps>& sel_deps,
      const std::vector<std::vector<int>>& assign_deps,
      std::vector<char>* bound, std::vector<char>* done) {
    std::vector<PlanGuard> out;
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t i = 0; i < rule.sels.size(); ++i) {
        if ((*done)[i]) continue;
        std::optional<PlanGuard> g =
            ClassifySelection(rule.sels[i].expr, sel_deps[i], *bound);
        if (!g) continue;
        g->index = static_cast<int>(i);
        if (g->slot >= 0) (*bound)[static_cast<size_t>(g->slot)] = 1;
        (*done)[i] = 1;
        out.push_back(std::move(*g));
        progress = true;
      }
      for (size_t i = 0; i < rule.assigns.size(); ++i) {
        size_t gi = rule.sels.size() + i;
        if ((*done)[gi] || !AllBound(assign_deps[i], *bound)) continue;
        const datalog::AssignIR& as = rule.assigns[i];
        char& target = (*bound)[static_cast<size_t>(as.slot)];
        PlanGuard g;
        g.kind = target ? PlanGuard::Kind::kCheckAssign
                        : PlanGuard::Kind::kAssign;
        g.index = static_cast<int>(i);
        g.slot = as.slot;
        g.deps = assign_deps[i];
        target = 1;
        (*done)[gi] = 1;
        out.push_back(std::move(g));
        progress = true;
      }
    }
    return out;
  }

  PlanRule PlanOne(const SolverRuleIR& srule) {
    const RuleIR& rule = srule.ir;
    PlanRule out;
    out.head_table = TableId(rule.head.table);
    std::vector<SelDeps> sel_deps(rule.sels.size());
    for (size_t i = 0; i < rule.sels.size(); ++i) {
      const Expr& e = rule.sels[i].expr;
      sel_deps[i].all = SlotsOf(e);
      if (e.op == ExprOp::kEq) {
        sel_deps[i].side[0] = SlotsOf(e.kids[0]);
        sel_deps[i].side[1] = SlotsOf(e.kids[1]);
      }
    }
    std::vector<std::vector<int>> assign_deps;
    for (const datalog::AssignIR& as : rule.assigns) {
      assign_deps.push_back(SlotsOf(as.expr));
    }
    std::vector<char> bound(static_cast<size_t>(rule.num_slots), 0);
    std::vector<char> done(rule.sels.size() + rule.assigns.size(), 0);
    if (srule.is_constraint) {
      out.head = PlanMatch(rule.head, /*probe=*/false, &bound);
    }
    for (const AtomIR& atom : rule.body) {
      out.guards.push_back(
          PlanGuards(rule, sel_deps, assign_deps, &bound, &done));
      out.body.push_back(PlanMatch(atom, /*probe=*/true, &bound));
    }
    out.guards.push_back(
        PlanGuards(rule, sel_deps, assign_deps, &bound, &done));
    return out;
  }

  const CompiledProgram& program_;
  SolverPlan plan_;
  std::map<std::pair<int, std::vector<int>>, int> index_ids_;
};

}  // namespace

int SolverPlan::TableId(const std::string& name) const {
  auto it = std::lower_bound(tables.begin(), tables.end(), name);
  return it != tables.end() && *it == name
             ? static_cast<int>(it - tables.begin())
             : -1;
}

bool SolverPlan::IsVarTable(int table) const {
  return std::find(var_tables.begin(), var_tables.end(), table) !=
         var_tables.end();
}

SolverPlan BuildSolverPlan(const CompiledProgram& program) {
  return Builder(program).Build();
}

}  // namespace cologne::colog
