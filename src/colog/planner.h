// Execution-plan generation (paper Section 5): lowers analyzed Colog rules to
// the Datalog engine's RuleIR, and packages the solver-side rules, variable
// declarations and goal for the runtime's solver bridge.
#ifndef COLOGNE_COLOG_PLANNER_H_
#define COLOGNE_COLOG_PLANNER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "colog/analysis.h"
#include "colog/ast.h"
#include "colog/solver_plan.h"
#include "common/status.h"
#include "datalog/rule.h"
#include "datalog/table.h"

namespace cologne::colog {

/// A solver-side rule in executable form. Derivation rules run bottom-up at
/// invokeSolver time building the constraint network; constraint rules post
/// hard constraints over existing solver rows.
struct SolverRuleIR {
  datalog::RuleIR ir;
  bool is_constraint = false;
  std::string source;  ///< Original Colog text (diagnostics).
};

/// Executable form of `var T(...) forall F(...) domain [lo,hi]`.
struct VarDeclIR {
  std::string var_table;
  std::string forall_table;
  /// For each var-table column: the forall-table column supplying it, or -1
  /// for solver-variable columns.
  std::vector<int> from_forall_col;
  int64_t dom_lo = 0;
  int64_t dom_hi = 1;
};

/// Executable goal: optimize `col` of `table`.
struct GoalIR {
  bool present = false;
  GoalType type = GoalType::kSatisfy;
  std::string table;
  int col = -1;
};

/// Per-class rule counts (reported by the Table 2 benchmark).
struct RuleCounts {
  size_t regular = 0;
  size_t solver_derivation = 0;
  size_t solver_constraint = 0;
  size_t post_solve = 0;
  size_t goal_and_var = 0;
  size_t total() const {
    return regular + solver_derivation + solver_constraint + post_solve +
           goal_and_var;
  }
};

/// \brief A fully compiled Colog program, ready to instantiate on nodes.
struct CompiledProgram {
  std::map<std::string, datalog::TableSchema> tables;
  std::vector<datalog::RuleIR> engine_rules;    ///< regular + post-solve.
  std::vector<SolverRuleIR> solver_rules;       ///< derivations (topo-sorted),
                                                ///< then constraints.
  std::vector<VarDeclIR> var_decls;
  GoalIR goal;
  /// table -> sorted solver-attribute positions.
  std::map<std::string, std::vector<int>> solver_cols;
  std::set<std::string> var_tables;
  /// Tables written by the solver bridge after each solve (var tables,
  /// derived solver tables, goal table).
  std::set<std::string> solver_output_tables;
  /// Input tables: never derived by any rule or writeback.
  std::set<std::string> base_tables;
  std::map<std::string, Value> params;
  /// Reserved runtime knobs (colog/knobs.h) set by the program's `param`
  /// lines or the compile-time params, validated; apply them with SetKnobs.
  /// Knobs left unset keep the runtime defaults.
  std::map<std::string, Value> knobs;
  bool distributed = false;
  RuleCounts counts;
  /// How the solver bridge evaluates solver_rules (colog/solver_plan.h).
  SolverPlan solver_plan;

  bool IsSolverCol(const std::string& table, int col) const;
};

/// Lower an analyzed program into executable form.
Result<CompiledProgram> Plan(const AnalyzedProgram& analyzed);

/// One-stop compile: parse + analyze + plan.
Result<CompiledProgram> CompileColog(
    const std::string& source,
    const std::map<std::string, Value>& params = {});

}  // namespace cologne::colog

#endif  // COLOGNE_COLOG_PLANNER_H_
