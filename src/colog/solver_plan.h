// Solver-rule plans (paper Section 5.3): everything about evaluating a
// program's solver rules that does not depend on facts, fixed once per
// compiled program. The runtime's solver bridge only binds rows along it.
//
// Whether a rule slot is bound at a given join depth is decided by the rule,
// not by the data: an atom binds its unbound slots, a selection or an
// assignment binds its target once the slots it reads are bound. The plan
// therefore replays, over boundness alone, the readiness loop that runs at
// each depth (selections in order, then assignments in order, repeated
// until nothing new becomes ready), and records the exact sequence of
// guard evaluations it performs. Evaluating that sequence posts variables
// and propagators in the order the loop would, so variable ids and
// propagator order are a function of the rules and the facts only.
//
// The one fact-dependent choice left is how an atom is joined: its bound
// columns are probed through a hash index, unless a probe key or an indexed
// cell is symbolic or a double, in which case the rows are scanned in the
// same order.
#ifndef COLOGNE_COLOG_SOLVER_PLAN_H_
#define COLOGNE_COLOG_SOLVER_PLAN_H_

#include <string>
#include <vector>

#include "common/value.h"

namespace cologne::colog {

struct CompiledProgram;

/// How one argument of an atom meets the cell of a row in its column.
struct PlanArg {
  enum class Kind : uint8_t {
    kBind,       ///< First occurrence of an unbound slot: take the cell.
    kTestSlot,   ///< A slot bound earlier: the cell must equal it.
    kTestConst,  ///< A constant: the cell must equal it.
  };
  Kind kind = Kind::kBind;
  int slot = -1;  ///< kBind, kTestSlot.
  Value value;    ///< kTestConst.
};

/// One atom joined at a fixed depth of a rule (or a constraint rule's head
/// pattern).
struct PlanAtom {
  int table = -1;  ///< SolverPlan::tables id.
  std::vector<PlanArg> args;  ///< One per column.
  /// Columns bound before the atom is matched (constants and bound slots),
  /// ascending. Empty for a head pattern, which is always scanned.
  std::vector<int> probe_cols;
  /// Join-index id over (table, probe_cols); -1 when nothing is bound.
  int index = -1;
};

/// One guard evaluation, at the depth where it first becomes ready.
struct PlanGuard {
  enum class Kind : uint8_t {
    kBind,         ///< `X == expr` with X unbound: X := expr.
    kBindReified,  ///< `(X == k) == cond` with X unbound: X := k * [cond].
    kFilter,       ///< A concrete filter, or a hard constraint if symbolic.
    kAssign,       ///< `X := expr` with X unbound.
    kCheckAssign,  ///< `X := expr` with X bound: the values must agree.
  };
  Kind kind = Kind::kFilter;
  /// RuleIR::sels index for kBind/kBindReified/kFilter, RuleIR::assigns
  /// index for kAssign/kCheckAssign.
  int index = -1;
  /// kBind/kBindReified: the side of the `==` holding X (or the `X == k`
  /// pattern); the other side is the expression evaluated.
  int side = 0;
  int slot = -1;  ///< The slot bound or checked (not kFilter).
  int64_t k = 0;  ///< kBindReified.
  /// Slots the evaluated expression reads, sorted and distinct; all bound
  /// when the guard runs. Any symbolic one sends it to the symbolic path.
  std::vector<int> deps;
};

/// The plan of one solver rule.
struct PlanRule {
  int head_table = -1;
  /// Constraint rules: the pattern every row of the head table is matched
  /// against before the body is joined.
  PlanAtom head;
  std::vector<PlanAtom> body;
  /// guards[d] runs before body[d] is joined; guards[body.size()] before the
  /// head is emitted.
  std::vector<std::vector<PlanGuard>> guards;
  /// Derivation rules: the join indexes over the head table, stale once the
  /// rule appends to it.
  std::vector<int> stale_indexes;
};

/// \brief The solver-rule plan of one compiled program.
struct SolverPlan {
  /// Every table of the program (CompiledProgram::tables), by dense id,
  /// ordered by name. runtime::Instance declares its engine's tables in the
  /// same order, so these are the engine's TableIds too, and the planner
  /// stamps them on the engine rules' atoms.
  std::vector<std::string> tables;
  /// Parallel to CompiledProgram::solver_rules.
  std::vector<PlanRule> rules;
  /// Parallel to CompiledProgram::var_decls: each declaration's var table
  /// and forall table.
  std::vector<int> var_tables;
  std::vector<int> forall_tables;
  int goal_table = -1;  ///< -1 without an optimization goal.
  int num_indexes = 0;
  /// Engine tables whose contents determine the model, ascending: every
  /// table a solver rule references (heads included, because in a
  /// distributed program a remote node's writeback can land deltas in a
  /// table this node also derives), the var and forall tables, and the goal
  /// table. Equal hashes of exactly these prove a model build would repeat.
  std::vector<int> input_tables;
  /// CompiledProgram::solver_output_tables, ascending.
  std::vector<int> output_tables;

  bool IsVarTable(int table) const;
  /// The id of table `name`, or -1 if the program has no such table.
  int TableId(const std::string& name) const;
};

/// Build the plan of `program`'s solver rules, var declarations and goal.
SolverPlan BuildSolverPlan(const CompiledProgram& program);

}  // namespace cologne::colog

#endif  // COLOGNE_COLOG_SOLVER_PLAN_H_
