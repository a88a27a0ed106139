// Executable rule IR produced by the Colog planner and evaluated by the
// Datalog engine via pipelined semi-naive (PSN) delta processing.
#ifndef COLOGNE_DATALOG_RULE_H_
#define COLOGNE_DATALOG_RULE_H_

#include <optional>
#include <string>
#include <vector>

#include "datalog/aggregates.h"
#include "datalog/expr.h"
#include "datalog/table.h"

namespace cologne::datalog {

/// An atom argument: either a constant or a binding-slot reference.
struct TermIR {
  bool is_const = false;
  Value const_val;
  int slot = -1;

  static TermIR Const(Value v) {
    TermIR t;
    t.is_const = true;
    t.const_val = std::move(v);
    return t;
  }
  static TermIR Slot(int s) {
    TermIR t;
    t.slot = s;
    return t;
  }
};

/// A predicate occurrence: table name plus argument terms.
struct AtomIR {
  std::string table;
  std::vector<TermIR> args;
  /// `table`'s id. The Colog planner stamps the program-wide id
  /// (colog::SolverPlan::tables); Engine::AddRule checks it against its
  /// catalog, or fills it in when unset, so evaluation never looks a table
  /// up by name.
  TableId table_id = -1;
};

/// Aggregate annotation on a rule head: head arg `arg_index` is
/// `kind<slot>`; the remaining head args are the group-by key.
struct AggIR {
  AggKind kind = AggKind::kNone;
  int arg_index = -1;  ///< Position of the aggregate in the head args.
  int value_slot = -1; ///< Slot holding the aggregated value.
};

/// A selection predicate (boolean expression over slots).
struct SelIR {
  Expr expr;
};

/// An assignment `slot := expr` (Colog's `:=` operator).
struct AssignIR {
  int slot = -1;
  Expr expr;
};

/// \brief One executable rule.
///
/// `trigger[i]` controls PSN firing: a delta on body atom i re-evaluates the
/// rule iff trigger[i] is true. The planner clears the flag on body atoms
/// matching the head table ("update rules" such as Follow-the-Sun r3, which
/// reads the current curVm snapshot but must not re-fire on its own output).
struct RuleIR {
  std::string label;
  AtomIR head;
  std::optional<AggIR> agg;
  std::vector<AtomIR> body;
  std::vector<SelIR> sels;
  std::vector<AssignIR> assigns;
  std::vector<char> trigger;  ///< Parallel to `body`.
  /// Parallel to `body`: when set, deltas with sign -1 do not fire this atom.
  /// Post-solve rules use this (NDlog event semantics): solver output rows
  /// act as one-shot events driving updates, so retracting a stale output
  /// must not "un-apply" a state update (e.g. Follow-the-Sun r3).
  std::vector<char> insert_only;
  int num_slots = 0;

  std::string DebugString() const {
    std::string out = label + ": " + head.table + "/" +
                      std::to_string(head.args.size()) + " <-";
    for (const AtomIR& a : body) {
      out += " " + a.table + "/" + std::to_string(a.args.size());
    }
    out += StrBits();
    return out;
  }

 private:
  std::string StrBits() const {
    std::string out;
    if (!sels.empty()) out += " [" + std::to_string(sels.size()) + " sels]";
    if (!assigns.empty()) {
      out += " [" + std::to_string(assigns.size()) + " assigns]";
    }
    if (agg) out += std::string(" [agg ") + AggKindName(agg->kind) + "]";
    return out;
  }
};

}  // namespace cologne::datalog

#endif  // COLOGNE_DATALOG_RULE_H_
