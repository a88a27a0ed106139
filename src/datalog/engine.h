// The per-node Datalog evaluation engine: pipelined semi-naive (PSN)
// processing with counting-based incremental view maintenance, aggregate
// operators, NDlog-style keyed replacement, and location-aware routing of
// derived tuples (the RapidNet role in the original Cologne).
#ifndef COLOGNE_DATALOG_ENGINE_H_
#define COLOGNE_DATALOG_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/rule.h"
#include "datalog/table.h"

namespace cologne::datalog {

/// Engine-level counters (exposed for tests and the overhead benchmarks).
struct EngineStats {
  uint64_t deltas_processed = 0;  ///< Visible tuple changes handled.
  uint64_t rule_firings = 0;      ///< Delta-rule evaluations.
  uint64_t tuples_sent = 0;       ///< Tuples routed to remote nodes.
};

/// \brief One node's rule processor.
///
/// Facts enter through Apply() (from the application or from the network);
/// Flush() drains the delta queue to a local fixpoint, firing rules
/// incrementally. Derived head tuples whose location specifier addresses a
/// different node are handed to the sender callback instead of being applied
/// locally.
///
/// Table names are resolved to dense TableIds at the string API edge
/// (Apply, GetTable, AddWatcher, AddRule); queued deltas, triggers,
/// watchers and rule atoms all work on ids. runtime::Instance declares a
/// program's tables in name order, so on every node the ids are the
/// sorted-name ids.
class Engine {
 public:
  /// `self` is this node's address; kCentralized (-1) disables routing.
  static constexpr NodeId kCentralized = -1;
  explicit Engine(NodeId self = kCentralized) : self_(self) {}

  NodeId self() const { return self_; }

  // --- Catalog -------------------------------------------------------------

  /// Declare a table; it gets the next TableId.
  Status DeclareTable(const TableSchema& schema);
  bool HasTable(const std::string& name) const { return FindTable(name) >= 0; }
  /// The id of table `name`, or -1 if undeclared.
  TableId FindTable(const std::string& name) const;
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  size_t num_tables() const { return tables_.size(); }
  /// The table with a valid id.
  const Table& table(TableId id) const {
    return *tables_[static_cast<size_t>(id)];
  }
  const std::string& table_name(TableId id) const { return table(id).name(); }

  // --- Rules ---------------------------------------------------------------

  /// Register a rule; all referenced tables must be declared.
  Status AddRule(RuleIR rule);
  size_t num_rules() const { return rules_.size(); }

  // --- Facts & evaluation ----------------------------------------------------

  /// Enqueue a tuple delta (+1 insert / -1 delete) for `table`. If the tuple
  /// addresses a remote node it is sent instead. Call Flush() to evaluate.
  Status Apply(const std::string& table, const Row& row, int sign);
  /// Apply() by table id (NotFound for an id outside the catalog).
  Status Apply(TableId table, const Row& row, int sign);

  /// Convenience: Apply(+1) then Flush().
  Status InsertFact(const std::string& table, const Row& row);
  /// Convenience: Apply(-1) then Flush().
  Status DeleteFact(const std::string& table, const Row& row);

  /// Drain the delta queue to fixpoint.
  Status Flush();

  // --- Hooks ---------------------------------------------------------------

  /// Sender for tuples addressed to other nodes.
  using SendFn = std::function<void(NodeId dest, TableId table,
                                    const Row& row, int sign)>;
  void SetSender(SendFn fn) { sender_ = std::move(fn); }

  /// Watcher invoked on every visibility change of `table` (after the change
  /// is applied, before dependent rules fire). NotFound if undeclared.
  using WatchFn = std::function<void(const Row& row, int sign)>;
  Status AddWatcher(const std::string& table, WatchFn fn);

  const EngineStats& stats() const { return stats_; }

  /// Approximate resident size of all tables (bytes), for the memory
  /// footprint numbers reported in the paper's Section 6: per visible row,
  /// `sizeof(Row) + arity * sizeof(Value) + Table::kRowBookkeepingBytes`
  /// (each row is stored once; see Table).
  size_t MemoryEstimate() const;

 private:
  struct PendingDelta {
    TableId table;
    Row row;
    int sign;
  };

  // Rule bookkeeping: for each table, the (rule, body atom) pairs that a
  // delta on that table must fire.
  struct TriggerRef {
    size_t rule_idx;
    size_t atom_idx;
  };

  // Per-rule aggregate operator state.
  struct AggState {
    std::map<Row, std::map<Value, int64_t>> groups;  // group key -> multiset
    std::map<Row, Row> last_out;                     // group key -> head row
  };

  void ProcessOne(const PendingDelta& d);
  void Notify(TableId table, const Row& row, int sign);
  void FireTriggers(TableId table, const Row& row, int sign);
  void FireRule(size_t rule_idx, size_t atom_idx, const Row& row, int sign);
  // Recursive nested-loop join over the body atoms other than
  // `trigger_atom`, in body order; `depth` counts the atoms joined so far.
  // Reads the bindings in slots_ and the guard flags in
  // join_scratch_[depth].applied.
  void JoinStep(size_t rule_idx, size_t trigger_atom, size_t depth, int sign);
  // Evaluate ready selections/assignments; false = a selection failed or a
  // runtime error occurred (recorded in first_error_).
  bool ApplyGuards(size_t rule_idx, std::vector<Value>& slots,
                   std::vector<char>& applied);
  void EmitHead(size_t rule_idx, const std::vector<Value>& slots, int sign);
  void EmitAggregate(size_t rule_idx, const Row& group, const Value& value,
                     int sign);
  // Route a fully-constructed head tuple: local queue or remote send.
  void Route(TableId table, Row row, int sign);
  bool MatchAtom(const AtomIR& atom, const Row& row, std::vector<Value>& slots,
                 std::vector<int>& newly_bound);
  // Where `name` is or would go in by_name_.
  using NameEntry = std::pair<std::string, TableId>;
  std::vector<NameEntry>::const_iterator ByName(const std::string& name) const;

  NodeId self_;
  std::vector<std::unique_ptr<Table>> tables_;  // by TableId
  // (name, id) ascending by name: a lookup compares names stored inline
  // here instead of chasing each table.
  std::vector<NameEntry> by_name_;
  std::vector<RuleIR> rules_;
  // Precomputed per rule: slots needed by each guard (selection/assignment).
  struct GuardInfo {
    bool is_assign;
    size_t index;              // into rule.sels or rule.assigns
    std::vector<int> deps;     // slots that must be bound first
  };
  std::vector<std::vector<GuardInfo>> guards_;
  std::vector<std::vector<TriggerRef>> triggers_;  // by TableId
  std::vector<std::pair<TableId, WatchFn>> watchers_;
  std::vector<std::unique_ptr<AggState>> agg_states_;
  // The firing rule's binding slots, and per join depth: the guards
  // already applied, the probe's bound columns and key, the candidates' row
  // ids and the slots a candidate bound. Reused across firings: a firing
  // never starts another.
  struct JoinScratch {
    std::vector<char> applied;
    std::vector<int> cols;
    Row key;
    std::vector<RowId> ids;
    std::vector<int> newly_bound;
  };
  std::vector<Value> slots_;
  std::vector<JoinScratch> join_scratch_;
  std::deque<PendingDelta> queue_;
  SendFn sender_;
  EngineStats stats_;
  Status first_error_;
};

}  // namespace cologne::datalog

#endif  // COLOGNE_DATALOG_ENGINE_H_
