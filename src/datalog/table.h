// Materialized tables with counting-based incremental view maintenance
// support, lazy hash indexes, and NDlog-style primary-key replacement.
#ifndef COLOGNE_DATALOG_TABLE_H_
#define COLOGNE_DATALOG_TABLE_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace cologne::datalog {

/// Dense id of a table in an Engine's catalog: tables are numbered in
/// declaration order.
using TableId = int32_t;

/// \brief Table metadata.
///
/// `key_cols` empty means all columns form the key (pure set semantics).
/// A non-trivial key gives NDlog's materialized-table semantics: inserting a
/// row whose key matches an existing row *replaces* it (the paper's
/// Follow-the-Sun rule r3 updates curVm this way).
struct TableSchema {
  std::string name;
  std::vector<std::string> attrs;  ///< Attribute names (display only).
  std::vector<int> key_cols;       ///< Primary key positions; empty = all.
  int loc_col = -1;                ///< Location-specifier column or -1.

  size_t arity() const { return attrs.size(); }
  bool keyed() const {
    return !key_cols.empty() && key_cols.size() < attrs.size();
  }
};

/// \brief A multiset of rows with visible-set semantics.
///
/// Rows carry derivation counts (counting IVM): a row is *visible* while its
/// count is positive; dependent rules fire only on visibility transitions.
class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }

  /// Apply a derivation-count delta (`sign` = +1 or -1). Returns the
  /// visibility change: +1 row appeared, -1 row disappeared, 0 none.
  ///
  /// This is a *raw* count update: primary-key replacement is orchestrated by
  /// the engine (via DisplacedBy + EraseAll) so that deletion deltas can fire
  /// dependent rules against the pre-removal state, which keeps counting IVM
  /// balanced for self-joins.
  int Apply(const Row& row, int sign);

  /// Current derivation count of `row` (0 if absent).
  int64_t CountOf(const Row& row) const;

  /// For keyed tables: the visible row that shares `row`'s primary key but
  /// differs from it, if any (the row an insert of `row` would displace).
  const Row* DisplacedBy(const Row& row) const;

  /// Remove `row` entirely (all derivation counts). Returns true if the row
  /// was visible.
  bool EraseAll(const Row& row);

  /// True if `row` is currently visible.
  bool Contains(const Row& row) const;

  /// Number of visible rows.
  size_t size() const { return visible_.size(); }

  /// Order-independent hash of the visible row set, maintained in O(1) per
  /// visibility transition: equal hashes mean equal content regardless of
  /// the operation history that produced it (journal replay, network deltas,
  /// primary-key replacement all converge). The solver bridge compares these
  /// across solves to prove its inputs unchanged and reuse the previous
  /// model wholesale (SOLVER_INCREMENTAL).
  uint64_t ContentHash() const { return content_hash_; }

  /// Snapshot of visible rows (sorted for deterministic iteration).
  std::vector<Row> Rows() const;

  /// Rows whose values at `cols` equal `key` (in the same order). With empty
  /// `cols` this returns all visible rows. Builds a hash index per distinct
  /// column set on first use. The returned reference is invalidated by the
  /// next mutation (Apply() or EraseAll()): copy the rows out before
  /// mutating (see datalog_table_test's ProbeReferenceInvalidatedByNextApply
  /// for the supported pattern).
  const std::vector<Row>& Probe(const std::vector<int>& cols, const Row& key);

  /// Visible row with the given primary-key values, if any (keyed tables).
  const Row* FindByKey(const Row& key) const;

 private:
  struct RowHasher {
    size_t operator()(const Row& r) const {
      return static_cast<size_t>(HashRow(r));
    }
  };

  Row KeyOf(const Row& row) const;
  void IndexAdd(const Row& row);
  void IndexRemove(const Row& row);

  TableSchema schema_;
  uint64_t content_hash_ = 0;  // XOR of mixed per-row hashes (visible set)
  std::unordered_map<Row, int64_t, RowHasher> counts_;  // derivation counts
  // Visible rows in deterministic order.
  std::map<Row, bool> visible_;
  // Keyed tables: key values -> the visible row.
  std::map<Row, Row> by_key_;
  // Lazy secondary indexes: column set -> (projected key -> rows).
  std::map<std::vector<int>,
           std::unordered_map<Row, std::vector<Row>, RowHasher>>
      indexes_;
  std::vector<Row> scan_buffer_;  // backing for Probe({}, ...)
  bool scan_dirty_ = true;
  static const std::vector<Row> kEmpty;
};

}  // namespace cologne::datalog

#endif  // COLOGNE_DATALOG_TABLE_H_
