// Materialized tables with counting-based incremental view maintenance
// support, lazy hash indexes, and NDlog-style primary-key replacement.
#ifndef COLOGNE_DATALOG_TABLE_H_
#define COLOGNE_DATALOG_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace cologne::datalog {

/// Dense id of a table in an Engine's catalog: tables are numbered in
/// declaration order.
using TableId = int32_t;

/// Dense id of a row's storage slot inside one Table. A slot is reused once
/// its row is no longer tracked.
using RowId = int32_t;

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

/// \brief A read-only sequence of a Table's rows, in a fixed order, read in
/// place (no row is copied).
///
/// A view is valid until the next mutation of its table (Apply() or
/// EraseAll()). A caller that mutates the table while iterating copies the
/// rows first (Table::Rows()).
class RowsView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = const Row*;
    using reference = const Row&;

    iterator() = default;
    const Row& operator*() const { return rows_[*id_]; }
    const Row* operator->() const { return &rows_[*id_]; }
    iterator& operator++() {
      ++id_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++id_;
      return old;
    }
    bool operator==(const iterator& o) const { return id_ == o.id_; }
    bool operator!=(const iterator& o) const { return id_ != o.id_; }

   private:
    friend class RowsView;
    iterator(const Row* rows, const RowId* id) : rows_(rows), id_(id) {}
    const Row* rows_ = nullptr;
    const RowId* id_ = nullptr;
  };

  RowsView() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Row& operator[](size_t i) const { return rows_[ids_[i]]; }
  /// The slot of the i-th row (valid as Table::row()'s argument).
  RowId id(size_t i) const { return ids_[i]; }
  iterator begin() const { return {rows_, ids_}; }
  iterator end() const { return {rows_, ids_ + size_}; }

 private:
  friend class Table;
  RowsView(const Row* rows, const RowId* ids, size_t size)
      : rows_(rows), ids_(ids), size_(size) {}

  const Row* rows_ = nullptr;   // the table's slots
  const RowId* ids_ = nullptr;  // which slots, in view order
  size_t size_ = 0;
};

/// \brief A multiset of rows with visible-set semantics.
///
/// Rows carry derivation counts (counting IVM): a row is *visible* while its
/// count is positive; dependent rules fire only on visibility transitions.
///
/// Storage: each tracked row (count != 0) lives once, in a slot addressed
/// by its RowId. Its HashRow is computed once when it is looked up and kept
/// beside the id in the content map, which feeds both lookups and
/// ContentHash. The primary-key map, the visible order and every lazy index
/// hold RowIds, never row copies. The visible order is sorted on read: an
/// insert appends to an unsorted tail that the next ordered read folds in.
/// A new table allocates no row storage until its first row.
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
  int Apply(const Row& row, int sign) {
    return Apply(row, sign, [] {});
  }

  /// Apply() that first calls `before_vanish()` when the delta is about to
  /// make `row` invisible, while the table still holds it unchanged (the
  /// engine fires deletion rules there). `before_vanish` must not mutate the
  /// table. The row is looked up once.
  template <class Fn>
  int Apply(const Row& row, int sign, Fn&& before_vanish) {
    const uint64_t hash = HashRow(row);
    const int64_t pos = FindRow(hash, row);
    if (pos >= 0) {
      const int64_t count = counts_[static_cast<size_t>(content_.id_at(pos))];
      if (count > 0 && count + sign <= 0) before_vanish();
    }
    return ApplyAt(pos, hash, row, sign);
  }

  /// Current derivation count of `row` (0 if absent).
  int64_t CountOf(const Row& row) const;

  /// For keyed tables: the visible row that shares `row`'s primary key but
  /// differs from it, if any (the row an insert of `row` would displace).
  /// Valid until the next mutation.
  const Row* DisplacedBy(const Row& row) const;

  /// Remove `row` entirely (all derivation counts). Returns true if the row
  /// was visible.
  bool EraseAll(const Row& row);

  /// True if `row` is currently visible.
  bool Contains(const Row& row) const;

  /// Number of visible rows.
  size_t size() const { return order_.size(); }

  /// Order-independent hash of the visible row set, maintained in O(1) per
  /// visibility transition: equal hashes mean equal content regardless of
  /// the operation history that produced it (journal replay, network deltas,
  /// primary-key replacement all converge). The solver bridge compares these
  /// across solves to prove its inputs unchanged and reuse the previous
  /// model wholesale (SolveMode::kIncremental).
  uint64_t ContentHash() const { return content_hash_; }

  /// The visible rows in sorted order, read in place. Sorting happens here,
  /// on the first read after a mutation, not on every Apply(), so two
  /// threads must not read one table's View() at once.
  RowsView View() const;

  /// A copy of the visible rows, sorted: for callers that mutate the table
  /// while iterating.
  std::vector<Row> Rows() const;

  /// Rows whose values at `cols` equal `key` (in the same order), in the
  /// index's bucket order: the sorted order when the index was built, then
  /// the order rows became visible. With empty `cols` this is View(). Builds
  /// a hash index per distinct column set on first use. The view is
  /// invalidated by the next mutation (Apply() or EraseAll()).
  RowsView Probe(const std::vector<int>& cols, const Row& key);

  /// Visible row with the given primary-key values, if any (keyed tables).
  /// Valid until the next mutation.
  const Row* FindByKey(const Row& key) const;

  /// The row in slot `id` (from a RowsView of this table, before any
  /// mutation).
  const Row& row(RowId id) const { return rows_[static_cast<size_t>(id)]; }

 private:
  // Linear-probing hash map from a 64-bit hash to an int32 id, with the hash
  // kept in the cell; equality is decided by the caller. At most half full;
  // holds nothing until the first insert. Erasure shifts later cells back,
  // so there are no tombstones.
  class IdMap {
   public:
    // The position of the cell with hash `hash` whose id satisfies `eq`, or
    // -1.
    template <class Eq>
    int64_t Find(uint64_t hash, Eq&& eq) const {
      if (cells_.empty()) return -1;
      const size_t mask = cells_.size() - 1;
      for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const Cell& c = cells_[i];
        if (c.id < 0) return -1;
        if (c.hash == hash && eq(c.id)) return static_cast<int64_t>(i);
      }
    }
    int32_t id_at(int64_t pos) const {
      return cells_[static_cast<size_t>(pos)].id;
    }
    void set_id(int64_t pos, int32_t id) {
      cells_[static_cast<size_t>(pos)].id = id;
    }
    // Add a cell; the caller has checked that no equal entry exists.
    void Insert(uint64_t hash, int32_t id);
    void EraseAt(int64_t pos);

    struct Cell {
      uint64_t hash = 0;
      int32_t id = -1;  // -1 = empty
    };

   private:
    void Place(uint64_t hash, int32_t id);

    std::vector<Cell> cells_;  // power-of-two size
    size_t size_ = 0;
  };

 public:
  /// Bookkeeping bytes per visible row beyond the row itself (its Row
  /// header and cells): the derivation count, two content-map cells (the
  /// map is at most half full) and the row's entry in the visible order.
  static constexpr size_t kRowBookkeepingBytes =
      sizeof(int64_t) + 2 * sizeof(IdMap::Cell) + sizeof(RowId);

 private:
  // A lazy secondary index over one column set: projected key -> bucket of
  // visible rows.
  struct Index {
    std::vector<int> cols;
    IdMap map;                                // projection hash -> bucket
    std::vector<std::vector<RowId>> buckets;  // by bucket number
    std::vector<int32_t> free_buckets;        // emptied, reusable
  };

  int64_t FindRow(uint64_t hash, const Row& row) const;
  int ApplyAt(int64_t pos, uint64_t hash, const Row& row, int sign);
  RowId NewSlot(const Row& row);
  void Release(int64_t pos, RowId id);
  void Show(RowId id, uint64_t hash);
  void Hide(RowId id, uint64_t hash);
  int64_t FindKey(uint64_t hash, const Row& row) const;
  // A row of bucket `bucket` (buckets in the map are never empty).
  const Row& BucketRow(const Index& index, int32_t bucket) const;
  // The map position of the bucket of rows that agree with `row` on the
  // index's columns, or -1.
  int64_t FindBucket(const Index& index, uint64_t hash, const Row& row) const;
  void IndexAdd(Index& index, RowId id);
  void SortOrder() const;

  TableSchema schema_;
  uint64_t content_hash_ = 0;  // XOR of mixed per-row hashes (visible set)
  std::vector<Row> rows_;         // by RowId; a free slot keeps its buffer
  std::vector<int64_t> counts_;   // by RowId; 0 = free slot
  std::vector<RowId> free_;       // free slots, reused last-in first-out
  IdMap content_;                 // HashRow -> tracked row
  IdMap by_key_;                  // key-column hash -> visible row (keyed)
  std::vector<Index> indexes_;
  // Visible rows: sorted up to `sorted_`, then in the order they appeared.
  mutable std::vector<RowId> order_;
  mutable size_t sorted_ = 0;
};

}  // namespace cologne::datalog

#endif  // COLOGNE_DATALOG_TABLE_H_
