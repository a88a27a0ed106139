#include "datalog/table.h"

#include <algorithm>
#include <bit>

namespace cologne::datalog {

namespace {
// splitmix64 finalizer: XOR-combining raw row hashes would let near-identical
// rows cancel; mixing first makes the combined hash behave like a random
// function of the row set.
uint64_t MixRowHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

// One cell folded into a key-map or index hash. Cheaper than Value::Hash and
// consistent with ==: both zeros hash alike, and equal strings share one
// interned entry, so its address stands for the content.
uint64_t HashStep(uint64_t h, const Value& v) {
  uint64_t bits = 0;
  switch (v.type()) {
    case ValueType::kNull: break;
    case ValueType::kInt: bits = static_cast<uint64_t>(v.as_int()); break;
    case ValueType::kDouble:
      bits = v.as_double() == 0.0 ? 0 : std::bit_cast<uint64_t>(v.as_double());
      break;
    case ValueType::kString:
      bits = reinterpret_cast<uintptr_t>(&v.as_string());
      break;
    case ValueType::kNode: bits = static_cast<uint64_t>(v.as_node()); break;
    case ValueType::kSym: bits = static_cast<uint64_t>(v.sym_index()); break;
  }
  return MixRowHash(h ^ bits ^ (static_cast<uint64_t>(v.type()) << 59));
}

// Hash of `key`'s cells; equals HashCols of any row whose cells at the
// matching columns equal `key`.
uint64_t HashKey(const Row& key) {
  uint64_t h = 0;
  for (const Value& v : key) h = HashStep(h, v);
  return h;
}

uint64_t HashCols(const Row& row, const std::vector<int>& cols) {
  uint64_t h = 0;
  for (int c : cols) h = HashStep(h, row[static_cast<size_t>(c)]);
  return h;
}

// `row`'s cells at `cols` equal `key`.
bool ColsEqual(const Row& row, const std::vector<int>& cols, const Row& key) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (!(row[static_cast<size_t>(cols[i])] == key[i])) return false;
  }
  return true;
}

// `a` and `b` agree at `cols`.
bool SameCols(const Row& a, const Row& b, const std::vector<int>& cols) {
  for (int c : cols) {
    if (!(a[static_cast<size_t>(c)] == b[static_cast<size_t>(c)])) {
      return false;
    }
  }
  return true;
}
}  // namespace

// ---- IdMap -----------------------------------------------------------------

void Table::IdMap::Insert(uint64_t hash, int32_t id) {
  if ((size_ + 1) * 2 > cells_.size()) {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(std::max<size_t>(8, old.size() * 2), Cell{});
    for (const Cell& c : old) {
      if (c.id >= 0) Place(c.hash, c.id);
    }
  }
  Place(hash, id);
  ++size_;
}

void Table::IdMap::Place(uint64_t hash, int32_t id) {
  const size_t mask = cells_.size() - 1;
  size_t i = hash & mask;
  while (cells_[i].id >= 0) i = (i + 1) & mask;
  cells_[i] = Cell{hash, id};
}

void Table::IdMap::EraseAt(int64_t pos) {
  // Backward-shift deletion: move later cells of the probe run into the hole
  // unless their home slot lies cyclically after it.
  const size_t mask = cells_.size() - 1;
  size_t hole = static_cast<size_t>(pos);
  for (size_t j = (hole + 1) & mask; cells_[j].id >= 0; j = (j + 1) & mask) {
    const size_t home = cells_[j].hash & mask;
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    cells_[hole] = cells_[j];
    hole = j;
  }
  cells_[hole] = Cell{};
  --size_;
}

// ---- Table -----------------------------------------------------------------

Table::Table(TableSchema schema) : schema_(std::move(schema)) {}

int64_t Table::FindRow(uint64_t hash, const Row& row) const {
  return content_.Find(hash, [&](RowId id) {
    return rows_[static_cast<size_t>(id)] == row;
  });
}

int64_t Table::FindKey(uint64_t hash, const Row& row) const {
  return by_key_.Find(hash, [&](RowId id) {
    return SameCols(rows_[static_cast<size_t>(id)], row, schema_.key_cols);
  });
}

RowId Table::NewSlot(const Row& row) {
  if (free_.empty()) {
    rows_.push_back(row);
    counts_.push_back(0);
    return static_cast<RowId>(rows_.size() - 1);
  }
  const RowId id = free_.back();
  free_.pop_back();
  rows_[static_cast<size_t>(id)].assign(row.begin(), row.end());
  return id;
}

void Table::Release(int64_t pos, RowId id) {
  content_.EraseAt(pos);
  counts_[static_cast<size_t>(id)] = 0;
  free_.push_back(id);
}

int Table::ApplyAt(int64_t pos, uint64_t hash, const Row& row, int sign) {
  if (pos < 0) {
    const RowId id = NewSlot(row);
    counts_[static_cast<size_t>(id)] = sign;
    content_.Insert(hash, id);
    if (sign > 0) {
      Show(id, hash);
      return +1;
    }
    return 0;
  }
  const RowId id = content_.id_at(pos);
  int64_t& count = counts_[static_cast<size_t>(id)];
  const int64_t before = count;
  count += sign;
  int change = 0;
  if (before <= 0 && count > 0) {
    Show(id, hash);
    change = +1;
  } else if (before > 0 && count <= 0) {
    Hide(id, hash);
    change = -1;
  }
  // Negative counts persist: with asynchronous distribution a deletion delta
  // can overtake the insertion it cancels, and the counts must still balance.
  if (count == 0) Release(pos, id);
  return change;
}

void Table::Show(RowId id, uint64_t hash) {
  const Row& row = rows_[static_cast<size_t>(id)];
  content_hash_ ^= MixRowHash(hash);
  order_.push_back(id);
  if (schema_.keyed()) {
    const uint64_t key_hash = HashCols(row, schema_.key_cols);
    const int64_t pos = FindKey(key_hash, row);
    if (pos >= 0) {
      by_key_.set_id(pos, id);
    } else {
      by_key_.Insert(key_hash, id);
    }
  }
  for (Index& index : indexes_) IndexAdd(index, id);
}

void Table::Hide(RowId id, uint64_t hash) {
  const Row& row = rows_[static_cast<size_t>(id)];
  content_hash_ ^= MixRowHash(hash);
  auto it = std::find(order_.begin(), order_.end(), id);
  if (static_cast<size_t>(it - order_.begin()) < sorted_) --sorted_;
  order_.erase(it);
  if (schema_.keyed()) {
    const int64_t pos = FindKey(HashCols(row, schema_.key_cols), row);
    if (pos >= 0 && by_key_.id_at(pos) == id) by_key_.EraseAt(pos);
  }
  for (Index& index : indexes_) {
    const int64_t pos = FindBucket(index, HashCols(row, index.cols), row);
    if (pos < 0) continue;
    const int32_t b = index.map.id_at(pos);
    std::vector<RowId>& bucket = index.buckets[static_cast<size_t>(b)];
    bucket.erase(std::find(bucket.begin(), bucket.end(), id));
    if (bucket.empty()) {
      index.map.EraseAt(pos);
      index.free_buckets.push_back(b);
    }
  }
}

const Row& Table::BucketRow(const Index& index, int32_t bucket) const {
  return rows_[static_cast<size_t>(
      index.buckets[static_cast<size_t>(bucket)].front())];
}

int64_t Table::FindBucket(const Index& index, uint64_t hash,
                          const Row& row) const {
  return index.map.Find(hash, [&](int32_t b) {
    return SameCols(BucketRow(index, b), row, index.cols);
  });
}

void Table::IndexAdd(Index& index, RowId id) {
  const Row& row = rows_[static_cast<size_t>(id)];
  const uint64_t hash = HashCols(row, index.cols);
  const int64_t pos = FindBucket(index, hash, row);
  if (pos >= 0) {
    index.buckets[static_cast<size_t>(index.map.id_at(pos))].push_back(id);
    return;
  }
  int32_t b;
  if (index.free_buckets.empty()) {
    b = static_cast<int32_t>(index.buckets.size());
    index.buckets.emplace_back();
  } else {
    b = index.free_buckets.back();
    index.free_buckets.pop_back();
  }
  index.buckets[static_cast<size_t>(b)].push_back(id);
  index.map.Insert(hash, b);
}

int64_t Table::CountOf(const Row& row) const {
  const int64_t pos = FindRow(HashRow(row), row);
  return pos < 0 ? 0 : counts_[static_cast<size_t>(content_.id_at(pos))];
}

bool Table::Contains(const Row& row) const { return CountOf(row) > 0; }

const Row* Table::DisplacedBy(const Row& row) const {
  if (!schema_.keyed()) return nullptr;
  const int64_t pos = FindKey(HashCols(row, schema_.key_cols), row);
  if (pos < 0) return nullptr;
  const Row& held = rows_[static_cast<size_t>(by_key_.id_at(pos))];
  return held == row ? nullptr : &held;
}

const Row* Table::FindByKey(const Row& key) const {
  if (!schema_.keyed() || key.size() != schema_.key_cols.size()) {
    return nullptr;
  }
  const int64_t pos = by_key_.Find(HashKey(key), [&](RowId id) {
    return ColsEqual(rows_[static_cast<size_t>(id)], schema_.key_cols, key);
  });
  return pos < 0 ? nullptr : &rows_[static_cast<size_t>(by_key_.id_at(pos))];
}

bool Table::EraseAll(const Row& row) {
  const uint64_t hash = HashRow(row);
  const int64_t pos = FindRow(hash, row);
  if (pos < 0) return false;
  const RowId id = content_.id_at(pos);
  // A negative-count row is tracked but was never visible: erasing it must
  // report false per the header contract.
  const bool was_visible = counts_[static_cast<size_t>(id)] > 0;
  if (was_visible) Hide(id, hash);
  Release(pos, id);
  return was_visible;
}

void Table::SortOrder() const {
  if (sorted_ == order_.size()) return;
  auto less = [this](RowId a, RowId b) {
    return rows_[static_cast<size_t>(a)] < rows_[static_cast<size_t>(b)];
  };
  if (order_.size() - sorted_ > 8) {
    std::sort(order_.begin(), order_.end(), less);
  } else {
    // A short tail: binary-insert each new row into the sorted prefix.
    for (size_t i = sorted_; i < order_.size(); ++i) {
      const auto end = order_.begin() + static_cast<std::ptrdiff_t>(i);
      const RowId id = *end;
      const auto at = std::upper_bound(order_.begin(), end, id, less);
      std::move_backward(at, end, end + 1);
      *at = id;
    }
  }
  sorted_ = order_.size();
}

RowsView Table::View() const {
  SortOrder();
  return RowsView(rows_.data(), order_.data(), order_.size());
}

std::vector<Row> Table::Rows() const {
  const RowsView view = View();
  return std::vector<Row>(view.begin(), view.end());
}

RowsView Table::Probe(const std::vector<int>& cols, const Row& key) {
  if (cols.empty()) return View();
  auto it = std::find_if(indexes_.begin(), indexes_.end(),
                         [&](const Index& ix) { return ix.cols == cols; });
  if (it == indexes_.end()) {
    // Build the index over the current visible rows, in sorted order.
    Index& index = indexes_.emplace_back();
    index.cols = cols;
    const RowsView rows = View();
    for (size_t i = 0; i < rows.size(); ++i) IndexAdd(index, rows.id(i));
    it = indexes_.end() - 1;
  }
  const Index& index = *it;
  const int64_t pos = index.map.Find(HashKey(key), [&](int32_t b) {
    return ColsEqual(BucketRow(index, b), cols, key);
  });
  if (pos < 0) return RowsView();
  const std::vector<RowId>& bucket =
      index.buckets[static_cast<size_t>(index.map.id_at(pos))];
  return RowsView(rows_.data(), bucket.data(), bucket.size());
}

}  // namespace cologne::datalog
