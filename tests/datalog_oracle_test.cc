// Differential oracles for the Datalog layer.
//
// Engine: seeded random insert/delete streams over fixed rule shapes (a
// join, a self-join, selection with assignment, SUM/COUNT/MIN aggregates and
// a keyed table with replacement). After every step the incremental engine
// must hold exactly what a fresh engine computes from the surviving base
// facts, replayed in arrival order: same rows in the same order, same
// content hash, in every table.
//
// Table: random Apply/EraseAll sequences against a reference model built
// from std::map, checking row order, counts, keyed lookups, probe bucket
// order and the content hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "datalog/engine.h"
#include "datalog/table.h"

namespace cologne::datalog {
namespace {

TableSchema Schema(const std::string& name, int arity,
                   std::vector<int> keys = {}) {
  TableSchema s;
  s.name = name;
  for (int i = 0; i < arity; ++i) s.attrs.push_back("A" + std::to_string(i));
  s.key_cols = std::move(keys);
  return s;
}

AtomIR Atom(const std::string& table, std::vector<TermIR> args) {
  AtomIR a;
  a.table = table;
  a.args = std::move(args);
  return a;
}

TermIR S(int slot) { return TermIR::Slot(slot); }

// ---- Engine oracle ----------------------------------------------------------

// Base tables a(X,Y), b(X,Y) and kv(K,V) keyed on K; every other table is
// derived:
//   j(X,Z)      <- a(X,Y), b(Y,Z).                       join
//   sj(X,Z)     <- a(X,Y), a(Y,Z).                       self-join
//   sel(X,W)    <- b(X,Y), Y > 1, W := X + Y.            selection, assignment
//   total(G,S)  <- a(G,V), S = SUM<V>.
//   cnt(Y,C)    <- b(X,Y), C = COUNT<X>.
//   low(G,M)    <- b(G,V), M = MIN<V>.
//   best(G,M)   <- low(G,M).   keyed on G: replaced when low's minimum moves
//   kvj(K,V,Z)  <- kv(K,V), b(V,Z).                      join on a keyed table
constexpr const char* kBaseTables[] = {"a", "b", "kv"};

Status BuildProgram(Engine* e) {
  for (const TableSchema& s :
       {Schema("a", 2), Schema("b", 2), Schema("kv", 2, {0}), Schema("j", 2),
        Schema("sj", 2), Schema("sel", 2), Schema("total", 2),
        Schema("cnt", 2), Schema("low", 2), Schema("best", 2, {0}),
        Schema("kvj", 3)}) {
    COLOGNE_RETURN_IF_ERROR(e->DeclareTable(s));
  }
  std::vector<RuleIR> rules;
  {
    RuleIR r;
    r.label = "join";
    r.head = Atom("j", {S(0), S(2)});
    r.body = {Atom("a", {S(0), S(1)}), Atom("b", {S(1), S(2)})};
    r.trigger = {1, 1};
    r.num_slots = 3;
    rules.push_back(std::move(r));
  }
  {
    RuleIR r;
    r.label = "selfjoin";
    r.head = Atom("sj", {S(0), S(2)});
    r.body = {Atom("a", {S(0), S(1)}), Atom("a", {S(1), S(2)})};
    r.trigger = {1, 1};
    r.num_slots = 3;
    rules.push_back(std::move(r));
  }
  {
    RuleIR r;
    r.label = "select";
    r.head = Atom("sel", {S(0), S(2)});
    r.body = {Atom("b", {S(0), S(1)})};
    r.sels.push_back(SelIR{Expr::Binary(ExprOp::kGt, Expr::Slot(1),
                                        Expr::Const(Value::Int(1)))});
    r.assigns.push_back(AssignIR{
        2, Expr::Binary(ExprOp::kAdd, Expr::Slot(0), Expr::Slot(1))});
    r.trigger = {1};
    r.num_slots = 3;
    rules.push_back(std::move(r));
  }
  auto aggregate = [](const char* label, const char* head, const char* body,
                      AggKind kind, int group_slot, int value_slot) {
    RuleIR r;
    r.label = label;
    r.head = Atom(head, {S(group_slot), S(value_slot)});
    r.agg = AggIR{kind, 1, value_slot};
    r.body = {Atom(body, {S(0), S(1)})};
    r.trigger = {1};
    r.num_slots = 2;
    return r;
  };
  rules.push_back(aggregate("sum", "total", "a", AggKind::kSum, 0, 1));
  rules.push_back(aggregate("count", "cnt", "b", AggKind::kCount, 1, 0));
  rules.push_back(aggregate("min", "low", "b", AggKind::kMin, 0, 1));
  {
    RuleIR r;
    r.label = "best";
    r.head = Atom("best", {S(0), S(1)});
    r.body = {Atom("low", {S(0), S(1)})};
    r.trigger = {1};
    r.num_slots = 2;
    rules.push_back(std::move(r));
  }
  {
    RuleIR r;
    r.label = "kvjoin";
    r.head = Atom("kvj", {S(0), S(1), S(2)});
    r.body = {Atom("kv", {S(0), S(1)}), Atom("b", {S(1), S(2)})};
    r.trigger = {1, 1};
    r.num_slots = 3;
    rules.push_back(std::move(r));
  }
  for (RuleIR& r : rules) COLOGNE_RETURN_IF_ERROR(e->AddRule(std::move(r)));
  return Status::OK();
}

struct BaseFact {
  std::string table;
  Row row;
};

// Every table's rows and content hash, in name order.
std::string Dump(const Engine& e) {
  std::string out;
  for (const char* name : {"a", "b", "best", "cnt", "j", "kv", "kvj", "low",
                           "sel", "sj", "total"}) {
    const Table* t = e.GetTable(name);
    out += std::string(name) + " #" + std::to_string(t->ContentHash()) + ":";
    for (const Row& row : t->Rows()) out += " " + RowToString(row);
    out += "\n";
  }
  return out;
}

void RunEngineOracle(uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  Engine inc;
  ASSERT_TRUE(BuildProgram(&inc).ok());
  // Surviving base facts in arrival order, one entry per derivation. A keyed
  // insert drops every surviving fact it displaces, as the engine does.
  std::vector<BaseFact> alive;
  for (int step = 0; step < steps; ++step) {
    const bool insert = alive.empty() || pick(3) != 0;
    if (insert) {
      BaseFact f{kBaseTables[pick(3)],
                 {Value::Int(pick(4)), Value::Int(pick(4))}};
      if (f.table == "kv") {
        alive.erase(std::remove_if(alive.begin(), alive.end(),
                                   [&](const BaseFact& g) {
                                     return g.table == "kv" &&
                                            g.row[0] == f.row[0] &&
                                            g.row != f.row;
                                   }),
                    alive.end());
      }
      ASSERT_TRUE(inc.InsertFact(f.table, f.row).ok());
      alive.push_back(std::move(f));
    } else {
      const auto victim =
          static_cast<size_t>(pick(static_cast<int>(alive.size())));
      ASSERT_TRUE(
          inc.DeleteFact(alive[victim].table, alive[victim].row).ok());
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    Engine fresh;
    ASSERT_TRUE(BuildProgram(&fresh).ok());
    for (const BaseFact& f : alive) {
      ASSERT_TRUE(fresh.InsertFact(f.table, f.row).ok());
    }
    ASSERT_EQ(Dump(inc), Dump(fresh))
        << "seed " << seed << ", step " << step << " ("
        << (insert ? "insert" : "delete") << ")";
  }
}

TEST(DatalogOracleTest, IncrementalMatchesFreshReplay) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunEngineOracle(seed, 150);
    if (HasFatalFailure()) return;
  }
}

// ---- Table property test ----------------------------------------------------

// The reference: derivation counts in a std::map, the primary-key map and
// each probed index rebuilt from the same rules Table documents (buckets
// start in sorted order when first probed and grow in visibility order).
class RefTable {
 public:
  explicit RefTable(TableSchema schema) : schema_(std::move(schema)) {}

  int Apply(const Row& row, int sign) {
    int64_t& c = counts_[row];
    const int64_t before = c;
    c += sign;
    const int64_t after = c;
    if (after == 0) counts_.erase(row);
    if (before <= 0 && after > 0) {
      Show(row);
      return +1;
    }
    if (before > 0 && after <= 0) {
      Hide(row);
      return -1;
    }
    return 0;
  }

  bool EraseAll(const Row& row) {
    auto it = counts_.find(row);
    if (it == counts_.end()) return false;
    const bool visible = it->second > 0;
    counts_.erase(it);
    if (visible) Hide(row);
    return visible;
  }

  int64_t CountOf(const Row& row) const {
    auto it = counts_.find(row);
    return it == counts_.end() ? 0 : it->second;
  }

  std::vector<Row> Rows() const {
    std::vector<Row> out;
    for (const auto& [row, c] : counts_) {
      if (c > 0) out.push_back(row);
    }
    return out;
  }

  const Row* FindByKey(const Row& key) const {
    auto it = by_key_.find(key);
    return it == by_key_.end() ? nullptr : &it->second;
  }

  const Row* DisplacedBy(const Row& row) const {
    if (!schema_.keyed()) return nullptr;
    const Row* r = FindByKey(Project(row, schema_.key_cols));
    return r == nullptr || *r == row ? nullptr : r;
  }

  std::vector<Row> Probe(const std::vector<int>& cols, const Row& key) {
    if (cols.empty()) return Rows();
    auto it = indexes_.find(cols);
    if (it == indexes_.end()) {
      it = indexes_.emplace(cols, Index{}).first;
      for (const Row& row : Rows()) {
        it->second[Project(row, cols)].push_back(row);
      }
    }
    auto b = it->second.find(key);
    return b == it->second.end() ? std::vector<Row>{} : b->second;
  }

  static Row Project(const Row& row, const std::vector<int>& cols) {
    Row out;
    for (int c : cols) out.push_back(row[static_cast<size_t>(c)]);
    return out;
  }

 private:
  using Index = std::map<Row, std::vector<Row>>;

  void Show(const Row& row) {
    if (schema_.keyed()) by_key_[Project(row, schema_.key_cols)] = row;
    for (auto& [cols, index] : indexes_) {
      index[Project(row, cols)].push_back(row);
    }
  }

  void Hide(const Row& row) {
    if (schema_.keyed()) {
      auto it = by_key_.find(Project(row, schema_.key_cols));
      if (it != by_key_.end() && it->second == row) by_key_.erase(it);
    }
    for (auto& [cols, index] : indexes_) {
      auto it = index.find(Project(row, cols));
      if (it == index.end()) continue;
      std::vector<Row>& rows = it->second;
      rows.erase(std::remove(rows.begin(), rows.end(), row), rows.end());
      if (rows.empty()) index.erase(it);
    }
  }

  TableSchema schema_;
  std::map<Row, int64_t> counts_;
  std::map<Row, Row> by_key_;
  std::map<std::vector<int>, Index> indexes_;
};

// Cells from a small mixed-type pool, so rows collide often and sort across
// types (ints, doubles with both zeros, strings, nodes).
Value RandomCell(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return Value::Double(rng() % 2 ? 0.0 : -0.0);
    case 1: return Value::Double(1.5);
    case 2: return Value::Str(rng() % 2 ? "x" : "y");
    case 3: return Value::Node(static_cast<NodeId>(rng() % 2));
    default: return Value::Int(static_cast<int64_t>(rng() % 3));
  }
}

template <class Rows>
std::vector<Row> Copy(const Rows& rows) {
  std::vector<Row> out;
  for (const Row& r : rows) out.push_back(r);
  return out;
}

void RunTableProperty(uint64_t seed, std::vector<int> keys) {
  std::mt19937_64 rng(seed);
  const TableSchema schema = Schema("t", 3, keys);
  Table t(schema);
  RefTable ref(schema);
  const std::vector<std::vector<int>> probe_sets = {{0}, {1, 2}, {2}};
  auto random_row = [&] {
    return Row{RandomCell(rng), RandomCell(rng), RandomCell(rng)};
  };
  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", step " +
                 std::to_string(step));
    const Row row = random_row();
    const uint64_t op = rng() % 10;
    if (op < 5) {
      ASSERT_EQ(t.Apply(row, +1), ref.Apply(row, +1));
    } else if (op < 8) {
      ASSERT_EQ(t.Apply(row, -1), ref.Apply(row, -1));
    } else if (op < 9) {
      ASSERT_EQ(t.EraseAll(row), ref.EraseAll(row));
    } else if (const Row* visible = t.FindByKey(RefTable::Project(row, keys))) {
      // Keyed replacement as the engine drives it: erase the displaced row.
      const Row displaced = *visible;
      ASSERT_EQ(t.EraseAll(displaced), ref.EraseAll(displaced));
    }

    const std::vector<Row> want = ref.Rows();
    ASSERT_EQ(t.Rows(), want);
    ASSERT_EQ(t.size(), want.size());
    const Row other = random_row();
    for (const Row& r : {row, other}) {
      ASSERT_EQ(t.Contains(r), ref.CountOf(r) > 0);
      ASSERT_EQ(t.CountOf(r), ref.CountOf(r));
      const Row* got = t.DisplacedBy(r);
      const Row* exp = ref.DisplacedBy(r);
      ASSERT_EQ(got == nullptr, exp == nullptr);
      if (got != nullptr) {
        ASSERT_EQ(*got, *exp);
      }
      if (!keys.empty()) {
        const Row key = RefTable::Project(r, keys);
        got = t.FindByKey(key);
        exp = ref.FindByKey(key);
        ASSERT_EQ(got == nullptr, exp == nullptr);
        if (got != nullptr) {
          ASSERT_EQ(*got, *exp);
        }
      }
    }
    // Probe a random column set at a value some row has: bucket order is
    // part of the contract (the engine joins in that order).
    const std::vector<int>& cols = probe_sets[rng() % probe_sets.size()];
    const Row key = RefTable::Project(rng() % 2 ? row : other, cols);
    ASSERT_EQ(Copy(t.Probe(cols, key)), ref.Probe(cols, key));
    ASSERT_EQ(Copy(t.Probe({}, {})), want);
    // Content hash: equal to a table that holds the same rows from a
    // different history.
    Table rebuilt(schema);
    for (auto it = want.rbegin(); it != want.rend(); ++it) {
      rebuilt.Apply(*it, +1);
    }
    ASSERT_EQ(t.ContentHash(), rebuilt.ContentHash());
  }
}

TEST(TablePropertyTest, SetTableMatchesReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunTableProperty(seed, {});
    if (HasFatalFailure()) return;
  }
}

TEST(TablePropertyTest, KeyedTableMatchesReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunTableProperty(100 + seed, {0});
    if (HasFatalFailure()) return;
    RunTableProperty(200 + seed, {0, 1});
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cologne::datalog
