// Engine tests: incremental joins, aggregates, deletions, recursion,
// keyed replacement ("update rules"), and distributed routing between two
// engines.
#include "datalog/engine.h"

#include <gtest/gtest.h>

namespace cologne::datalog {
namespace {

Row R(std::initializer_list<int64_t> xs) {
  Row r;
  for (int64_t x : xs) r.push_back(Value::Int(x));
  return r;
}

TableSchema Schema(const std::string& name, int arity,
                   std::vector<int> keys = {}, int loc = -1) {
  TableSchema s;
  s.name = name;
  for (int i = 0; i < arity; ++i) s.attrs.push_back("A" + std::to_string(i));
  s.key_cols = std::move(keys);
  s.loc_col = loc;
  return s;
}

// h(X,Z) <- a(X,Y), b(Y,Z).
RuleIR JoinRule() {
  RuleIR r;
  r.label = "j";
  r.head = {"h", {TermIR::Slot(0), TermIR::Slot(2)}};
  r.body.push_back({"a", {TermIR::Slot(0), TermIR::Slot(1)}});
  r.body.push_back({"b", {TermIR::Slot(1), TermIR::Slot(2)}});
  r.trigger = {1, 1};
  r.num_slots = 3;
  return r;
}

class EngineJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(e_.DeclareTable(Schema("a", 2)).ok());
    ASSERT_TRUE(e_.DeclareTable(Schema("b", 2)).ok());
    ASSERT_TRUE(e_.DeclareTable(Schema("h", 2)).ok());
    ASSERT_TRUE(e_.AddRule(JoinRule()).ok());
  }
  Engine e_;
};

TEST_F(EngineJoinTest, JoinDerivesOnInsert) {
  ASSERT_TRUE(e_.InsertFact("a", R({1, 2})).ok());
  ASSERT_TRUE(e_.InsertFact("b", R({2, 3})).ok());
  EXPECT_TRUE(e_.GetTable("h")->Contains(R({1, 3})));
}

TEST_F(EngineJoinTest, JoinFiresFromEitherSide) {
  ASSERT_TRUE(e_.InsertFact("b", R({2, 3})).ok());
  ASSERT_TRUE(e_.InsertFact("a", R({1, 2})).ok());
  EXPECT_TRUE(e_.GetTable("h")->Contains(R({1, 3})));
}

TEST_F(EngineJoinTest, NoJoinOnMismatch) {
  ASSERT_TRUE(e_.InsertFact("a", R({1, 2})).ok());
  ASSERT_TRUE(e_.InsertFact("b", R({9, 3})).ok());
  EXPECT_EQ(e_.GetTable("h")->size(), 0u);
}

TEST_F(EngineJoinTest, DeletionRetractsDerivation) {
  ASSERT_TRUE(e_.InsertFact("a", R({1, 2})).ok());
  ASSERT_TRUE(e_.InsertFact("b", R({2, 3})).ok());
  ASSERT_TRUE(e_.DeleteFact("b", R({2, 3})).ok());
  EXPECT_FALSE(e_.GetTable("h")->Contains(R({1, 3})));
  EXPECT_EQ(e_.GetTable("h")->size(), 0u);
}

TEST_F(EngineJoinTest, MultipleDerivationsSurviveSingleRetraction) {
  // h(1,3) via y=2 and via y=4.
  ASSERT_TRUE(e_.InsertFact("a", R({1, 2})).ok());
  ASSERT_TRUE(e_.InsertFact("a", R({1, 4})).ok());
  ASSERT_TRUE(e_.InsertFact("b", R({2, 3})).ok());
  ASSERT_TRUE(e_.InsertFact("b", R({4, 3})).ok());
  ASSERT_TRUE(e_.DeleteFact("b", R({2, 3})).ok());
  EXPECT_TRUE(e_.GetTable("h")->Contains(R({1, 3})))
      << "second derivation path must keep the row alive";
  ASSERT_TRUE(e_.DeleteFact("b", R({4, 3})).ok());
  EXPECT_FALSE(e_.GetTable("h")->Contains(R({1, 3})));
}

TEST(EngineTest, SelfJoinInsertDeleteBalances) {
  // p(X,Z) <- e(X,Y), e(Y,Z): inserting then deleting the same fact must
  // leave derived state empty (the classic counting-IVM self-join trap).
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("e", 2)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("p", 2)).ok());
  RuleIR r;
  r.label = "sj";
  r.head = {"p", {TermIR::Slot(0), TermIR::Slot(2)}};
  r.body.push_back({"e", {TermIR::Slot(0), TermIR::Slot(1)}});
  r.body.push_back({"e", {TermIR::Slot(1), TermIR::Slot(2)}});
  r.trigger = {1, 1};
  r.num_slots = 3;
  ASSERT_TRUE(e.AddRule(std::move(r)).ok());

  ASSERT_TRUE(e.InsertFact("e", R({1, 1})).ok());  // self-loop: p(1,1) twice
  EXPECT_TRUE(e.GetTable("p")->Contains(R({1, 1})));
  ASSERT_TRUE(e.DeleteFact("e", R({1, 1})).ok());
  EXPECT_FALSE(e.GetTable("p")->Contains(R({1, 1})))
      << "derivation counts must retract symmetrically";
  EXPECT_EQ(e.GetTable("p")->size(), 0u);
}

TEST(EngineTest, SelectionFiltersRows) {
  // big(X) <- n(X), X > 10.
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("n", 1)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("big", 1)).ok());
  RuleIR r;
  r.label = "sel";
  r.head = {"big", {TermIR::Slot(0)}};
  r.body.push_back({"n", {TermIR::Slot(0)}});
  r.sels.push_back(SelIR{Expr::Binary(ExprOp::kGt, Expr::Slot(0),
                                      Expr::Const(Value::Int(10)))});
  r.trigger = {1};
  r.num_slots = 1;
  ASSERT_TRUE(e.AddRule(std::move(r)).ok());
  ASSERT_TRUE(e.InsertFact("n", R({5})).ok());
  ASSERT_TRUE(e.InsertFact("n", R({15})).ok());
  EXPECT_FALSE(e.GetTable("big")->Contains(R({5})));
  EXPECT_TRUE(e.GetTable("big")->Contains(R({15})));
}

TEST(EngineTest, AssignmentComputesHeadValue) {
  // out(X,Y) <- in(X), Y := X*2+1.
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("in", 1)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("out", 2)).ok());
  RuleIR r;
  r.label = "asg";
  r.head = {"out", {TermIR::Slot(0), TermIR::Slot(1)}};
  r.body.push_back({"in", {TermIR::Slot(0)}});
  r.assigns.push_back(AssignIR{
      1, Expr::Binary(ExprOp::kAdd,
                      Expr::Binary(ExprOp::kMul, Expr::Slot(0),
                                   Expr::Const(Value::Int(2))),
                      Expr::Const(Value::Int(1)))});
  r.trigger = {1};
  r.num_slots = 2;
  ASSERT_TRUE(e.AddRule(std::move(r)).ok());
  ASSERT_TRUE(e.InsertFact("in", R({4})).ok());
  EXPECT_TRUE(e.GetTable("out")->Contains(R({4, 9})));
}

TEST(EngineTest, TransitiveClosureRecursion) {
  // path(X,Y) <- edge(X,Y).  path(X,Z) <- edge(X,Y), path(Y,Z).
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("edge", 2)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("path", 2)).ok());
  RuleIR base;
  base.label = "b";
  base.head = {"path", {TermIR::Slot(0), TermIR::Slot(1)}};
  base.body.push_back({"edge", {TermIR::Slot(0), TermIR::Slot(1)}});
  base.trigger = {1};
  base.num_slots = 2;
  ASSERT_TRUE(e.AddRule(std::move(base)).ok());
  RuleIR rec;
  rec.label = "r";
  rec.head = {"path", {TermIR::Slot(0), TermIR::Slot(2)}};
  rec.body.push_back({"edge", {TermIR::Slot(0), TermIR::Slot(1)}});
  rec.body.push_back({"path", {TermIR::Slot(1), TermIR::Slot(2)}});
  rec.trigger = {1, 1};
  rec.num_slots = 3;
  ASSERT_TRUE(e.AddRule(std::move(rec)).ok());

  ASSERT_TRUE(e.InsertFact("edge", R({1, 2})).ok());
  ASSERT_TRUE(e.InsertFact("edge", R({2, 3})).ok());
  ASSERT_TRUE(e.InsertFact("edge", R({3, 4})).ok());
  EXPECT_TRUE(e.GetTable("path")->Contains(R({1, 4})));
  EXPECT_EQ(e.GetTable("path")->size(), 6u);  // all ordered pairs i<j
}

TEST(EngineTest, SumAggregateGroupsAndUpdates) {
  // total(G, SUM<V>) <- item(G, V).
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("item", 2)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("total", 2)).ok());
  RuleIR r;
  r.label = "agg";
  r.head = {"total", {TermIR::Slot(0), TermIR::Slot(1)}};
  r.agg = AggIR{AggKind::kSum, 1, 1};
  r.body.push_back({"item", {TermIR::Slot(0), TermIR::Slot(1)}});
  r.trigger = {1};
  r.num_slots = 2;
  ASSERT_TRUE(e.AddRule(std::move(r)).ok());

  ASSERT_TRUE(e.InsertFact("item", R({1, 10})).ok());
  ASSERT_TRUE(e.InsertFact("item", R({1, 5})).ok());
  ASSERT_TRUE(e.InsertFact("item", R({2, 7})).ok());
  EXPECT_TRUE(e.GetTable("total")->Contains(R({1, 15})));
  EXPECT_TRUE(e.GetTable("total")->Contains(R({2, 7})));

  // Update: retract one item; the aggregate row must be replaced.
  ASSERT_TRUE(e.DeleteFact("item", R({1, 5})).ok());
  EXPECT_TRUE(e.GetTable("total")->Contains(R({1, 10})));
  EXPECT_FALSE(e.GetTable("total")->Contains(R({1, 15})));

  // Emptying a group removes its aggregate row entirely.
  ASSERT_TRUE(e.DeleteFact("item", R({2, 7})).ok());
  EXPECT_EQ(e.GetTable("total")->Probe({0}, R({2})).size(), 0u);
}

TEST(EngineTest, GlobalAggregateWithoutGroup) {
  // count(COUNT<X>) <- n(X).
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("n", 1)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("cnt", 1)).ok());
  RuleIR r;
  r.label = "cnt";
  r.head = {"cnt", {TermIR::Slot(0)}};
  r.agg = AggIR{AggKind::kCount, 0, 0};
  r.body.push_back({"n", {TermIR::Slot(0)}});
  r.trigger = {1};
  r.num_slots = 1;
  ASSERT_TRUE(e.AddRule(std::move(r)).ok());
  ASSERT_TRUE(e.InsertFact("n", R({4})).ok());
  ASSERT_TRUE(e.InsertFact("n", R({9})).ok());
  EXPECT_TRUE(e.GetTable("cnt")->Contains(R({2})));
}

TEST(EngineTest, KeyedHeadReplacesOnUpdateRule) {
  // state(K,V') <- delta(K,D), state(K,V), V' := V+D — the Follow-the-Sun r3
  // pattern: keyed head, body atom on the head table is not a trigger.
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("delta", 2)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("state", 2, {0})).ok());
  RuleIR r;
  r.label = "upd";
  r.head = {"state", {TermIR::Slot(0), TermIR::Slot(3)}};
  r.body.push_back({"delta", {TermIR::Slot(0), TermIR::Slot(1)}});
  r.body.push_back({"state", {TermIR::Slot(0), TermIR::Slot(2)}});
  r.assigns.push_back(AssignIR{
      3, Expr::Binary(ExprOp::kAdd, Expr::Slot(2), Expr::Slot(1))});
  r.trigger = {1, 0};  // do not re-fire on our own output
  r.num_slots = 4;
  ASSERT_TRUE(e.AddRule(std::move(r)).ok());

  ASSERT_TRUE(e.InsertFact("state", R({1, 100})).ok());
  ASSERT_TRUE(e.InsertFact("delta", R({1, 5})).ok());
  EXPECT_TRUE(e.GetTable("state")->Contains(R({1, 105})));
  EXPECT_FALSE(e.GetTable("state")->Contains(R({1, 100})))
      << "keyed insert must displace the old row";
  EXPECT_EQ(e.GetTable("state")->size(), 1u);

  ASSERT_TRUE(e.InsertFact("delta", R({1, -5})).ok());
  EXPECT_TRUE(e.GetTable("state")->Contains(R({1, 100})));
}

TEST(EngineTest, AddRuleChecksStampedTableIds) {
  // Table ids are declaration order; a rule stamped with another catalog's
  // ids must not silently read the wrong tables.
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("b", 1)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("a", 1)).ok());
  EXPECT_EQ(e.FindTable("b"), 0);
  EXPECT_EQ(e.FindTable("a"), 1);
  EXPECT_EQ(e.FindTable("c"), -1);
  RuleIR r;
  r.label = "copy";
  r.head = {"b", {TermIR::Slot(0)}, /*table_id=*/1};  // name-order id of b
  r.body.push_back({"a", {TermIR::Slot(0)}, /*table_id=*/0});
  r.trigger = {1};
  r.num_slots = 1;
  Status s = e.AddRule(r);
  EXPECT_EQ(s.code(), StatusCode::kPlanError) << s.ToString();
  // Unstamped atoms take this engine's ids.
  r.head.table_id = -1;
  r.body[0].table_id = -1;
  ASSERT_TRUE(e.AddRule(r).ok());
  ASSERT_TRUE(e.InsertFact("a", R({7})).ok());
  EXPECT_TRUE(e.GetTable("b")->Contains(R({7})));
}

TEST(EngineTest, WatcherSeesVisibilityChanges) {
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("t", 1)).ok());
  std::vector<std::pair<int64_t, int>> seen;
  e.AddWatcher("t", [&](const Row& row, int sign) {
    seen.push_back({row[0].as_int(), sign});
  });
  ASSERT_TRUE(e.InsertFact("t", R({1})).ok());
  ASSERT_TRUE(e.InsertFact("t", R({1})).ok());  // no transition
  ASSERT_TRUE(e.DeleteFact("t", R({1})).ok());  // no transition
  ASSERT_TRUE(e.DeleteFact("t", R({1})).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<int64_t, int>{1, +1}));
  EXPECT_EQ(seen[1], (std::pair<int64_t, int>{1, -1}));
}

TEST(EngineTest, RemoteTuplesGoToSender) {
  // Two engines, node 0 and node 1; rule at node 0 derives a head located
  // at @1, which must arrive in engine 1's table.
  Engine e0(0), e1(1);
  TableSchema in = Schema("in", 2, {}, 0);    // in(@L, X)
  TableSchema out = Schema("out", 2, {}, 0);  // out(@L, X)
  for (Engine* e : {&e0, &e1}) {
    ASSERT_TRUE(e->DeclareTable(in).ok());
    ASSERT_TRUE(e->DeclareTable(out).ok());
    RuleIR r;
    r.label = "fwd";  // out(@Y, X) <- in(@X2, ...) pattern: ship to slot 1
    r.head = {"out", {TermIR::Slot(1), TermIR::Slot(0)}};
    r.body.push_back({"in", {TermIR::Slot(0), TermIR::Slot(1)}});
    r.trigger = {1};
    r.num_slots = 2;
    ASSERT_TRUE(e->AddRule(std::move(r)).ok());
  }
  // Wire engine 0's sender straight into engine 1.
  e0.SetSender([&](NodeId dest, TableId table, const Row& row, int sign) {
    ASSERT_EQ(dest, 1);
    ASSERT_TRUE(e1.Apply(e0.table_name(table), row, sign).ok());
    ASSERT_TRUE(e1.Flush().ok());
  });
  // in(@0, 1): head out(@1, @0) routes to node 1.
  Row fact{Value::Node(0), Value::Node(1)};
  ASSERT_TRUE(e0.InsertFact("in", fact).ok());
  Row expect{Value::Node(1), Value::Node(0)};
  EXPECT_TRUE(e1.GetTable("out")->Contains(expect));
  EXPECT_EQ(e0.GetTable("out")->size(), 0u);
  EXPECT_EQ(e0.stats().tuples_sent, 1u);
}

// The estimate is derived from the real cell and row sizes and the table's
// per-row bookkeeping, so a change to Value's layout or to Table's storage
// shows up in datalog.table_mb. Each visible row is stored once.
TEST(EngineTest, MemoryEstimateFollowsValueAndRowSizes) {
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("t", 3)).ok());
  ASSERT_TRUE(e.DeclareTable(Schema("u", 1)).ok());
  EXPECT_EQ(e.MemoryEstimate(), 0u);
  ASSERT_TRUE(e.InsertFact("t", R({1, 2, 3})).ok());
  ASSERT_TRUE(e.InsertFact("t", R({4, 5, 6})).ok());
  ASSERT_TRUE(e.InsertFact("u", R({7})).ok());
  ASSERT_TRUE(e.InsertFact("u", R({7})).ok());  // second derivation, one row
  const size_t book = Table::kRowBookkeepingBytes;
  const size_t t_row = sizeof(Row) + 3 * sizeof(Value) + book;
  const size_t u_row = sizeof(Row) + 1 * sizeof(Value) + book;
  EXPECT_EQ(e.MemoryEstimate(), 2 * t_row + 1 * u_row);
  // Count 8 + two 16-byte content-map cells + a 4-byte order entry.
  EXPECT_EQ(book, 44u);
  EXPECT_EQ(e.MemoryEstimate(), 2u * (24 + 48 + 44) + (24 + 16 + 44));
}

TEST(EngineTest, ArityMismatchRejected) {
  Engine e;
  ASSERT_TRUE(e.DeclareTable(Schema("t", 2)).ok());
  Status s = e.Apply("t", R({1}), +1);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, UnknownTableRejected) {
  Engine e;
  EXPECT_FALSE(e.Apply("nope", R({1}), +1).ok());
  RuleIR r;
  r.head = {"nope", {TermIR::Slot(0)}};
  r.trigger = {};
  EXPECT_FALSE(e.AddRule(std::move(r)).ok());
}

}  // namespace
}  // namespace cologne::datalog
