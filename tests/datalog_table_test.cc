// Unit tests for Table: counting semantics, indexes, keyed replacement.
#include "datalog/table.h"

#include <gtest/gtest.h>

namespace cologne::datalog {
namespace {

Row R(std::initializer_list<int64_t> xs) {
  Row r;
  for (int64_t x : xs) r.push_back(Value::Int(x));
  return r;
}

TableSchema Schema(const std::string& name, int arity,
                   std::vector<int> keys = {}) {
  TableSchema s;
  s.name = name;
  for (int i = 0; i < arity; ++i) s.attrs.push_back("A" + std::to_string(i));
  s.key_cols = std::move(keys);
  return s;
}

TEST(TableTest, InsertMakesVisible) {
  Table t(Schema("t", 2));
  EXPECT_EQ(t.Apply(R({1, 2}), +1), +1);
  EXPECT_TRUE(t.Contains(R({1, 2})));
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, DuplicateInsertCountsDerivations) {
  Table t(Schema("t", 2));
  EXPECT_EQ(t.Apply(R({1, 2}), +1), +1);
  EXPECT_EQ(t.Apply(R({1, 2}), +1), 0) << "second derivation: no transition";
  EXPECT_EQ(t.CountOf(R({1, 2})), 2);
  EXPECT_EQ(t.Apply(R({1, 2}), -1), 0);
  EXPECT_TRUE(t.Contains(R({1, 2})));
  EXPECT_EQ(t.Apply(R({1, 2}), -1), -1) << "last derivation removed";
  EXPECT_FALSE(t.Contains(R({1, 2})));
}

// 0.0 == -0.0, so a derivation of one and a retraction of the other must
// meet in the same count: the row disappears and no phantom -1 remains.
TEST(TableTest, SignedZeroDoublesShareOneCount) {
  Table t(Schema("t", 1));
  EXPECT_EQ(t.Apply({Value::Double(0.0)}, +1), +1);
  EXPECT_EQ(t.Apply({Value::Double(-0.0)}, -1), -1);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.CountOf({Value::Double(0.0)}), 0);
  EXPECT_EQ(t.CountOf({Value::Double(-0.0)}), 0);
  EXPECT_EQ(t.ContentHash(), 0u);
}

TEST(TableTest, DeleteAbsentRowIsNoTransition) {
  Table t(Schema("t", 1));
  EXPECT_EQ(t.Apply(R({5}), -1), 0);
  EXPECT_FALSE(t.Contains(R({5})));
  // Count went negative; a subsequent insert must cancel it.
  EXPECT_EQ(t.Apply(R({5}), +1), 0);
  EXPECT_EQ(t.Apply(R({5}), +1), +1);
}

TEST(TableTest, RowsSortedDeterministically) {
  Table t(Schema("t", 1));
  t.Apply(R({3}), +1);
  t.Apply(R({1}), +1);
  t.Apply(R({2}), +1);
  std::vector<Row> rows = t.Rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].as_int(), 1);
  EXPECT_EQ(rows[2][0].as_int(), 3);
}

TEST(TableTest, ProbeByColumn) {
  Table t(Schema("t", 2));
  t.Apply(R({1, 10}), +1);
  t.Apply(R({1, 11}), +1);
  t.Apply(R({2, 12}), +1);
  const auto& rows = t.Probe({0}, R({1}));
  EXPECT_EQ(rows.size(), 2u);
  const auto& none = t.Probe({0}, R({9}));
  EXPECT_TRUE(none.empty());
}

TEST(TableTest, ProbeIndexStaysFreshAfterUpdates) {
  Table t(Schema("t", 2));
  t.Apply(R({1, 10}), +1);
  (void)t.Probe({0}, R({1}));  // force index build
  t.Apply(R({1, 11}), +1);
  t.Apply(R({1, 10}), -1);
  const auto& rows = t.Probe({0}, R({1}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].as_int(), 11);
}

TEST(TableTest, ProbeMultiColumn) {
  Table t(Schema("t", 3));
  t.Apply(R({1, 2, 3}), +1);
  t.Apply(R({1, 2, 4}), +1);
  t.Apply(R({1, 5, 3}), +1);
  EXPECT_EQ(t.Probe({0, 1}, R({1, 2})).size(), 2u);
  EXPECT_EQ(t.Probe({1, 2}, R({2, 4})).size(), 1u);
}

TEST(TableTest, EmptyColsProbeScansAll) {
  Table t(Schema("t", 1));
  t.Apply(R({1}), +1);
  t.Apply(R({2}), +1);
  EXPECT_EQ(t.Probe({}, {}).size(), 2u);
  t.Apply(R({1}), -1);
  EXPECT_EQ(t.Probe({}, {}).size(), 1u);
}

TEST(TableTest, KeyedDisplacement) {
  Table t(Schema("t", 3, {0, 1}));
  t.Apply(R({1, 2, 30}), +1);
  const Row* disp = t.DisplacedBy(R({1, 2, 40}));
  ASSERT_NE(disp, nullptr);
  EXPECT_EQ((*disp)[2].as_int(), 30);
  EXPECT_EQ(t.DisplacedBy(R({1, 2, 30})), nullptr) << "same row: no displace";
  EXPECT_EQ(t.DisplacedBy(R({9, 9, 1})), nullptr);
}

TEST(TableTest, FindByKey) {
  Table t(Schema("t", 2, {0}));
  t.Apply(R({7, 70}), +1);
  const Row* r = t.FindByKey(R({7}));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ((*r)[1].as_int(), 70);
  EXPECT_EQ(t.FindByKey(R({8})), nullptr);
}

TEST(TableTest, EraseAllRemovesEverything) {
  Table t(Schema("t", 1));
  t.Apply(R({1}), +1);
  t.Apply(R({1}), +1);
  EXPECT_TRUE(t.EraseAll(R({1})));
  EXPECT_FALSE(t.Contains(R({1})));
  EXPECT_EQ(t.CountOf(R({1})), 0);
  EXPECT_FALSE(t.EraseAll(R({1})));
}

// ---------------------------------------------------------------------------
// Lazy-index invalidation: once Probe() has built an index for a column set,
// every later Apply / EraseAll / keyed displacement must keep it consistent,
// and an index built *after* a batch of mutations must reflect exactly the
// visible rows at build time.
// ---------------------------------------------------------------------------

TEST(TableProbeIndexTest, IndexStaysFreshAfterEraseAll) {
  Table t(Schema("t", 2));
  t.Apply(R({1, 10}), +1);
  t.Apply(R({1, 11}), +1);
  ASSERT_EQ(t.Probe({0}, R({1})).size(), 2u);  // force index build
  EXPECT_TRUE(t.EraseAll(R({1, 10})));
  const auto& rows = t.Probe({0}, R({1}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].as_int(), 11);
  // Scan probe (empty column set) agrees after the same EraseAll.
  EXPECT_EQ(t.Probe({}, {}).size(), 1u);
}

TEST(TableProbeIndexTest, EraseAllOfInvisibleRowLeavesIndexIntact) {
  Table t(Schema("t", 2));
  t.Apply(R({1, 10}), +1);
  t.Apply(R({1, 99}), -1);  // negative count: row counted but never visible
  ASSERT_EQ(t.Probe({0}, R({1})).size(), 1u);
  EXPECT_FALSE(t.EraseAll(R({1, 99})));  // was not visible
  EXPECT_EQ(t.Probe({0}, R({1})).size(), 1u);
  EXPECT_EQ(t.Probe({0}, R({1}))[0][1].as_int(), 10);
}

TEST(TableProbeIndexTest, IndexBuiltLazilyReflectsPriorMutations) {
  Table t(Schema("t", 2));
  t.Apply(R({1, 10}), +1);
  t.Apply(R({1, 11}), +1);
  t.Apply(R({2, 20}), +1);
  t.EraseAll(R({1, 10}));
  t.Apply(R({2, 21}), -1);  // negative count: must not appear in the index
  // First probe on this column set builds the index now, over the visible
  // rows only.
  EXPECT_EQ(t.Probe({0}, R({1})).size(), 1u);
  EXPECT_EQ(t.Probe({0}, R({2})).size(), 1u);
  EXPECT_TRUE(t.Probe({0}, R({9})).empty());
}

TEST(TableProbeIndexTest, KeyedDisplacementKeepsIndexesConsistent) {
  // The engine's primary-key replacement protocol: look up the displaced
  // row, erase it, then insert the replacement. Secondary indexes built
  // before the displacement must track both steps.
  Table t(Schema("t", 3, {0, 1}));
  t.Apply(R({1, 2, 30}), +1);
  t.Apply(R({1, 3, 30}), +1);
  ASSERT_EQ(t.Probe({2}, R({30})).size(), 2u);  // index on a non-key column

  const Row* disp = t.DisplacedBy(R({1, 2, 40}));
  ASSERT_NE(disp, nullptr);
  Row displaced = *disp;  // copy: EraseAll invalidates the reference
  EXPECT_TRUE(t.EraseAll(displaced));
  EXPECT_EQ(t.Apply(R({1, 2, 40}), +1), +1);

  EXPECT_EQ(t.Probe({2}, R({30})).size(), 1u);
  EXPECT_EQ(t.Probe({2}, R({30}))[0][1].as_int(), 3);
  ASSERT_EQ(t.Probe({2}, R({40})).size(), 1u);
  EXPECT_EQ(t.Probe({2}, R({40}))[0][1].as_int(), 2);
  const Row* by_key = t.FindByKey(R({1, 2}));
  ASSERT_NE(by_key, nullptr);
  EXPECT_EQ((*by_key)[2].as_int(), 40);
}

TEST(TableProbeIndexTest, ProbeReferenceInvalidatedByNextApply) {
  // The documented contract: the view returned by Probe() is only valid
  // until the next Apply(). The supported pattern is copy-then-mutate; the
  // copy must survive unchanged while a fresh probe sees the mutation.
  Table t(Schema("t", 2));
  t.Apply(R({1, 10}), +1);
  const RowsView live = t.Probe({0}, R({1}));
  ASSERT_EQ(live.size(), 1u);
  // Consume the view before Apply().
  std::vector<Row> copied(live.begin(), live.end());
  t.Apply(R({1, 11}), +1);  // invalidates `live`
  EXPECT_EQ(copied.size(), 1u);
  EXPECT_EQ(copied[0][1].as_int(), 10);
  const RowsView fresh = t.Probe({0}, R({1}));
  EXPECT_EQ(fresh.size(), 2u);
}

TEST(TableProbeIndexTest, EmptiedBucketReappearsOnReinsert) {
  Table t(Schema("t", 2));
  t.Apply(R({1, 10}), +1);
  ASSERT_EQ(t.Probe({0}, R({1})).size(), 1u);
  t.Apply(R({1, 10}), -1);  // bucket empties and is erased from the index
  EXPECT_TRUE(t.Probe({0}, R({1})).empty());
  t.Apply(R({1, 12}), +1);  // bucket recreated
  ASSERT_EQ(t.Probe({0}, R({1})).size(), 1u);
  EXPECT_EQ(t.Probe({0}, R({1}))[0][1].as_int(), 12);
}

TEST(TableProbeIndexTest, MultipleIndexesTrackInterleavedMutations) {
  Table t(Schema("t", 3));
  t.Apply(R({1, 2, 3}), +1);
  ASSERT_EQ(t.Probe({0}, R({1})).size(), 1u);      // index A
  ASSERT_EQ(t.Probe({1, 2}, R({2, 3})).size(), 1u);  // index B
  t.Apply(R({1, 5, 3}), +1);
  t.EraseAll(R({1, 2, 3}));
  t.Apply(R({4, 2, 3}), +1);
  EXPECT_EQ(t.Probe({0}, R({1})).size(), 1u);
  EXPECT_EQ(t.Probe({0}, R({4})).size(), 1u);
  EXPECT_EQ(t.Probe({1, 2}, R({2, 3})).size(), 1u);
  EXPECT_EQ(t.Probe({1, 2}, R({2, 3}))[0][0].as_int(), 4);
  EXPECT_EQ(t.Probe({1, 2}, R({5, 3})).size(), 1u);
}

}  // namespace
}  // namespace cologne::datalog
