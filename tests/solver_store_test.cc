// Tests for the trailed domain store (solver/store.h) and the search
// machinery built on it: exact backtrack restoration, save-once-per-level
// bookkeeping, the flat bounds mirror, deep-stack dives (the historical Dive
// dangling-reference hazard, exercised under ASan in CI), and solve-twice
// determinism of the trailed search.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "solver/model.h"
#include "solver/store.h"

namespace cologne::solver {
namespace {

std::vector<IntDomain> MakeDoms() {
  std::vector<IntDomain> doms;
  doms.push_back(IntDomain(0, 9));
  doms.push_back(IntDomain(-5, 5));
  IntDomain holey(1, 8);
  holey.Remove(4);
  holey.Remove(6);
  doms.push_back(holey);
  return doms;
}

TEST(DomainStoreTest, BacktrackRestoresExactRanges) {
  DomainStore st;
  st.Init(MakeDoms());
  const std::vector<IntDomain> before = {st[0], st[1], st[2]};

  st.PushLevel();
  EXPECT_TRUE(st.ClampMin(0, 3));
  EXPECT_TRUE(st.ClampMax(1, 2));
  EXPECT_TRUE(st.Remove(2, 7));   // splits nothing: 7 is a singleton edge
  EXPECT_TRUE(st.Remove(2, 2));   // splits {1..3} into {1},{3}
  EXPECT_TRUE(st.Assign(0, 5));
  EXPECT_EQ(st[0].value(), 5);

  st.Backtrack();
  EXPECT_EQ(st.level(), 0);
  for (size_t i = 0; i < st.size(); ++i) {
    EXPECT_EQ(st[i], before[i]) << "var " << i << " not restored: "
                                << st[i].ToString();
  }
}

TEST(DomainStoreTest, SaveOncePerLevel) {
  DomainStore st;
  st.Init(MakeDoms());
  st.PushLevel();
  EXPECT_TRUE(st.ClampMin(0, 1));
  EXPECT_TRUE(st.ClampMin(0, 2));
  EXPECT_TRUE(st.ClampMin(0, 3));
  // Three mutations of the same variable on one level: one save record.
  EXPECT_EQ(st.total_saves(), 1u);
  st.Backtrack();
  EXPECT_EQ(st[0].min(), 0);
}

TEST(DomainStoreTest, NestedLevelsRestoreInOrder) {
  DomainStore st;
  st.Init(MakeDoms());
  st.PushLevel();  // level 1
  st.ClampMax(0, 7);
  st.PushLevel();  // level 2
  st.ClampMax(0, 4);
  st.PushLevel();  // level 3
  st.Assign(0, 2);
  EXPECT_EQ(st.level(), 3);
  EXPECT_EQ(st.peak_depth(), 3u);

  st.Backtrack();
  EXPECT_EQ(st[0].max(), 4);  // level-2 state
  st.Backtrack();
  EXPECT_EQ(st[0].max(), 7);  // level-1 state
  st.Backtrack();
  EXPECT_EQ(st[0].max(), 9);  // pristine
}

TEST(DomainStoreTest, BacktrackToUnwindsMultipleLevels) {
  DomainStore st;
  st.Init(MakeDoms());
  for (int i = 0; i < 5; ++i) {
    st.PushLevel();
    st.ClampMax(0, 8 - i);
  }
  EXPECT_EQ(st.level(), 5);
  st.BacktrackTo(1);
  EXPECT_EQ(st.level(), 1);
  EXPECT_EQ(st[0].max(), 8);
  st.BacktrackTo(0);
  EXPECT_EQ(st[0].max(), 9);
  // Backtracking to the current-or-deeper level is a no-op.
  st.BacktrackTo(3);
  EXPECT_EQ(st.level(), 0);
}

TEST(DomainStoreTest, LevelZeroMutationsArePermanent) {
  DomainStore st;
  st.Init(MakeDoms());
  EXPECT_TRUE(st.ClampMin(0, 4));  // no level pushed: permanent, untrailed
  EXPECT_EQ(st.total_saves(), 0u);
  st.PushLevel();
  st.ClampMin(0, 6);
  st.Backtrack();
  EXPECT_EQ(st[0].min(), 4);  // restores to the *mutated* level-0 state
}

TEST(DomainStoreTest, NoChangeMutatorsDoNotTrail) {
  DomainStore st;
  st.Init(MakeDoms());
  st.PushLevel();
  EXPECT_FALSE(st.ClampMin(0, -3));  // already satisfied
  EXPECT_FALSE(st.ClampMax(0, 20));
  EXPECT_FALSE(st.Remove(0, 42));    // not contained
  EXPECT_EQ(st.total_saves(), 0u);
  st.Backtrack();
}

TEST(DomainStoreTest, AssignToMissingValueEmptiesAndRestores) {
  DomainStore st;
  st.Init(MakeDoms());
  st.PushLevel();
  EXPECT_TRUE(st.Assign(2, 4));  // 4 was removed: domain empties
  EXPECT_TRUE(st.dom(2).empty());
  st.Backtrack();
  EXPECT_FALSE(st.dom(2).empty());
  EXPECT_EQ(st.dom(2).size(), 6u);
  EXPECT_EQ(st.lo(2), 1);  // the bounds mirror is restored with the domain
  EXPECT_EQ(st.hi(2), 8);
}

// The flat bounds mirror must equal every non-empty domain's min/max after
// any mutation or backtrack.
void ExpectMirrorInStep(const DomainStore& st) {
  for (size_t i = 0; i < st.size(); ++i) {
    const int32_t id = static_cast<int32_t>(i);
    if (st.dom(id).empty()) continue;
    ASSERT_EQ(st.lo(id), st.dom(id).min()) << "var " << i;
    ASSERT_EQ(st.hi(id), st.dom(id).max()) << "var " << i;
  }
}

// Checks the mirror from inside every delivered event, where the engine
// reads it for its advisor deltas.
class MirrorCheckingListener : public DomainListener {
 public:
  explicit MirrorCheckingListener(const DomainStore* st) : st_(st) {}
  void OnDomainEvent(int32_t var, uint8_t events, int64_t old_min,
                     int64_t old_max) override {
    (void)events;
    ++events_;
    EXPECT_EQ(st_->lo(var), st_->dom(var).min());
    EXPECT_EQ(st_->hi(var), st_->dom(var).max());
    EXPECT_LE(old_min, st_->lo(var));
    EXPECT_GE(old_max, st_->hi(var));
  }
  int events_ = 0;

 private:
  const DomainStore* st_;
};

TEST(DomainStoreTest, BoundsMirrorTracksRandomMutations) {
  for (bool with_listener : {false, true}) {
    for (uint32_t seed = 1; seed <= 20; ++seed) {
      DomainStore st;
      st.Init(MakeDoms());
      MirrorCheckingListener listener(&st);
      if (with_listener) st.SetListener(&listener);
      ExpectMirrorInStep(st);
      std::mt19937 rng(seed);
      auto next = [&rng](int64_t lo, int64_t hi) {
        return lo + static_cast<int64_t>(rng() %
                                         static_cast<uint32_t>(hi - lo + 1));
      };
      for (int step = 0; step < 300; ++step) {
        if (st.level() > 0 && next(0, 3) == 0) {
          st.Backtrack();
        } else {
          st.PushLevel();
          const int32_t id = static_cast<int32_t>(next(0, 2));
          const int64_t v = next(-6, 10);
          switch (next(0, 3)) {
            case 0: st.ClampMin(id, v); break;
            case 1: st.ClampMax(id, v); break;
            case 2: st.Remove(id, v); break;
            default: st.Assign(id, v); break;
          }
          // An emptied domain fails the level, as in search.
          if (st.dom(id).empty()) st.Backtrack();
        }
        ExpectMirrorInStep(st);
        if (HasFatalFailure()) return;
      }
      st.BacktrackTo(0);
      ExpectMirrorInStep(st);
      if (with_listener) {
        EXPECT_GT(listener.events_, 0);
      }
    }
  }
}

TEST(DomainStoreTest, PeakMemoryAccountsTrail) {
  DomainStore st;
  st.Init(MakeDoms());
  const size_t base = st.PeakMemoryBytes();
  st.PushLevel();
  st.ClampMin(0, 5);
  st.ClampMin(1, 0);
  EXPECT_GT(st.PeakMemoryBytes(), base);
  st.Backtrack();
  // Peak is a high-water mark: it does not shrink on backtrack.
  EXPECT_GT(st.PeakMemoryBytes(), base);
}

// Regression for the historical Dive hazard (`top` dangling after push_node
// reallocated the frame stack): a satisfy chain thousands of variables deep
// forces the frame vector through many reallocations during the first
// descent. Under ASan (the debug-asan-ubsan CI row runs this test) a
// reference outliving a reallocation dies loudly.
TEST(DeepDiveTest, ThousandsOfFramesUnderAsan) {
  constexpr int kVars = 4000;
  Model m;
  std::vector<IntVar> xs;
  xs.reserve(kVars);
  for (int i = 0; i < kVars; ++i) {
    IntVar x = m.NewInt(0, 3);
    m.MarkDecision(x);
    xs.push_back(x);
  }
  // Sparse coupling so propagation fixes nothing ahead of branching: the
  // dive really holds one frame per variable.
  for (int i = 0; i + 1 < kVars; i += 2) {
    m.PostRel(LinExpr(xs[static_cast<size_t>(i)]), Rel::kLe,
              LinExpr(xs[static_cast<size_t>(i + 1)]));
  }
  m.Satisfy();
  Model::Options o;
  o.time_limit_ms = 0;
  Solution s = m.Solve(o);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.stats.nodes, static_cast<uint64_t>(kVars));
  EXPECT_EQ(s.stats.failures, 0u);
  EXPECT_EQ(s.stats.solutions, 1u);
  for (int i = 0; i + 1 < kVars; i += 2) {
    EXPECT_LE(s.ValueOf(xs[static_cast<size_t>(i)]),
              s.ValueOf(xs[static_cast<size_t>(i + 1)]));
  }
}

// A deep *optimizing* dive with backtracking: maximize the tail of a chain
// with interleaved failures, so backtrack + re-descend crosses reallocation
// boundaries repeatedly.
TEST(DeepDiveTest, DeepBacktrackingDive) {
  constexpr int kVars = 600;
  Model m;
  std::vector<IntVar> xs;
  LinExpr sum;
  for (int i = 0; i < kVars; ++i) {
    IntVar x = m.NewInt(0, 2);
    m.MarkDecision(x);
    xs.push_back(x);
    sum += LinExpr(x);
  }
  // Adjacent vars may not both be 2: forces failures along the descent when
  // maximizing.
  for (int i = 0; i + 1 < kVars; ++i) {
    m.PostRel(LinExpr(xs[static_cast<size_t>(i)]) +
                  LinExpr(xs[static_cast<size_t>(i + 1)]),
              Rel::kLe, LinExpr(3));
  }
  m.Maximize(sum);
  Model::Options o;
  o.time_limit_ms = 0;
  o.node_limit = 30'000;
  Solution s = m.Solve(o);
  ASSERT_TRUE(s.has_solution());
  EXPECT_GT(s.stats.failures, 0u);
}

// The trailed search must leave no state behind: an identical second solve
// on the same Model reproduces the identical search tree and statistics.
TEST(TrailedSearchTest, SolveTwiceIsBitIdentical) {
  for (Backend backend : {Backend::kBranchAndBound, Backend::kLns}) {
    Model m;
    std::vector<std::vector<IntVar>> v(6);
    for (int i = 0; i < 6; ++i) {
      LinExpr one;
      for (int h = 0; h < 4; ++h) {
        IntVar b = m.NewBool();
        m.MarkDecision(b);
        v[static_cast<size_t>(i)].push_back(b);
        one += LinExpr(b);
      }
      m.PostRel(one, Rel::kEq, LinExpr(1));
    }
    LinExpr obj;
    for (int h = 0; h < 4; ++h) {
      LinExpr load;
      for (int i = 0; i < 6; ++i) {
        load += LinExpr::Term(10 + (i * 7) % 40,
                              v[static_cast<size_t>(i)][static_cast<size_t>(h)]);
      }
      obj += LinExpr(m.MakeSquare(load));
    }
    m.Minimize(obj);

    Model::Options o;
    o.time_limit_ms = 0;
    o.node_limit = 20'000;
    o.max_iterations = 50;
    o.backend = backend;
    o.seed = 0x5EED;
    Solution a = m.Solve(o);
    Solution b = m.Solve(o);
    EXPECT_EQ(a.stats.nodes, b.stats.nodes);
    EXPECT_EQ(a.stats.failures, b.stats.failures);
    EXPECT_EQ(a.stats.solutions, b.stats.solutions);
    EXPECT_EQ(a.stats.propagations, b.stats.propagations);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.values, b.values);
  }
}

}  // namespace
}  // namespace cologne::solver
