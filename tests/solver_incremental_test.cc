// Incremental re-solve on fact deltas (SolveMode::kIncremental): per-group
// model fingerprinting, clean/dirty classification, the three outcomes
// (reuse, accept the warm incumbent, solve cold), the SolveRequest entry
// point, and the shared apps::CommonConfig helpers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "apps/common_config.h"
#include "apps/followsun.h"
#include "colog/planner.h"
#include "runtime/instance.h"
#include "runtime/system.h"

namespace cologne::runtime {
namespace {

Row R(std::initializer_list<int64_t> xs) {
  Row r;
  for (int64_t x : xs) r.push_back(Value::Int(x));
  return r;
}

// Four independent decision groups (key prefix 1 on pick's G column): each
// group must select a subset of slots whose summed weight reaches the
// group's cap, minimizing the total weight picked. The cap constant is
// baked into exactly one group's covering-constraint propagator, so a cap
// delta must dirty that group's fingerprint and no other. (The weights
// land in the flattened objective propagator, which spans every group — a
// deliberately model-global component.)
const char* kGrouped = R"(
goal minimize C in total(C).
var pick(G,I,V) forall slot(G,I) domain [0,1].
d1 used(G,SUM<C>) <- pick(G,I,V), weight(G,I,W), C==V*W.
c1 used(G,C) -> cap(G,M), C>=M.
d3 total(SUM<C>) <- used(G,C).
)";

constexpr int kGroups = 4;
constexpr int kSlots = 3;
constexpr int64_t kDefaultCap = 6;

int64_t WeightOf(int g, int i) { return 5 + 3 * g + 7 * i; }

class IncrementalSolveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto compiled = colog::CompileColog(kGrouped);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    program_ = std::move(compiled).value();
    instance_ = std::make_unique<Instance>(0, &program_);
    ASSERT_TRUE(instance_->Init().ok());
    for (int g = 0; g < kGroups; ++g) {
      ASSERT_TRUE(instance_->InsertFact("cap", R({g, kDefaultCap})).ok());
      for (int i = 0; i < kSlots; ++i) {
        ASSERT_TRUE(instance_->InsertFact("slot", R({g, i})).ok());
        ASSERT_TRUE(
            instance_->InsertFact("weight", R({g, i, WeightOf(g, i)})).ok());
      }
    }
  }

  static SolveRequest Incremental() {
    SolveRequest req;
    req.mode = SolveMode::kIncremental;
    req.group_key_prefix = 1;
    return req;
  }

  // Re-point one group's cap fact (delete + insert): the cap constant lives
  // in that group's covering constraint only, so the delta dirties group `g`
  // and nothing else.
  void ChangeCap(int g, int64_t cap) {
    ASSERT_TRUE(instance_->DeleteFact("cap", R({g, kDefaultCap})).ok());
    ASSERT_TRUE(instance_->InsertFact("cap", R({g, cap})).ok());
  }

  // Cold reference: a fresh instance over the same base facts, with the
  // caps of the groups in `caps` changed, solved once without the
  // incremental path, for objective parity checks.
  double ColdObjective(const std::map<int, int64_t>& caps) {
    Instance cold(0, &program_);
    EXPECT_TRUE(cold.Init().ok());
    for (int g = 0; g < kGroups; ++g) {
      auto it = caps.find(g);
      int64_t cap = it == caps.end() ? kDefaultCap : it->second;
      EXPECT_TRUE(cold.InsertFact("cap", R({g, cap})).ok());
      for (int i = 0; i < kSlots; ++i) {
        EXPECT_TRUE(cold.InsertFact("slot", R({g, i})).ok());
        EXPECT_TRUE(
            cold.InsertFact("weight", R({g, i, WeightOf(g, i)})).ok());
      }
    }
    auto out = cold.Solve();
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(out.value().has_solution());
    EXPECT_TRUE(out.value().has_objective);
    return out.value().objective;
  }

  colog::CompiledProgram program_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(IncrementalSolveTest, FirstSolveFallsBackCold) {
  auto out = instance_->Solve(Incremental());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  // Nothing to compare against yet: every group counts dirty, cold fallback.
  EXPECT_TRUE(out.value().incr_fallback);
  EXPECT_EQ(out.value().incr_dirty, kGroups);
  EXPECT_EQ(out.value().incr_clean, 0);
  EXPECT_EQ(instance_->incremental_state().fingerprints.size(),
            static_cast<size_t>(kGroups));
}

TEST_F(IncrementalSolveTest, UnchangedResolveKeepsEveryGroupClean) {
  ASSERT_TRUE(instance_->Solve(Incremental()).ok());
  auto out = instance_->Solve(Incremental());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out.value().incr_fallback);
  EXPECT_EQ(out.value().incr_dirty, 0);
  EXPECT_EQ(out.value().incr_clean, kGroups);
  EXPECT_TRUE(out.value().warm_started);
  EXPECT_DOUBLE_EQ(out.value().objective, ColdObjective({}));
}

TEST_F(IncrementalSolveTest, OneFactDeltaDirtiesExactlyOneGroup) {
  ASSERT_TRUE(instance_->Solve(Incremental()).ok());
  // Raise group 2's cap so its incumbent subset no longer covers it: the
  // delta must re-open that group's decision and reach the new optimum
  // (two slots instead of one), not keep the incumbent.
  ChangeCap(2, 30);
  auto out = instance_->Solve(Incremental());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_TRUE(out.value().incr_fallback);
  EXPECT_EQ(out.value().incr_dirty, 1);
  EXPECT_EQ(out.value().incr_clean, kGroups - 1);
  EXPECT_DOUBLE_EQ(out.value().objective, ColdObjective({{2, 30}}));
}

// Any dirty group means a cold solve, even one of four. Lowering group 0's
// cap from 6 to 5 keeps its incumbent (the weight-12 slot) feasible but no
// longer optimal (the weight-5 slot now covers): accepting the warm
// incumbent would keep 12, the cold solve proves the better optimum.
TEST_F(IncrementalSolveTest, OneDirtyGroupOfFourFallsBackCold) {
  ASSERT_TRUE(instance_->Solve(Incremental()).ok());
  ChangeCap(0, 5);
  auto out = instance_->Solve(Incremental());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_EQ(out.value().incr_dirty, 1);
  EXPECT_EQ(out.value().incr_clean, kGroups - 1);
  EXPECT_TRUE(out.value().incr_fallback);
  EXPECT_TRUE(out.value().warm_started);
  EXPECT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(out.value().objective, ColdObjective({{0, 5}}));
  EXPECT_LT(out.value().objective, ColdObjective({}));
}

TEST_F(IncrementalSolveTest, FingerprintsSurviveCrashRestartReplay) {
  ASSERT_TRUE(instance_->Solve(Incremental()).ok());
  auto before = instance_->incremental_state().fingerprints;
  ASSERT_TRUE(instance_->Crash().ok());
  ASSERT_TRUE(instance_->Restart(/*retain_warm_start=*/true).ok());
  ASSERT_TRUE(instance_->ReplayBaseFacts().ok());
  // Journal replay rebuilds the identical model: the retained fingerprints
  // still classify every group clean, so the post-restart solve goes
  // straight to the incumbent instead of a cold solve.
  auto out = instance_->Solve(Incremental());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out.value().incr_fallback);
  EXPECT_EQ(out.value().incr_dirty, 0);
  EXPECT_EQ(instance_->incremental_state().fingerprints, before);
}

TEST_F(IncrementalSolveTest, RestartWithoutRetentionFallsBackCold) {
  ASSERT_TRUE(instance_->Solve(Incremental()).ok());
  ASSERT_TRUE(instance_->Crash().ok());
  ASSERT_TRUE(instance_->Restart(/*retain_warm_start=*/false).ok());
  ASSERT_TRUE(instance_->ReplayBaseFacts().ok());
  EXPECT_TRUE(instance_->incremental_state().fingerprints.empty());
  auto out = instance_->Solve(Incremental());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value().incr_fallback);
}

TEST_F(IncrementalSolveTest, ResetWarmStartClearsFingerprints) {
  ASSERT_TRUE(instance_->Solve(Incremental()).ok());
  ASSERT_FALSE(instance_->incremental_state().fingerprints.empty());
  instance_->reset_warm_start();
  EXPECT_TRUE(instance_->incremental_state().fingerprints.empty());
}

TEST_F(IncrementalSolveTest, TouchedTablesTrackTheJournalWindow) {
  // SetUp journaled cap + slot + weight; the window closes with the solve.
  EXPECT_EQ(instance_->touched_tables().size(), 3u);
  ASSERT_TRUE(instance_->Solve(Incremental()).ok());
  EXPECT_TRUE(instance_->touched_tables().empty());
  ChangeCap(3, 99);
  ASSERT_EQ(instance_->touched_tables().size(), 1u);
  EXPECT_EQ(instance_->touched_tables()[0], "cap");
}

TEST_F(IncrementalSolveTest, UnchangedResolveReusesTheWholeSolve) {
  auto first = instance_->Solve(Incremental());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().incr_reused);
  // Input tables content-unchanged: the cached output is served without a
  // model build or search.
  auto out = instance_->Solve(Incremental());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value().incr_reused);
  EXPECT_TRUE(out.value().warm_started);
  EXPECT_EQ(out.value().incr_dirty, 0);
  EXPECT_EQ(out.value().stats.nodes, 0u);
  EXPECT_DOUBLE_EQ(out.value().objective, first.value().objective);
  // A reused solve leaves the engine at the same fixed point, so the next
  // unchanged solve reuses again.
  auto third = instance_->Solve(Incremental());
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(third.value().incr_reused);
}

TEST_F(IncrementalSolveTest, FactDeltaInvalidatesReuseUntilContentReturns) {
  ASSERT_TRUE(instance_->Solve(Incremental()).ok());
  ChangeCap(2, 30);
  auto out = instance_->Solve(Incremental());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out.value().incr_reused);
  EXPECT_EQ(out.value().incr_dirty, 1);
  // A delete + reinsert of the same fact lands the table back on the
  // snapshotted content: the hash is over the visible set, not the
  // operation history, so reuse re-engages.
  ASSERT_TRUE(instance_->DeleteFact("cap", R({2, 30})).ok());
  ASSERT_TRUE(instance_->InsertFact("cap", R({2, 30})).ok());
  auto again = instance_->Solve(Incremental());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().incr_reused);
  EXPECT_DOUBLE_EQ(again.value().objective, out.value().objective);
}

TEST_F(IncrementalSolveTest, KnobChangeInvalidatesReuse) {
  // Same inputs, different solve options: the cached output no longer
  // describes what this solve would produce. The reuse check compares
  // every SolveOptions field, including ones no hand-kept key listed.
  for (auto change : {+[](SolveOptions* o) { o->seed += 1; },
                      +[](SolveOptions* o) {
                        o->naive_propagation = !o->naive_propagation;
                      }}) {
    ASSERT_TRUE(instance_->Solve(Incremental()).ok());
    auto again = instance_->Solve(Incremental());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_TRUE(again.value().incr_reused);
    SolveOptions o = instance_->solve_options();
    change(&o);
    instance_->set_solve_options(o);
    auto out = instance_->Solve(Incremental());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_FALSE(out.value().incr_reused);
  }
}

TEST_F(IncrementalSolveTest, WarmResolveReplaysOnAFreshInstance) {
  // Incremental off: the second solve really re-searches (no whole-solve
  // reuse), warm-started from the first solve's incumbent. It must keep the
  // cold optimum, and the whole two-solve sequence must replay identically
  // on a fresh instance.
  auto run_pair = [this](SolveOutput* first, SolveOutput* second) {
    Instance inst(0, &program_);
    ASSERT_TRUE(inst.Init().ok());
    for (int g = 0; g < kGroups; ++g) {
      ASSERT_TRUE(inst.InsertFact("cap", R({g, kDefaultCap})).ok());
      for (int i = 0; i < kSlots; ++i) {
        ASSERT_TRUE(inst.InsertFact("slot", R({g, i})).ok());
        ASSERT_TRUE(
            inst.InsertFact("weight", R({g, i, WeightOf(g, i)})).ok());
      }
    }
    auto a = inst.Solve();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = inst.Solve();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    *first = a.value();
    *second = b.value();
  };
  SolveOutput a1, a2, b1, b2;
  run_pair(&a1, &a2);
  run_pair(&b1, &b2);
  EXPECT_DOUBLE_EQ(a1.objective, ColdObjective({}));
  EXPECT_DOUBLE_EQ(a2.objective, a1.objective);
  EXPECT_FALSE(a1.warm_started);
  EXPECT_TRUE(a2.warm_started);
  EXPECT_FALSE(a2.incr_reused);
  // Replay determinism: identical sequence, identical search.
  EXPECT_EQ(b1.stats.nodes, a1.stats.nodes);
  EXPECT_EQ(b2.stats.nodes, a2.stats.nodes);
  EXPECT_DOUBLE_EQ(b1.objective, a1.objective);
  EXPECT_DOUBLE_EQ(b2.objective, a2.objective);
}

TEST(CommonConfigTest, HelpersMapSharedSettings) {
  apps::CommonConfig c;
  c.seed = 42;
  c.link_loss_prob = 0.25;
  System::Options sys = apps::MakeSystemOptions(c);
  EXPECT_EQ(sys.seed, 42u);
  EXPECT_DOUBLE_EQ(sys.default_link.drop_prob, 0.25);

  c.solver_max_iterations = 9;
  SolveOptions base;
  base.time_limit_ms = 123;
  base.backend = solver::Backend::kLns;
  SolveOptions o = apps::OverlaySolveOptions(c, base, /*time_limit_ms=*/-1);
  EXPECT_DOUBLE_EQ(o.time_limit_ms, 123);
  EXPECT_EQ(o.backend, solver::Backend::kLns);
  EXPECT_EQ(o.max_iterations, 9u);
  o = apps::OverlaySolveOptions(c, base, /*time_limit_ms=*/55);
  EXPECT_DOUBLE_EQ(o.time_limit_ms, 55);

  c.batch_links = true;
  SolveRequest req = apps::MakeSolveRequest(c, 2);
  EXPECT_EQ(req.mode, SolveMode::kBatched);
  EXPECT_EQ(req.group_key_prefix, 2);
  c.batch_links = false;
  req = apps::MakeSolveRequest(c, 2);
  EXPECT_EQ(req.mode, SolveMode::kFull);
  EXPECT_EQ(req.group_key_prefix, 0);
}

// The scenario defaults inherit the shared settings but keep their
// historical per-scenario seeds.
TEST(CommonConfigTest, ScenarioSeedsKeepHistoricalDefaults) {
  EXPECT_EQ(apps::FtsConfig{}.seed, 11u);
  EXPECT_TRUE(apps::FtsConfig{}.knobs.empty());
}

// Three rounds of kIncremental solves on a two-node traced System running
// the grouped program, reaching all three outcomes: both nodes solve cold
// first; then node 0's group 2 cap changes (node 0 solves cold, node 1
// reuses its output); then node 1 restarts with its warm state retained
// (its fingerprints are clean, so it accepts the warm incumbent) while
// node 0 reuses.
std::string RunIncrementalTrace() {
  auto compiled = colog::CompileColog(kGrouped);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return "";
  colog::CompiledProgram program = std::move(compiled).value();
  TraceRecorder rec;
  System sys(&program, 2);
  EXPECT_TRUE(sys.Init().ok());
  sys.SetTrace(&rec);
  for (NodeId n = 0; n < 2; ++n) {
    for (int g = 0; g < kGroups; ++g) {
      EXPECT_TRUE(sys.InsertFact(n, "cap", R({g, kDefaultCap})).ok());
      for (int i = 0; i < kSlots; ++i) {
        EXPECT_TRUE(sys.InsertFact(n, "slot", R({g, i})).ok());
        EXPECT_TRUE(
            sys.InsertFact(n, "weight", R({g, i, WeightOf(g, i)})).ok());
      }
    }
  }
  SolveRequest req;
  req.mode = SolveMode::kIncremental;
  req.group_key_prefix = 1;
  for (int round = 1; round <= 3; ++round) {
    if (round == 2) {
      EXPECT_TRUE(sys.node(0).DeleteFact("cap", R({2, kDefaultCap})).ok());
      EXPECT_TRUE(sys.node(0).InsertFact("cap", R({2, 30})).ok());
    } else if (round == 3) {
      EXPECT_TRUE(sys.CrashNode(1).ok());
      EXPECT_TRUE(sys.RestartNode(1, /*retain_warm_start=*/true).ok());
    }
    for (NodeId n = 0; n < 2; ++n) {
      auto out = sys.node(n).Solve(req);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
    }
    sys.RunUntil(round);
  }
  return rec.ToString();
}

TEST(IncrementalDeterminismTest, TwoRunsProduceByteIdenticalTraces) {
  std::string first = RunIncrementalTrace();
  std::string second = RunIncrementalTrace();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The solve events carry the incremental classification of all three
  // outcomes: cold, reused, and the accepted (feasible, unproven) incumbent.
  EXPECT_NE(first.find("\"incr\""), std::string::npos);
  EXPECT_NE(first.find("\"fallback\":1"), std::string::npos);
  EXPECT_NE(first.find("\"reused\":1"), std::string::npos);
  EXPECT_NE(first.find("\"status\":\"feasible\""), std::string::npos);
}

}  // namespace
}  // namespace cologne::runtime
