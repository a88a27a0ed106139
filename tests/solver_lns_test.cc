// Tests for the two search backends: LNS determinism under a fixed seed,
// warm-start reuse across Solve calls, LNS-vs-B&B quality at equal time
// budgets on the paper's two model shapes (ACloud assignment, wireless
// channel selection), the kSatisfy fallback, and a
// property sweep where exhaustive B&B is ground truth that LNS must never
// beat.
#include "solver/lns.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "solver/model.h"
#include "solver_test_util.h"

namespace cologne::solver {
namespace {

// Wireless-shaped model: per-link channel decisions in [1, channels],
// minimize the number of adjacent links on interfering (distance < 2)
// channels.
std::unique_ptr<Model> MakeWirelessModel(int links, int channels) {
  auto m = std::make_unique<Model>();
  std::vector<IntVar> ch;
  for (int i = 0; i < links; ++i) {
    IntVar c = m->NewInt(1, channels);
    m->MarkDecision(c);
    ch.push_back(c);
  }
  LinExpr cost;
  for (int i = 0; i + 1 < links; ++i) {
    IntVar diff = m->MakeAbs(LinExpr(ch[static_cast<size_t>(i)]) -
                             LinExpr(ch[static_cast<size_t>(i + 1)]));
    cost += LinExpr(m->ReifyRel(LinExpr(diff), Rel::kLt, LinExpr(2)));
  }
  m->Minimize(cost);
  return m;
}

TEST(LnsTest, FeasibleOnACloudShape) {
  auto m = MakeACloudModel(12, 4);
  Model::Options o;
  o.backend = Backend::kLns;
  // Iteration-capped, no wall clock: the improvement loop always runs even
  // on a slow sanitizer build or a loaded CI runner.
  o.time_limit_ms = 0;
  o.max_iterations = 40;
  Solution s = m->Solve(o);
  ASSERT_TRUE(s.has_solution());
  EXPECT_EQ(s.backend, Backend::kLns);
  EXPECT_GT(s.stats.iterations, 0u);
  // Every VM placed on exactly one host.
  for (int i = 0; i < 12; ++i) {
    int64_t placed = 0;
    for (int h = 0; h < 4; ++h) {
      placed += s.values[static_cast<size_t>(i * 4 + h)];
    }
    EXPECT_EQ(placed, 1) << "vm " << i;
  }
}

TEST(LnsTest, DeterministicUnderFixedSeed) {
  // No wall-clock limit + an iteration cap makes the run machine
  // independent: identical seeds must reproduce identical solutions.
  auto run = [](uint64_t seed) {
    auto m = MakeACloudModel(10, 4);
    Model::Options o;
    o.backend = Backend::kLns;
    o.time_limit_ms = 0;
    o.max_iterations = 50;
    o.seed = seed;
    return m->Solve(o);
  };
  Solution a = run(42);
  Solution b = run(42);
  ASSERT_TRUE(a.has_solution());
  ASSERT_TRUE(b.has_solution());
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.stats.nodes, b.stats.nodes);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
}

TEST(LnsTest, ObjectiveBeatsBnbAtEqualNodeBudget) {
  // Deterministic form of the equal-budget comparison: the same node budget
  // for both backends with no wall clock involved, so the assertion cannot
  // jitter. A model too big to search exhaustively in the budget — the
  // regime the ISSUE targets, where anytime local search dominates.
  auto bnb_model = MakeACloudModel(28, 4);
  Model::Options bo;
  bo.time_limit_ms = 0;
  bo.node_limit = 6000;
  Solution bnb = bnb_model->Solve(bo);

  auto lns_model = MakeACloudModel(28, 4);
  Model::Options lo = bo;
  lo.backend = Backend::kLns;
  Solution lns = lns_model->Solve(lo);

  ASSERT_TRUE(bnb.has_solution());
  ASSERT_TRUE(lns.has_solution());
  EXPECT_LE(lns.objective, bnb.objective)
      << "LNS incumbent must be at least as good as B&B's at an equal budget";
}

TEST(LnsTest, ObjectiveNoWorseThanBnbAtEqual100MsBudget) {
  // Wall-clock form at the ISSUE's 100 ms: both backends converge to
  // near-identical quality here, so allow a 1% slack for scheduler jitter
  // around ties (the deterministic node-budget test above is strict).
  if (kSanitizerBuild) {
    GTEST_SKIP() << "wall-clock comparison skipped under sanitizers";
  }
  const double budget_ms = 100;
  auto bnb_model = MakeACloudModel(28, 4);
  Model::Options bo;
  bo.time_limit_ms = budget_ms;
  Solution bnb = bnb_model->Solve(bo);

  auto lns_model = MakeACloudModel(28, 4);
  Model::Options lo;
  lo.backend = Backend::kLns;
  lo.time_limit_ms = budget_ms;
  Solution lns = lns_model->Solve(lo);

  ASSERT_TRUE(bnb.has_solution());
  ASSERT_TRUE(lns.has_solution());
  EXPECT_LE(lns.objective, bnb.objective + bnb.objective / 100);
}

TEST(LnsTest, ObjectiveNoWorseThanBnbOnWirelessShape) {
  // Equal node budgets (the deterministic equal-budget form, as above) so
  // the strict comparison cannot jitter on a loaded CI runner.
  auto bnb_model = MakeWirelessModel(32, 8);
  Model::Options bo;
  bo.time_limit_ms = 0;
  bo.node_limit = 6000;
  Solution bnb = bnb_model->Solve(bo);

  auto lns_model = MakeWirelessModel(32, 8);
  Model::Options lo = bo;
  lo.backend = Backend::kLns;
  Solution lns = lns_model->Solve(lo);

  ASSERT_TRUE(bnb.has_solution());
  ASSERT_TRUE(lns.has_solution());
  EXPECT_LE(lns.objective, bnb.objective);
}

TEST(LnsTest, SatisfySenseFallsBackToFirstSolution) {
  // kSatisfy models must return promptly with the first feasible assignment
  // instead of spinning neighborhoods (the bridge relies on this when the
  // goal table is empty).
  Model m;
  IntVar x = m.NewInt(0, 9);
  IntVar y = m.NewInt(0, 9);
  m.MarkDecision(x);
  m.MarkDecision(y);
  m.PostRel(LinExpr(x) + LinExpr(y), Rel::kEq, LinExpr(7));
  Model::Options o;
  o.backend = Backend::kLns;
  Solution s = m.Solve(o);
  ASSERT_TRUE(s.has_solution());
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.ValueOf(x) + s.ValueOf(y), 7);
  EXPECT_EQ(s.stats.iterations, 0u) << "no improvement loop for kSatisfy";
}

TEST(LnsTest, InfeasibleModelReported) {
  Model m;
  IntVar x = m.NewInt(0, 5);
  m.MarkDecision(x);
  m.PostRel(LinExpr(x), Rel::kGt, LinExpr(10));
  Model::Options o;
  o.backend = Backend::kLns;
  Solution s = m.Solve(o);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(WarmStartTest, HintSeedsEqualIncumbentUnderTinyNodeLimit) {
  // First solve to optimality, then re-solve with the solution as a hint and
  // a node limit too small to find anything from scratch: the warm start
  // must carry the incumbent across.
  auto m = MakeACloudModel(8, 4);
  Model::Options full;
  full.time_limit_ms = 5000;
  Solution s1 = m->Solve(full);
  ASSERT_TRUE(s1.has_solution());

  Model::Options cold;
  cold.node_limit = 3;
  Solution s_cold = m->Solve(cold);
  EXPECT_FALSE(s_cold.has_solution())
      << "3 nodes cannot complete a 32-decision assignment from scratch";

  Model::Options warm = cold;
  warm.warm_start = s1.values;
  Solution s2 = m->Solve(warm);
  ASSERT_TRUE(s2.has_solution());
  EXPECT_EQ(s2.objective, s1.objective);
}

TEST(WarmStartTest, StaleHintsAreRepairedNotTrusted) {
  // A hint that violates the constraints must not poison the solve.
  Model m;
  IntVar x = m.NewInt(0, 9);
  IntVar y = m.NewInt(0, 9);
  m.MarkDecision(x);
  m.MarkDecision(y);
  m.PostRel(LinExpr(x) + LinExpr(y), Rel::kEq, LinExpr(4));
  m.Minimize(LinExpr(x));
  Model::Options o;
  o.warm_start = {9, 9};  // infeasible pair
  Solution s = m.Solve(o);
  ASSERT_TRUE(s.has_solution());
  EXPECT_EQ(s.objective, 0);
  EXPECT_EQ(s.ValueOf(x) + s.ValueOf(y), 4);
}

TEST(WarmStartTest, LnsUsesHintAsInitialAssignment) {
  auto m = MakeACloudModel(8, 4);
  Model::Options full;
  full.time_limit_ms = 5000;
  Solution s1 = m->Solve(full);
  ASSERT_TRUE(s1.has_solution());

  Model::Options warm;
  warm.backend = Backend::kLns;
  warm.time_limit_ms = 0;
  warm.max_iterations = 5;
  warm.warm_start = s1.values;
  Solution s2 = m->Solve(warm);
  ASSERT_TRUE(s2.has_solution());
  EXPECT_LE(s2.objective, s1.objective)
      << "starting from the optimum, LNS can never end up worse";
}

TEST(BackendTest, NamesRoundTrip) {
  EXPECT_STREQ(BackendName(Backend::kBranchAndBound), "bnb");
  EXPECT_STREQ(BackendName(Backend::kLns), "lns");
  Backend b;
  ASSERT_TRUE(ParseBackend("lns", &b));
  EXPECT_EQ(b, Backend::kLns);
  ASSERT_TRUE(ParseBackend("bnb", &b));
  EXPECT_EQ(b, Backend::kBranchAndBound);
  EXPECT_FALSE(ParseBackend("tabu", &b));
}

int64_t Eval(const LinExpr& e, const std::vector<int64_t>& values) {
  int64_t v = e.constant;
  for (const auto& [coef, var] : e.terms) {
    v += coef * values[static_cast<size_t>(var.id)];
  }
  return v;
}

// A small random COP: a handful of int decisions, a few random linear
// constraints, and a random linear objective in a random sense. Domains stay
// tiny so the exhaustive B&B reference solve finishes instantly; some seeds
// yield infeasible models on purpose (feasibility agreement is part of the
// property).
struct RandomCop {
  std::unique_ptr<Model> model;
  LinExpr objective;
  bool maximize = false;
};

RandomCop MakeRandomCop(uint64_t seed) {
  RandomCop cop;
  cop.model = std::make_unique<Model>();
  Model& m = *cop.model;
  Rng rng(SplitMix64(seed ^ 0xc0ffee11ull));

  const int n = static_cast<int>(rng.UniformInt(2, 5));
  std::vector<IntVar> vars;
  for (int i = 0; i < n; ++i) {
    IntVar v = m.NewInt(0, rng.UniformInt(2, 6));
    m.MarkDecision(v);
    vars.push_back(v);
  }

  const int constraints = static_cast<int>(rng.UniformInt(1, 3));
  for (int c = 0; c < constraints; ++c) {
    LinExpr lhs;
    for (const IntVar& v : vars) {
      int64_t coef = rng.UniformInt(0, 2) - 1;  // -1, 0, or 1
      if (coef != 0) lhs += LinExpr::Term(coef, v);
    }
    if (lhs.terms.empty()) lhs += LinExpr(vars[0]);
    const Rel rel = rng.Bernoulli(0.5) ? Rel::kLe : Rel::kGe;
    m.PostRel(lhs, rel, LinExpr(rng.UniformInt(0, 6) - 2));
  }

  for (const IntVar& v : vars) {
    cop.objective += LinExpr::Term(rng.UniformInt(1, 3), v);
  }
  cop.maximize = rng.Bernoulli(0.5);
  if (cop.maximize) {
    m.Maximize(cop.objective);
  } else {
    m.Minimize(cop.objective);
  }
  return cop;
}

Solution SolveCapped(Model& m, Backend backend, uint64_t seed) {
  Model::Options o;
  o.backend = backend;
  // Iteration-capped, no wall clock: deterministic on any machine.
  o.time_limit_ms = 0;
  o.max_iterations = 25;
  o.seed = seed;
  return m.Solve(o);
}

// For every seeded random model, exhaustive B&B is ground truth. LNS must
// agree on feasibility, its reported objective must re-evaluate from its
// assignment, and — sign aware in both senses — it must never beat the
// proved optimum.
TEST(LnsPropertyTest, NeverBeatsProvedOptimum) {
  const uint64_t kModels = kSanitizerBuild ? 12 : 30;
  int optimal = 0;
  int infeasible = 0;
  for (uint64_t seed = 1; seed <= kModels; ++seed) {
    RandomCop ref = MakeRandomCop(seed);
    Solution truth = SolveCapped(*ref.model, Backend::kBranchAndBound, seed);
    // No wall clock and no iteration pressure on the tree phase: the tiny
    // model is solved to exhaustion, one way or the other.
    ASSERT_TRUE(truth.status == SolveStatus::kOptimal ||
                truth.status == SolveStatus::kInfeasible)
        << "seed " << seed << ": " << SolveStatusName(truth.status);

    RandomCop cop = MakeRandomCop(seed);
    Solution s = SolveCapped(*cop.model, Backend::kLns, seed);
    if (truth.status == SolveStatus::kInfeasible) {
      ++infeasible;
      EXPECT_FALSE(s.has_solution())
          << "seed " << seed << ": lns claims a solution for a "
          << "proved-infeasible model";
      continue;
    }
    ++optimal;
    // Feasible models have an unbounded first dive: a solution is
    // guaranteed, not merely likely.
    ASSERT_TRUE(s.has_solution()) << "seed " << seed;
    EXPECT_EQ(s.objective, Eval(cop.objective, s.values))
        << "seed " << seed
        << ": objective does not re-evaluate from its assignment";
    if (cop.maximize) {
      EXPECT_LE(s.objective, truth.objective)
          << "seed " << seed << ": lns beats the proved maximum";
    } else {
      EXPECT_GE(s.objective, truth.objective)
          << "seed " << seed << ": lns beats the proved minimum";
    }
  }
  // The generator must actually exercise both arms of the property.
  EXPECT_GT(optimal, 0);
  EXPECT_GT(infeasible, 0);
}

}  // namespace
}  // namespace cologne::solver
