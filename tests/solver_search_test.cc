// Tests for the search core: the soft-deadline regression (honoured without
// a global time limit), ApplyBound saturation at the INT64 extremes
// (signed-overflow UB regression, exercised under UBSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "solver/model.h"
#include "solver/search_internal.h"

namespace cologne::solver {
namespace {

using internal::DiveEnd;
using internal::Incumbent;
using internal::SearchContext;

// Chain model with interleaved failures (the DeepBacktrackingDive shape):
// exhausting it takes far more nodes than any budget these tests grant, so a
// dive that returns early did so because of the limit under test.
std::unique_ptr<Model> MakeChainModel(int vars, std::vector<IntVar>* out) {
  auto m = std::make_unique<Model>();
  LinExpr sum;
  for (int i = 0; i < vars; ++i) {
    IntVar x = m->NewInt(0, 2);
    m->MarkDecision(x);
    out->push_back(x);
    sum += LinExpr(x);
  }
  for (int i = 0; i + 1 < vars; ++i) {
    m->PostRel(LinExpr((*out)[static_cast<size_t>(i)]) +
                   LinExpr((*out)[static_cast<size_t>(i + 1)]),
               Rel::kLe, LinExpr(3));
  }
  m->Maximize(sum);
  return m;
}

// Regression for the soft-deadline hoist: soft_deadline_ms used to be
// checked only inside the `time_limit_ms > 0` branch, so an unlimited solve
// (time_limit_ms == 0) ignored it entirely and the dive ran to exhaustion.
TEST(SoftDeadlineTest, HonoredWithoutGlobalTimeLimit) {
  std::vector<IntVar> xs;
  auto m = MakeChainModel(100, &xs);
  Model::Options o;
  o.time_limit_ms = 0;  // unlimited wall clock: the historical dead-code path
  TemplateCache templates;
  SearchContext ctx(*m, templates.Bind(*m), o);
  ASSERT_TRUE(ctx.PropagateRoot());

  // The deadline only applies once an incumbent exists; seed one first.
  Incumbent inc;
  SearchContext::DiveLimits seed;
  seed.stop_on_first = true;
  seed.bound_objective = false;
  ASSERT_EQ(ctx.Dive(seed, &inc), DiveEnd::kFirstSolution);
  ASSERT_TRUE(inc.found);

  SearchContext::DiveLimits limits;
  limits.bound_objective = true;
  limits.soft_deadline_ms = 1e-6;  // already elapsed by the time we dive
  DiveEnd end = ctx.Dive(limits, &inc);
  EXPECT_EQ(end, DiveEnd::kCutoff)
      << "soft deadline ignored when time_limit_ms == 0";
  // The deadline is polled every 256 nodes; a dive that blew past a few
  // polls was not honouring it (exhausting this model takes millions).
  EXPECT_LT(ctx.stats.nodes, 2'000u);
  EXPECT_EQ(ctx.store().level(), ctx.root_level()) << "store not restored";
}

// Regression for the bound-saturation fix: an incumbent at the extreme
// representable objective made ApplyBound compute INT64_MIN - 1 /
// INT64_MAX + 1 — signed-overflow UB. "Strictly better than the extreme
// value" is unsatisfiable, so the clamp must saturate to failure instead.
TEST(ApplyBoundTest, SaturatesAtInt64MinWhenMinimizing) {
  Model m;
  IntVar x = m.NewInt(0, 10);
  m.MarkDecision(x);
  m.Minimize(LinExpr(x));
  Model::Options o;
  o.time_limit_ms = 0;
  TemplateCache templates;
  SearchContext ctx(m, templates.Bind(m), o);
  ASSERT_TRUE(ctx.PropagateRoot());
  ASSERT_TRUE(ctx.minimizing());

  ctx.store().PushLevel();
  Incumbent inc;
  inc.found = true;
  inc.objective = std::numeric_limits<int64_t>::min();
  std::vector<int32_t> changed;
  EXPECT_FALSE(ctx.ApplyBound(&changed, inc))
      << "nothing is strictly better than INT64_MIN";
  ctx.store().Backtrack();

  // Sanity: an ordinary incumbent still clamps instead of failing.
  ctx.store().PushLevel();
  inc.objective = 5;
  changed.clear();
  EXPECT_TRUE(ctx.ApplyBound(&changed, inc));
  EXPECT_EQ(ctx.store().dom(m.objective_var().id).max(), 4);
  ctx.store().Backtrack();
}

TEST(ApplyBoundTest, SaturatesAtInt64MaxWhenMaximizing) {
  Model m;
  IntVar x = m.NewInt(0, 10);
  m.MarkDecision(x);
  m.Maximize(LinExpr(x));
  Model::Options o;
  o.time_limit_ms = 0;
  TemplateCache templates;
  SearchContext ctx(m, templates.Bind(m), o);
  ASSERT_TRUE(ctx.PropagateRoot());
  ASSERT_TRUE(ctx.maximizing());

  ctx.store().PushLevel();
  Incumbent inc;
  inc.found = true;
  inc.objective = std::numeric_limits<int64_t>::max();
  std::vector<int32_t> changed;
  EXPECT_FALSE(ctx.ApplyBound(&changed, inc))
      << "nothing is strictly better than INT64_MAX";
  ctx.store().Backtrack();
}

}  // namespace
}  // namespace cologne::solver
