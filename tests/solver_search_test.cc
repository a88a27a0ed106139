// Tests for the search core: the soft-deadline regression (honoured without
// a global time limit), ApplyBound saturation at the INT64 extremes
// (signed-overflow UB regression, exercised under UBSan in CI), the
// ContextCache proof semantics, cross-solve exhausted-subtree reuse, and
// cache-on/off answer parity.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "solver/context_cache.h"
#include "solver/model.h"
#include "solver/search_internal.h"
#include "solver_test_util.h"

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

// ---- ContextCache proof semantics ------------------------------------------

TEST(ContextCacheTest, BoundedEntryCoversOnlyContainedRegions) {
  ContextCache cache;
  const uint64_t sig = 0xABCDEF0123456789ull;
  // Minimize: entry proves "no solution better (smaller) than 10".
  cache.Store(sig, /*minimize=*/true, /*have_bound=*/true, 10);
  // A caller searching below 10 (or any smaller bound) is covered...
  EXPECT_TRUE(cache.Lookup(sig, true, true, 10));
  EXPECT_TRUE(cache.Lookup(sig, true, true, 5));
  // ...a caller searching below 11 is not (10 itself might exist)...
  EXPECT_FALSE(cache.Lookup(sig, true, true, 11));
  // ...and a caller wanting *any* extension is never refuted by a bound.
  EXPECT_FALSE(cache.Lookup(sig, true, false, 0));
  // Unknown signature: miss.
  EXPECT_FALSE(cache.Lookup(sig ^ 1, true, true, 5));
}

TEST(ContextCacheTest, BoundedEntryMaximizeMirror) {
  ContextCache cache;
  const uint64_t sig = 0x1234ull;
  // Maximize: entry proves "no solution better (larger) than 10".
  cache.Store(sig, /*minimize=*/false, /*have_bound=*/true, 10);
  EXPECT_TRUE(cache.Lookup(sig, false, true, 10));
  EXPECT_TRUE(cache.Lookup(sig, false, true, 15));
  EXPECT_FALSE(cache.Lookup(sig, false, true, 9));
}

TEST(ContextCacheTest, UnconditionalEntryRefutesEverything) {
  ContextCache cache;
  const uint64_t sig = 0x5EEDull;
  cache.Store(sig, true, /*have_bound=*/false, 0);
  EXPECT_TRUE(cache.Lookup(sig, true, false, 0));
  EXPECT_TRUE(cache.Lookup(sig, true, true, -1000));
  EXPECT_TRUE(cache.Lookup(sig, true, true, 1000));
}

TEST(ContextCacheTest, RestoreKeepsTheStrongerProof) {
  ContextCache cache;
  const uint64_t sig = 0xF00Dull;
  // Minimize: a larger bound excludes more solutions, i.e. is stronger.
  cache.Store(sig, true, true, 5);
  EXPECT_FALSE(cache.Lookup(sig, true, true, 10));
  cache.Store(sig, true, true, 10);  // strengthen in place
  EXPECT_TRUE(cache.Lookup(sig, true, true, 10));
  EXPECT_EQ(cache.entries(), 1u);
  cache.Store(sig, true, true, 3);  // weaker re-store must not regress
  EXPECT_TRUE(cache.Lookup(sig, true, true, 10));
  // Unconditional dominates any bound.
  cache.Store(sig, true, false, 0);
  EXPECT_TRUE(cache.Lookup(sig, true, false, 0));
  cache.Store(sig, true, true, 7);  // bounded re-store keeps unconditional
  EXPECT_TRUE(cache.Lookup(sig, true, false, 0));
}

TEST(ContextCacheTest, ModelKeyNamespacesEntries) {
  ContextCache cache;
  const uint64_t sig = 0xBEEFull;
  cache.set_model_key(0x1111);
  cache.Store(sig, true, false, 0);
  ASSERT_TRUE(cache.Lookup(sig, true, false, 0));
  // A fact delta that changes any group fingerprint re-keys the namespace:
  // every old entry silently stops matching — no sweep needed.
  cache.set_model_key(0x2222);
  EXPECT_FALSE(cache.Lookup(sig, true, false, 0));
  cache.set_model_key(0x1111);
  EXPECT_TRUE(cache.Lookup(sig, true, false, 0));
}

TEST(ContextCacheTest, ClearDropsEntriesKeepsModelKey) {
  ContextCache cache;
  cache.set_model_key(42);
  cache.Store(1, true, false, 0);
  cache.Store(2, true, false, 0);
  EXPECT_EQ(cache.entries(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.Lookup(1, true, false, 0));
  EXPECT_EQ(cache.model_key(), 42u);
}

TEST(ContextCacheTest, LazyAllocationAndCapacityRounding) {
  ContextCache cache(100);
  EXPECT_EQ(cache.capacity(), 128u) << "rounded up to a power of two";
  EXPECT_EQ(ContextCache(1).capacity(), 64u) << "minimum table size";
  EXPECT_EQ(cache.MemoryBytes(), 0u) << "table is allocated on first use";
  cache.Store(7, true, false, 0);
  EXPECT_GT(cache.MemoryBytes(), 0u);
}

TEST(ContextCacheTest, EvictionIsBoundedAndKeepsTheNewestEntry) {
  ContextCache cache(64);
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t sig = 0x9E3779B97F4A7C15ull * (i + 1);
    cache.Store(sig, true, false, 0);
    // A freshly stored proof is always findable (the deterministic victim
    // rule replaces a slot in the probe window, never drops the new entry).
    EXPECT_TRUE(cache.Lookup(sig, true, false, 0)) << "i=" << i;
  }
  EXPECT_LE(cache.entries(), cache.capacity());
}

// ---- Cache-enabled search --------------------------------------------------

// The cross-restart / cross-solve payoff: a second solve of the same model,
// warm-started with the first solve's optimum, hits the root proof stored
// when the first solve exhausted the tree and skips the search entirely.
TEST(ContextCacheSearchTest, CrossSolveCacheSkipsExhaustedTree) {
  auto m = MakeACloudModel(6, 3);
  ContextCache cache;
  Model::Options o;
  o.time_limit_ms = 0;
  o.context_cache = &cache;

  Solution first = m->Solve(o);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_GT(first.stats.cache_stores, 0u);
  EXPECT_EQ(first.stats.cache_hits, 0u) << "cold cache cannot hit";
  EXPECT_GT(first.stats.cache_mem_bytes, 0u);

  Model::Options o2 = o;
  o2.warm_start = first.values;
  Solution second = m->Solve(o2);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_EQ(second.objective, first.objective);
  EXPECT_GE(second.stats.cache_hits, 1u)
      << "the exhausted-root proof from solve 1 must prune solve 2";
  EXPECT_LT(second.stats.nodes, first.stats.nodes)
      << "solve 2 re-searched a tree solve 1 already exhausted";
}

// With the cache the *work* changes but the *answer* must not: same status
// and objective as the cache-free reference, across plain and Luby-restart
// solves (restarts are where intra-solve reuse actually fires).
TEST(ContextCacheSearchTest, CacheOnMatchesCacheOffAnswers) {
  for (uint64_t restart_base : {uint64_t{0}, uint64_t{64}}) {
    auto run = [&](ContextCache* cache) {
      auto m = MakeACloudModel(6, 3);
      Model::Options o;
      o.time_limit_ms = 0;
      o.restart_base_nodes = restart_base;
      o.seed = 0x5EED;
      o.context_cache = cache;
      return m->Solve(o);
    };
    Solution off = run(nullptr);
    ContextCache cache;
    Solution on = run(&cache);
    ASSERT_EQ(off.status, SolveStatus::kOptimal);
    EXPECT_EQ(on.status, off.status) << "restart_base=" << restart_base;
    EXPECT_EQ(on.objective, off.objective) << "restart_base=" << restart_base;
    EXPECT_EQ(off.stats.cache_hits, 0u);
    EXPECT_EQ(off.stats.cache_stores, 0u);
    if (restart_base > 0) {
      // Restart dives revisit contexts earlier dives exhausted: the cache
      // must actually fire (this is deterministic — fixed seed, no clock).
      EXPECT_GT(on.stats.cache_hits, 0u);
    }
  }
}

}  // namespace
}  // namespace cologne::solver
