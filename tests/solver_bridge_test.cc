// Property tests for the solver bridge: full Colog pipeline vs brute-force
// enumeration on randomized instances, coverage of every symbolic aggregate
// construction (objective and substituted output rows), the join paths
// (index probes, scans, symbolic unification), pinned model fingerprints
// for the case-study programs and the evaluation paths they leave out, the
// model-template cache (hits reproduce the pins, structural changes miss,
// long solve sequences match cache-less builds), and an independent
// re-derivation of every solve's output (bridge_oracle.h) over these
// programs and randomized case-study instances.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <tuple>

#include "apps/programs.h"
#include "bridge_oracle.h"
#include "colog/planner.h"
#include "common/rng.h"
#include "runtime/instance.h"
#include "runtime/system.h"
#include "solver/template_cache.h"

namespace cologne {
// Readable gtest output for Values (and so for rows and tables).
void PrintTo(const Value& v, std::ostream* os) { *os << v.ToString(); }
}  // namespace cologne

namespace cologne::runtime {
namespace {

Row R(std::initializer_list<int64_t> xs) {
  Row r;
  for (int64_t x : xs) r.push_back(Value::Int(x));
  return r;
}

using Tables = std::map<std::string, std::vector<Row>>;

// Check one solve's output against the independent oracle. The engine must
// be the one the solve read (no writeback since).
void ExpectOracleHolds(const colog::CompiledProgram& prog,
                       const datalog::Engine& engine, const SolveOutput& out) {
  ASSERT_TRUE(out.has_solution());
  std::vector<std::string> problems =
      oracle::BridgeOracle(prog, engine, out).Check();
  std::string all;
  for (const std::string& p : problems) all += "\n  " + p;
  EXPECT_TRUE(problems.empty()) << all;
}

// One deterministic solve straight through SolverBridge (no writeback),
// checked by the oracle.
void ExpectOracleHolds(const colog::CompiledProgram& prog,
                       datalog::Engine* engine, int prefix = 0) {
  SolveOptions opts;
  opts.time_limit_ms = 0;
  opts.node_limit = 2000;
  opts.group_key_prefix = prefix;
  auto out = SolverBridge(&prog, engine).Solve(opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectOracleHolds(prog, *engine, out.value());
}

// Compile `src`, load `facts`, and run one solve; the output tables of the
// solve (in derivation order) are returned through `out`.
void SolveProgram(const char* src,
                  const std::vector<std::pair<std::string, Row>>& facts,
                  SolveOutput* out) {
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (const auto& [table, row] : facts) {
    ASSERT_TRUE(inst.InsertFact(table, row).ok()) << table;
  }
  ExpectOracleHolds(prog, &inst.engine());
  auto solved = inst.Solve();
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  ASSERT_TRUE(solved.value().has_solution());
  *out = std::move(solved).value();
}

// Minimal balance program: minimize the scaled variance of host loads.
const char* kBalance = R"(
goal minimize C in spread(C).
var assign(Vid,Hid,V) forall toAssign(Vid,Hid) domain [0,1].
r1 toAssign(Vid,Hid) <- vm(Vid,Cpu), host(Hid).
d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu), C==V*Cpu.
d2 spread(STDEV<C>) <- hostCpu(Hid,C).
d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
c1 assignCount(Vid,V) -> V==1.
)";

class BridgeVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(BridgeVsBruteForceTest, PipelineOptimumMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  int vms = 3 + GetParam() % 3;    // 3..5
  int hosts = 2 + GetParam() % 2;  // 2..3
  std::vector<int64_t> cpu;
  for (int v = 0; v < vms; ++v) cpu.push_back(rng.UniformInt(10, 60));

  // Brute force: minimal sum of squared deviations over host assignments.
  double best = 1e18;
  std::vector<int> a(static_cast<size_t>(vms), 0);
  while (true) {
    std::vector<double> load(static_cast<size_t>(hosts), 0);
    for (int v = 0; v < vms; ++v) {
      load[static_cast<size_t>(a[static_cast<size_t>(v)])] +=
          static_cast<double>(cpu[static_cast<size_t>(v)]);
    }
    double mean = 0;
    for (double l : load) mean += l;
    mean /= hosts;
    double ss = 0;
    for (double l : load) ss += (l - mean) * (l - mean);
    best = std::min(best, std::sqrt(ss / hosts));
    int i = 0;
    while (i < vms && ++a[static_cast<size_t>(i)] >= hosts) {
      a[static_cast<size_t>(i)] = 0;
      ++i;
    }
    if (i == vms) break;
  }

  auto compiled = colog::CompileColog(kBalance);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (int v = 0; v < vms; ++v) {
    ASSERT_TRUE(
        inst.InsertFact("vm", R({v, cpu[static_cast<size_t>(v)]})).ok());
  }
  for (int h = 0; h < hosts; ++h) {
    ASSERT_TRUE(inst.InsertFact("host", R({h})).ok());
  }
  ExpectOracleHolds(prog, &inst.engine());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  EXPECT_NEAR(out.value().objective, best, 1e-6)
      << "vms=" << vms << " hosts=" << hosts;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BridgeVsBruteForceTest,
                         ::testing::Range(0, 12));

TEST(BridgeAggregateTest, SumAbsMinimizesMagnitudes) {
  const char* src = R"(
goal minimize C in total(C).
var flow(E,F) forall edge(E) domain [-5,5].
d1 total(SUMABS<F>) <- flow(E,F).
d2 net(SUM<F>) <- flow(E,F).
c1 net(F) -> F==3.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (int e = 0; e < 3; ++e) ASSERT_TRUE(inst.InsertFact("edge", R({e})).ok());
  ExpectOracleHolds(prog, &inst.engine());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_DOUBLE_EQ(out.value().objective, 3) << "no cancellation: |sum|=3";
  // The derived rows hold the substituted aggregates: SUMABS over the flow
  // rows, and the plain SUM the constraint pinned.
  const Tables& t = out.value().tables;
  ASSERT_EQ(t.at("flow").size(), 3u);
  int64_t sum = 0, sum_abs = 0;
  for (const Row& row : t.at("flow")) {
    sum += row[1].as_int();
    sum_abs += std::abs(row[1].as_int());
  }
  EXPECT_EQ(t.at("net"), std::vector<Row>{R({sum})});
  EXPECT_EQ(t.at("total"), std::vector<Row>{R({sum_abs})});
  EXPECT_EQ(sum, 3);
}

TEST(BridgeAggregateTest, MaxAggregateMinimizesPeak) {
  const char* src = R"(
goal minimize M in peak(M).
var put(I,B,V) forall slot(I,B) domain [0,1].
d1 cnt(I,SUM<V>) <- put(I,B,V).
c1 cnt(I,V) -> V==1.
d2 load(B,SUM<V>) <- put(I,B,V).
d3 peak(MAX<V>) <- load(B,V).
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  // 4 items, 2 bins: min-max load is 2.
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 2; ++b) {
      ASSERT_TRUE(inst.InsertFact("slot", R({i, b})).ok());
    }
  }
  ExpectOracleHolds(prog, &inst.engine());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_DOUBLE_EQ(out.value().objective, 2);
  // Per-bin loads and the MAX over them, as substituted output rows.
  const Tables& t = out.value().tables;
  std::map<int64_t, int64_t> load;
  for (const Row& row : t.at("put")) load[row[1].as_int()] += row[2].as_int();
  std::vector<Row> want_load;
  int64_t peak = 0;
  for (const auto& [bin, l] : load) {
    want_load.push_back(R({bin, l}));
    peak = std::max(peak, l);
  }
  EXPECT_EQ(t.at("load"), want_load);
  EXPECT_EQ(t.at("peak"), std::vector<Row>{R({peak})});
  EXPECT_EQ(t.at("cnt"),
            (std::vector<Row>{R({0, 1}), R({1, 1}), R({2, 1}), R({3, 1})}));
}

TEST(BridgeAggregateTest, UniqueAggregateConstrainsDistinctValues) {
  const char* src = R"(
goal minimize C in spread(C).
var pick(I,V) forall item(I) domain [1,4].
d1 distinct(UNIQUE<V>) <- pick(I,V).
c1 distinct(N) -> N<=2.
d2 spread(SUM<V>) <- pick(I,V).
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(inst.InsertFact("item", R({i})).ok());
  ExpectOracleHolds(prog, &inst.engine());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  // Minimizing the sum picks all 1s (one distinct value, allowed).
  EXPECT_DOUBLE_EQ(out.value().objective, 5);
  std::set<int64_t> values;
  for (const Row& row : inst.engine().GetTable("pick")->Rows()) {
    values.insert(row[1].as_int());
  }
  EXPECT_LE(values.size(), 2u);
  // The UNIQUE row counts the distinct substituted picks.
  const Tables& t = out.value().tables;
  std::set<int64_t> picked;
  for (const Row& row : t.at("pick")) picked.insert(row[1].as_int());
  EXPECT_EQ(t.at("distinct"),
            std::vector<Row>{R({static_cast<int64_t>(picked.size())})});
  EXPECT_EQ(t.at("spread"), std::vector<Row>{R({5})});
}

TEST(BridgeAggregateTest, StdevGoalReportsTrueStdev) {
  // The model minimizes an integer surrogate; the output carries the true
  // population stdev of the host loads. VMs {10,20,40} on two hosts: the
  // best split is 40 | 10+20, loads {40,30}, stdev 5.
  SolveOutput out;
  SolveProgram(kBalance,
               {{"vm", R({0, 10})},
                {"vm", R({1, 20})},
                {"vm", R({2, 40})},
                {"host", R({0})},
                {"host", R({1})}},
               &out);
  EXPECT_EQ(out.status, solver::SolveStatus::kOptimal);
  std::vector<double> loads;
  for (const Row& row : out.tables.at("hostCpu")) {
    loads.push_back(static_cast<double>(row[1].as_int()));
  }
  ASSERT_EQ(loads.size(), 2u);
  double mean = (loads[0] + loads[1]) / 2;
  double stdev = std::sqrt(((loads[0] - mean) * (loads[0] - mean) +
                            (loads[1] - mean) * (loads[1] - mean)) /
                           2);
  EXPECT_DOUBLE_EQ(stdev, 5.0);
  EXPECT_TRUE(out.has_objective);
  EXPECT_DOUBLE_EQ(out.objective, stdev);
  ASSERT_EQ(out.tables.at("spread").size(), 1u);
  EXPECT_EQ(out.tables.at("spread")[0][0], Value::Double(5.0));
}

TEST(BridgeGoalTest, MaximizeGoal) {
  const char* src = R"(
goal maximize C in value(C).
var take(I,V) forall item(I) domain [0,1].
d1 weight(SUM<W>) <- take(I,V), itemW(I,X), W==V*X.
c1 weight(W) -> W<=10.
d2 value(SUM<P>) <- take(I,V), itemP(I,X), P==V*X.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  // Knapsack: weights {6,5,5}, profits {7,5,5}, cap 10 -> take items 2+3.
  int64_t w[3] = {6, 5, 5}, p[3] = {7, 5, 5};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(inst.InsertFact("item", R({i})).ok());
    ASSERT_TRUE(inst.InsertFact("itemW", R({i, w[i]})).ok());
    ASSERT_TRUE(inst.InsertFact("itemP", R({i, p[i]})).ok());
  }
  ExpectOracleHolds(prog, &inst.engine());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_DOUBLE_EQ(out.value().objective, 10);
}

TEST(BridgeGoalTest, SatisfyGoalFindsAnySolution) {
  const char* src = R"(
goal satisfy.
var color(N,C) forall node(N) domain [1,3].
c1 color(N,C) -> banned(N,B), C!=B.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  for (int n = 0; n < 3; ++n) {
    ASSERT_TRUE(inst.InsertFact("node", R({n})).ok());
    ASSERT_TRUE(inst.InsertFact("banned", R({n, 1})).ok());
    ASSERT_TRUE(inst.InsertFact("banned", R({n, 2})).ok());
  }
  ExpectOracleHolds(prog, &inst.engine());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  // Universal constraint semantics: every banned row applies -> color 3.
  for (const Row& row : inst.engine().GetTable("color")->Rows()) {
    EXPECT_EQ(row[1].as_int(), 3);
  }
}

TEST(BridgeConstraintTest, CrossVariableEqualityViaConstraintBody) {
  // Wireless c2 pattern: a constraint body atom over the var table unifies
  // two solver variables.
  const char* src = R"(
goal minimize S in total(S).
var ch(A,B,C) forall pair(A,B) domain [1,5].
d1 total(SUM<C>) <- ch(A,B,C).
c1 ch(A,B,C) -> ch(B,A,C).
c2 ch(A,B,C) -> lo(A,L), C>=L.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  ASSERT_TRUE(inst.InsertFact("pair", R({1, 2})).ok());
  ASSERT_TRUE(inst.InsertFact("pair", R({2, 1})).ok());
  ASSERT_TRUE(inst.InsertFact("lo", R({1, 1})).ok());
  ASSERT_TRUE(inst.InsertFact("lo", R({2, 4})).ok());
  ExpectOracleHolds(prog, &inst.engine());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  // Symmetry + per-endpoint lower bounds force both directions to 4.
  EXPECT_TRUE(inst.engine().GetTable("ch")->Contains(R({1, 2, 4})));
  EXPECT_TRUE(inst.engine().GetTable("ch")->Contains(R({2, 1, 4})));
}

TEST(BridgeJoinTest, RepeatedSlotInsideOneAtom) {
  // loop(I,V) reads edge(I,I) before I is bound (the scan checks the
  // repeated slot) and loop2 after (both columns probe with the same key);
  // only the self-loops at 0 and 2 qualify.
  const char* src = R"(
goal maximize S in total(S).
var pick(I,V) forall item(I) domain [0,2].
d1 loop(I,V) <- edge(I,I), pick(I,V).
d2 loop2(I,V) <- pick(I,V), edge(I,I).
d3 total(SUM<V>) <- loop(I,V).
c1 loop2(I,V) -> V<=2.
)";
  SolveOutput out;
  SolveProgram(src,
               {{"item", R({0})},
                {"item", R({1})},
                {"item", R({2})},
                {"item", R({3})},
                {"edge", R({0, 0})},
                {"edge", R({0, 1})},
                {"edge", R({1, 2})},
                {"edge", R({2, 2})}},
               &out);
  EXPECT_DOUBLE_EQ(out.objective, 4);
  EXPECT_EQ(out.tables.at("loop"), (std::vector<Row>{R({0, 2}), R({2, 2})}));
  EXPECT_EQ(out.tables.at("loop2"), out.tables.at("loop"));
}

TEST(BridgeJoinTest, ConstantTermsInBodyAtoms) {
  // Constants probe like bound columns: pick(2,V) selects one var row, and
  // w(I,7) keeps only the weight-7 items.
  const char* src = R"(
goal maximize S in total(S).
var pick(I,V) forall item(I) domain [0,3].
d1 fixed(V) <- pick(2,V).
d2 heavy(I,C) <- pick(I,V), w(I,7), C==7*V.
d3 total(SUM<C>) <- heavy(I,C).
c1 fixed(V) -> V==1.
)";
  SolveOutput out;
  SolveProgram(src,
               {{"item", R({0})},
                {"item", R({1})},
                {"item", R({2})},
                {"w", R({0, 7})},
                {"w", R({1, 5})},
                {"w", R({2, 7})}},
               &out);
  EXPECT_EQ(out.tables.at("fixed"), std::vector<Row>{R({1})});
  EXPECT_EQ(out.tables.at("heavy"), (std::vector<Row>{R({0, 21}), R({2, 7})}));
  EXPECT_DOUBLE_EQ(out.objective, 28);
}

TEST(BridgeJoinTest, SecondDerivationOfAHeadReachesLaterProbes) {
  // d1 and d1b both derive `cost`. Derivations run in source order once
  // their inputs exist, so seen1 probes cost(I,...) between the two
  // producers and seen2 after both: seen2 must see d1b's rows too (the
  // index seen1 built is over the shorter table).
  const char* src = R"(
goal maximize S in total(S).
var pick(I,V) forall item(I) domain [0,1].
d1 cost(I,C) <- pick(I,V), w(I,W), C==V*W.
d2 seen1(I,C) <- item(I), cost(I,C).
d1b cost(I,C) <- pick(I,V), extra(I,W), C==V*W.
d3 seen2(I,C) <- item(I), cost(I,C).
d4 total(SUM<C>) <- seen2(I,C).
c1 seen1(I,C) -> C>=0.
)";
  SolveOutput out;
  SolveProgram(src,
               {{"item", R({0})},
                {"item", R({1})},
                {"w", R({0, 3})},
                {"w", R({1, 4})},
                {"extra", R({0, 10})}},
               &out);
  EXPECT_EQ(out.tables.at("cost"),
            (std::vector<Row>{R({0, 3}), R({1, 4}), R({0, 10})}));
  EXPECT_EQ(out.tables.at("seen1"), (std::vector<Row>{R({0, 3}), R({1, 4})}));
  EXPECT_EQ(out.tables.at("seen2"),
            (std::vector<Row>{R({0, 3}), R({0, 10}), R({1, 4})}));
  EXPECT_DOUBLE_EQ(out.objective, 17);
}

TEST(BridgeConstraintTest, SymbolicUnificationThroughBoundColumn) {
  // c1's body atom x(J,V) has J bound to a regular value and V bound to the
  // head row's solver variable: the join scans, and each clash on V posts
  // an equality, tying x(0) and x(1) under the tighter cap.
  const char* src = R"(
goal maximize S in total(S).
var x(I,V) forall item(I) domain [0,5].
d1 total(SUM<V>) <- x(I,V).
c1 x(I,V) -> twin(I,J), x(J,V).
c2 x(I,V) -> cap(I,M), V<=M.
)";
  SolveOutput out;
  SolveProgram(src,
               {{"item", R({0})},
                {"item", R({1})},
                {"item", R({2})},
                {"twin", R({0, 1})},
                {"twin", R({1, 0})},
                {"cap", R({0, 2})},
                {"cap", R({1, 5})},
                {"cap", R({2, 5})}},
               &out);
  EXPECT_EQ(out.tables.at("x"),
            (std::vector<Row>{R({0, 2}), R({1, 2}), R({2, 5})}));
  EXPECT_DOUBLE_EQ(out.objective, 9);
}

TEST(BridgeConstraintTest, ConcreteColumnsFilterBeforeSymbolicEqualities) {
  // c1's body atom p(V,I) holds the solver column V before the join column
  // I. Only the p row whose I matches may tie its variable to x's; a row
  // the I column rejects must post nothing, or every x and p variable
  // collapses into one value under the tighter cap (objective 2, not 6).
  const char* src = R"(
goal maximize S in total(S).
var x(I,V) forall item(I) domain [0,5].
var p(V,I) forall item(I) domain [0,5].
d1 total(SUM<V>) <- x(I,V).
c1 x(I,V) -> p(V,I).
c2 p(V,I) -> lim(I,M), V<=M.
)";
  SolveOutput out;
  SolveProgram(src,
               {{"item", R({0})},
                {"item", R({1})},
                {"lim", R({0, 1})},
                {"lim", R({1, 5})}},
               &out);
  EXPECT_DOUBLE_EQ(out.objective, 6);
  EXPECT_EQ(out.tables.at("x"), (std::vector<Row>{R({0, 1}), R({1, 5})}));
}

TEST(BridgeErrorTest, JoinOnSolverAttributeRejected) {
  // Section 5.3: joins on solver attributes are not allowed in derivations.
  const char* src = R"(
goal minimize S in total(S).
var v1(I,V) forall item(I) domain [0,3].
var v2(I,V) forall item(I) domain [0,3].
d1 pairCost(I,J,V) <- v1(I,V), v2(J,V).
d2 total(SUM<V>) <- pairCost(I,J,V).
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  ASSERT_TRUE(inst.InsertFact("item", R({0})).ok());
  auto out = inst.Solve();
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("join on a solver attribute"),
            std::string::npos);
}

// ---- Pinned model build -----------------------------------------------------
//
// One incremental solve straight through SolverBridge for each case-study
// program at a small fixed size. The per-group fingerprints hash every var
// row (table, key, variable ids, domains) and every propagator's
// DebugString, so they pin variable numbering, propagator order and every
// constant the rules baked in. A change to the bridge's rule evaluation
// that is meant to leave the model alone must leave these values alone.

// The engine a pinned solve reads: a standalone instance, or node 0 of a
// system.
struct Deployment {
  std::unique_ptr<Instance> inst;
  std::unique_ptr<System> sys;

  datalog::Engine* engine() {
    return inst ? &inst->engine() : &sys->node(0).engine();
  }
};

// One deterministic incremental solve and the fingerprints it stored. With
// `templates`, the model binds through that cache.
struct PinnedSolve {
  std::map<std::string, uint64_t> fingerprints;
  SolveOutput out;
};

PinnedSolve SolvePinned(const colog::CompiledProgram& prog,
                        datalog::Engine* engine, int prefix,
                        solver::TemplateCache* templates = nullptr) {
  SolveOptions opts;
  opts.time_limit_ms = 0;
  opts.node_limit = 2000;
  opts.group_key_prefix = prefix;
  WarmStartCache cache;
  IncrementalState incr;
  SolverBridge bridge(&prog, engine, templates);
  auto out = bridge.Solve(opts, &cache, &incr);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return {};
  EXPECT_TRUE(out.value().has_solution());
  EXPECT_FALSE(incr.fingerprints.empty());
  ExpectOracleHolds(prog, *engine, out.value());
  return {incr.fingerprints, std::move(out).value()};
}

// A pinned program: its source, grouping prefix and pinned fingerprints,
// plus a loader that deploys the pinned facts (variant 0) or facts of the
// same model shape with other constants or keys (variant 1).
struct PinCase {
  std::string src;
  int prefix;
  std::function<Deployment(const colog::CompiledProgram&, int)> deploy;
  std::map<std::string, uint64_t> want;
};

using Facts = std::vector<std::pair<std::string, Row>>;

// Loader for a centralized program: one instance holding `facts[variant]`.
std::function<Deployment(const colog::CompiledProgram&, int)> InstanceWith(
    std::array<Facts, 2> facts) {
  return [facts](const colog::CompiledProgram& prog, int variant) {
    Deployment d;
    d.inst = std::make_unique<Instance>(0, &prog);
    EXPECT_TRUE(d.inst->Init().ok());
    for (const auto& [table, row] : facts[static_cast<size_t>(variant)]) {
      EXPECT_TRUE(d.inst->InsertFact(table, row).ok()) << table;
    }
    return d;
  };
}

PinCase ACloudPin() {
  Facts facts[2];
  const int64_t cpu[2][4] = {{30, 10, 25, 40}, {33, 12, 21, 47}};
  const int64_t mem[2][4] = {{4, 2, 8, 6}, {5, 3, 6, 7}};
  for (int k = 0; k < 2; ++k) {
    for (int64_t v = 0; v < 4; ++v) {
      facts[k].push_back({"vm", R({v, cpu[k][v], mem[k][v]})});
      facts[k].push_back({"origin", R({v, v % 3})});
    }
    for (int64_t h = 0; h < 3; ++h) {
      facts[k].push_back({"host", R({h, (5 + k) * h, 0})});
      facts[k].push_back({"hostMemThres", R({h, 14 + k})});
    }
  }
  return {apps::ACloudProgram(true, 2), 1,
          InstanceWith({facts[0], facts[1]}),
          {
              {"0", 2644413083004124052ull},
              {"1", 2593005066488361165ull},
              {"2", 9892763220824851203ull},
              {"3", 525753909578176908ull},
          }};
}

PinCase FollowTheSunPin() {
  auto deploy = [](const colog::CompiledProgram& prog, int k) {
    Deployment d;
    d.sys = std::make_unique<System>(&prog, 3);
    System& sys = *d.sys;
    EXPECT_TRUE(sys.Init().ok());
    auto N = [](NodeId x) { return Value::Node(x); };
    for (NodeId x = 0; x < 3; ++x) {
      for (int64_t d = 0; d < 3; ++d) {
        EXPECT_TRUE(sys.InsertFact(x, "curVm",
                                   {N(x), Value::Int(d),
                                    Value::Int(5 + k + 3 * x + d)})
                        .ok());
        EXPECT_TRUE(sys.InsertFact(x, "commCost",
                                   {N(x), Value::Int(d),
                                    Value::Int(x == d ? 1 : 10 + 3 * k +
                                                                2 * x + d)})
                        .ok());
        EXPECT_TRUE(sys.InsertFact(x, "dc", {N(x), Value::Int(d)}).ok());
      }
      EXPECT_TRUE(sys.InsertFact(x, "opCost", {N(x), Value::Int(2 + k)}).ok());
      EXPECT_TRUE(
          sys.InsertFact(x, "resource", {N(x), Value::Int(40 + k)}).ok());
    }
    for (auto [a, b] : {std::pair<NodeId, NodeId>{0, 1}, {0, 2}}) {
      EXPECT_TRUE(sys.AddLink(a, b).ok());
      EXPECT_TRUE(sys.InsertFact(a, "link", {N(a), N(b)}).ok());
      EXPECT_TRUE(sys.InsertFact(b, "link", {N(b), N(a)}).ok());
      EXPECT_TRUE(
          sys.InsertFact(a, "migCost", {N(a), N(b), Value::Int(3 + k)}).ok());
      EXPECT_TRUE(
          sys.InsertFact(b, "migCost", {N(b), N(a), Value::Int(3 + k)}).ok());
    }
    EXPECT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(1)}).ok());
    EXPECT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(2)}).ok());
    sys.RunToQuiescence();
    return d;
  };
  return {apps::FollowTheSunDistributedProgram(true, 60, 20,
                                               /*batched=*/true),
          2,
          deploy,
          {
              {"@0,@1", 9448090661494875409ull},
              {"@0,@2", 13732084249801228668ull},
          }};
}

PinCase WirelessPin() {
  auto deploy = [](const colog::CompiledProgram& prog, int k) {
    Deployment d;
    d.sys = std::make_unique<System>(&prog, 4);
    System& sys = *d.sys;
    EXPECT_TRUE(sys.Init().ok());
    auto N = [](NodeId x) { return Value::Node(x); };
    for (auto [a, b] :
         {std::pair<NodeId, NodeId>{0, 1}, {0, 2}, {1, 2}, {2, 3}}) {
      EXPECT_TRUE(sys.AddLink(a, b).ok());
      EXPECT_TRUE(sys.InsertFact(a, "link", {N(a), N(b)}).ok());
      EXPECT_TRUE(sys.InsertFact(b, "link", {N(b), N(a)}).ok());
    }
    EXPECT_TRUE(
        sys.InsertFact(1, "primaryUser", {N(1), Value::Int(3 + 4 * k)}).ok());
    EXPECT_TRUE(
        sys.InsertFact(2, "primaryUser", {N(2), Value::Int(5 - 3 * k)}).ok());
    // Channels neighbors already negotiated.
    EXPECT_TRUE(
        sys.InsertFact(1, "assign", {N(1), N(2), Value::Int(4 - 2 * k)}).ok());
    EXPECT_TRUE(
        sys.InsertFact(2, "assign", {N(2), N(3), Value::Int(6 + k)}).ok());
    sys.RunToQuiescence();
    EXPECT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(1)}).ok());
    EXPECT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(2)}).ok());
    sys.RunToQuiescence();
    return d;
  };
  return {apps::WirelessDistributedProgram(8, 2, /*two_hop=*/true,
                                           /*batched=*/true),
          2,
          deploy,
          {
              {"@0,@1", 3256916290002170029ull},
              {"@0,@2", 8060533884054238725ull},
          }};
}

// Pins for the evaluation paths the case-study programs leave out. Each
// program is loaded into one centralized instance and fingerprinted per
// var-row key prefix 1.
PinCase BindingFormsPin() {
  // d1/d2: form 1 with the unbound slot on the left, then on the right.
  // d3/d4: form 2 with the (X==k) pattern on the left, then on the right.
  // d5: a concrete filter. d6: C==V*W waits for the later w(I,W) atom.
  // c1: a symbolic hard constraint through &&. c2: a head pattern with a
  // constant; c3: a constraint body that unifies two solver cells.
  const char* src = R"(
goal minimize S in total(S).
var pick(I,V) forall item(I) domain [0,3].
d1 cost(I,C) <- pick(I,V), w(I,W), C==V*W.
d2 gain(I,G) <- pick(I,V), w(I,W), V*W+1==G.
d3 on(I,B) <- pick(I,V), (B==2)==(V>=1).
d4 off(I,B) <- pick(I,V), (V==0)==(B==1).
d5 heavy(I,C) <- cost(I,C), w(I,W), W>2.
d6 late(I,C) <- pick(I,V), C==V*W, w(I,W).
d7 total(SUM<S>) <- cost(I,C), gain(I,G), on(I,B), off(I,D), S==C+G+B+D.
d8 hsum(SUM<C>) <- heavy(I,C).
c1 pick(I,V) -> V>=1 && V<=2.
c2 pick(2,V) -> late(2,C), C<=8.
c3 pick(I,V) -> twin(I,J), pick(J,V).
c4 hsum(H) -> H>=3.
)";
  // Variant 1 keeps which weights pass W>2.
  auto facts = [](int64_t w0, int64_t w1, int64_t w2) {
    return Facts{{"item", R({0})},     {"item", R({1})},
                 {"item", R({2})},     {"w", R({0, w0})},
                 {"w", R({1, w1})},    {"w", R({2, w2})},
                 {"twin", R({0, 1})}};
  };
  return {src, 1, InstanceWith({facts(3, 2, 4), facts(5, 2, 6)}),
          {
              {"0", 7192826285713359883ull},
              {"1", 3482153438766425154ull},
              {"2", 17559904206564757233ull},
          }};
}

PinCase EverySymbolicAggregatePin() {
  const char* src = R"(
goal minimize S in score(S).
var x(I,V) forall item(I) domain [-2,3].
d1 s1(G,SUM<V>) <- x(I,V), grp(I,G).
d2 s2(G,SUMABS<V>) <- x(I,V), grp(I,G).
d3 s3(G,MIN<V>) <- x(I,V), grp(I,G).
d4 s4(G,MAX<V>) <- x(I,V), grp(I,G).
d5 s5(UNIQUE<V>) <- x(I,V).
d6 s6(G,COUNT<V>) <- x(I,V), grp(I,G).
d7 s7(STDEV<V>) <- x(I,V).
d8 score(SUM<T>) <- s1(G,A), s2(G,B), s3(G,C), s4(G,D), s6(G,N),
     T==A+B+D-C+N.
c1 s5(U) -> U>=2.
)";
  // The program's only numbers are its own; variant 1 renames the keys.
  auto facts = [](int64_t base) {
    Facts f;
    for (int64_t i = 0; i < 4; ++i) {
      f.push_back({"item", R({base + i})});
      f.push_back({"grp", R({base + i, base + i / 2})});
    }
    return f;
  };
  return {src, 1, InstanceWith({facts(0), facts(10)}),
          {
              {"0", 16825931624829828395ull},
              {"1", 18326298541382383082ull},
              {"2", 8203205065761075791ull},
              {"3", 1024120853294681357ull},
          }};
}

PinCase DoubleJoinColumnsPin() {
  // tier(P,K) is probed with a double P (the probe falls back to a scan),
  // and mix(I,K) holds a double in its join column (its index is unusable,
  // so bound probes on it scan too).
  const char* src = R"(
goal maximize S in total(S).
var pick(I,V) forall item(I) domain [0,2].
d1 priced(I,C) <- pick(I,V), price(I,P), tier(P,K), C==V*K.
d2 mixed(I,C) <- pick(I,V), mix(I,K), C==V*K.
d3 total(SUM<C>) <- priced(I,C).
d4 mtotal(SUM<C>) <- mixed(I,C).
c1 mtotal(M) -> M<=5.
)";
  auto D = [](double x) { return Value::Double(x); };
  auto facts = [&](int64_t k) {
    return Facts{{"item", R({0})},
                 {"item", R({1})},
                 {"item", R({2})},
                 {"price", {Value::Int(0), D(1.5)}},
                 {"price", {Value::Int(1), D(2.5)}},
                 {"price", {Value::Int(2), D(1.5)}},
                 {"tier", {D(1.5), Value::Int(3 + k)}},
                 {"tier", {D(2.5), Value::Int(5 + k)}},
                 {"mix", R({0, 2 + k})},
                 {"mix", {D(1.0), Value::Int(7)}},
                 {"mix", R({2, 4 + k})}};
  };
  return {src, 1, InstanceWith({facts(0), facts(1)}),
          {
              {"0", 10381292985640104223ull},
              {"1", 5452369077607501093ull},
              {"2", 17125109241024648483ull},
          }};
}

// The pinned case's fingerprints for `variant`'s facts; with `templates`,
// `*hit` reports whether the model's shape was cached.
std::map<std::string, uint64_t> CaseFingerprints(
    const PinCase& c, int variant, solver::TemplateCache* templates = nullptr,
    bool* hit = nullptr) {
  auto compiled = colog::CompileColog(c.src);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return {};
  colog::CompiledProgram prog = std::move(compiled).value();
  Deployment d = c.deploy(prog, variant);
  PinnedSolve solved = SolvePinned(prog, d.engine(), c.prefix, templates);
  if (hit != nullptr) *hit = solved.out.template_hit;
  return solved.fingerprints;
}

TEST(BridgeModelPinTest, ACloudFingerprints) {
  const PinCase c = ACloudPin();
  EXPECT_EQ(CaseFingerprints(c, 0), c.want);
}

TEST(BridgeModelPinTest, FollowTheSunFingerprints) {
  const PinCase c = FollowTheSunPin();
  EXPECT_EQ(CaseFingerprints(c, 0), c.want);
}

TEST(BridgeModelPinTest, WirelessFingerprints) {
  const PinCase c = WirelessPin();
  EXPECT_EQ(CaseFingerprints(c, 0), c.want);
}

TEST(BridgeModelPinTest, BindingFormsFiltersAndLateGuards) {
  const PinCase c = BindingFormsPin();
  EXPECT_EQ(CaseFingerprints(c, 0), c.want);
}

TEST(BridgeModelPinTest, EverySymbolicAggregate) {
  const PinCase c = EverySymbolicAggregatePin();
  EXPECT_EQ(CaseFingerprints(c, 0), c.want);
}

TEST(BridgeModelPinTest, DoubleJoinColumnsScan) {
  const PinCase c = DoubleJoinColumnsPin();
  EXPECT_EQ(CaseFingerprints(c, 0), c.want);
}

// ---- Model templates --------------------------------------------------------

// Every pinned program, solved first with other constants (a miss that
// stores the template), then with the pinned facts: the second solve must
// hit and reproduce the pins (SolvePinned also runs the oracle on it).
TEST(BridgeTemplateTest, PinsHitAWarmCache) {
  for (const PinCase& c :
       {ACloudPin(), FollowTheSunPin(), WirelessPin(), BindingFormsPin(),
        EverySymbolicAggregatePin(), DoubleJoinColumnsPin()}) {
    SCOPED_TRACE(c.src.substr(0, 40));
    solver::TemplateCache templates;
    bool hit = true;
    CaseFingerprints(c, 1, &templates, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(CaseFingerprints(c, 0, &templates, &hit), c.want);
    EXPECT_TRUE(hit);
  }
}

// A model that differs from the cached one in structure must miss, and its
// solve must equal a cache-less build of the same facts.
TEST(BridgeTemplateTest, StructuralChangesMissAndMatchCachelessBuilds) {
  const char* src = R"(
goal maximize S in total(S).
var x(I,V) forall item(I) domain [0,3].
d1 cost(I,C) <- x(I,V), w(I,W), C==V*W.
d2 total(SUM<C>) <- cost(I,C).
c1 x(I,V) -> cap(I,M), V<=M.
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const colog::CompiledProgram prog = std::move(compiled).value();
  // (name, cached facts, probe facts): item -> (weight, cap).
  using Items = std::vector<std::array<int64_t, 3>>;
  struct Case {
    const char* name;
    Items warm;
    Items probe;
  };
  const Case cases[] = {
      // w(0) = 0 drops x0's term from the objective sum.
      {"zero coefficient", {{0, 2, 3}, {1, 3, 2}}, {{0, 0, 3}, {1, 3, 2}}},
      // One item of weight 1: the objective is 1*x0, which VarOf returns
      // as is instead of channeling a fresh variable.
      {"VarOf unit expression", {{0, 2, 3}}, {{0, 1, 3}}},
      {"changed row count", {{0, 2, 3}, {1, 3, 2}},
       {{0, 2, 3}, {1, 3, 2}, {2, 4, 1}}},
  };
  auto load = [&](Instance* inst, const Items& items) {
    ASSERT_TRUE(inst->Init().ok());
    for (const auto& [i, w, cap] : items) {
      ASSERT_TRUE(inst->InsertFact("item", R({i})).ok());
      ASSERT_TRUE(inst->InsertFact("w", R({i, w})).ok());
      ASSERT_TRUE(inst->InsertFact("cap", R({i, cap})).ok());
    }
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    solver::TemplateCache templates;
    Instance warm(0, &prog);
    load(&warm, c.warm);
    EXPECT_FALSE(SolvePinned(prog, &warm.engine(), 1, &templates)
                     .out.template_hit);
    Instance probe(0, &prog);
    load(&probe, c.probe);
    const PinnedSolve cached =
        SolvePinned(prog, &probe.engine(), 1, &templates);
    const PinnedSolve fresh = SolvePinned(prog, &probe.engine(), 1);
    EXPECT_FALSE(cached.out.template_hit);
    EXPECT_EQ(cached.fingerprints, fresh.fingerprints);
    EXPECT_EQ(cached.out.objective, fresh.out.objective);
    EXPECT_EQ(cached.out.tables, fresh.out.tables);
    // The same facts again: now the shape is cached.
    const PinnedSolve again = SolvePinned(prog, &probe.engine(), 1, &templates);
    EXPECT_TRUE(again.out.template_hit);
    EXPECT_EQ(again.fingerprints, fresh.fingerprints);
    EXPECT_EQ(again.out.tables, fresh.out.tables);
  }
}

// Model-level counterpart for domain holes, which no Colog rule makes: a
// RemoveValue is structure (it misses), while a different interval or a
// coefficient of the other sign is a constant (it hits, and the sign moves
// the term's watch mask). Either way the bound template solves like a
// fresh one.
TEST(BridgeTemplateTest, DomainHoleMissesAndIntervalsRebind) {
  auto record = [](solver::Model* m, int64_t hi, bool hole, int64_t cx) {
    const solver::IntVar x = m->NewInt(0, hi);
    const solver::IntVar y = m->NewInt(0, hi);
    if (hole) m->RemoveValue(x, 5);
    m->MarkDecision(x);
    m->MarkDecision(y);
    m->PostRel(solver::LinExpr::Term(cx, x) + solver::LinExpr(y),
               solver::Rel::kLe, solver::LinExpr(7));
    m->Maximize(solver::LinExpr::Term(2, x) + solver::LinExpr::Term(3, y));
  };
  // Each propagator's rendering plus its watch masks.
  auto debug_strings = [](const solver::ModelTemplate& t) {
    std::vector<std::string> out;
    for (const auto& p : t.propagators()) {
      out.push_back(p->DebugString());
      for (uint8_t mask : p->watch_masks()) {
        out.back() += " " + std::to_string(mask);
      }
    }
    return out;
  };
  solver::TemplateCache templates;
  solver::Model::Options opts;
  opts.time_limit_ms = 0;
  bool hit = true;
  solver::Model base;
  record(&base, 5, false, 1);
  templates.Bind(base, &hit);
  EXPECT_FALSE(hit);
  for (const auto& [hi, hole, cx, want_hit] :
       {std::tuple<int64_t, bool, int64_t, bool>{5, true, 1, false},
        {6, false, 1, true},
        {5, false, -2, true}}) {
    solver::Model m;
    record(&m, hi, hole, cx);
    const solver::ModelTemplate& t = templates.Bind(m, &hit);
    EXPECT_EQ(hit, want_hit);
    solver::TemplateCache fresh_cache;
    EXPECT_EQ(debug_strings(t), debug_strings(fresh_cache.Bind(m)));
    const solver::Solution got = m.Solve(t, opts);
    const solver::Solution want = m.Solve(opts);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.objective, want.objective);
    EXPECT_EQ(got.values, want.values);
  }
}

TEST(BridgeTemplateTest, CacheStaysWithinItsBound) {
  solver::Model::Options opts;
  opts.time_limit_ms = 0;
  opts.node_limit = 2000;
  // Model n: a chain of n + 1 variables, x_i + x_{i+1} <= 3, maximize sum.
  auto record = [](solver::Model* m, int n) {
    solver::LinExpr sum;
    std::vector<solver::IntVar> xs;
    for (int i = 0; i <= n; ++i) {
      xs.push_back(m->NewInt(0, 2));
      m->MarkDecision(xs.back());
      sum += solver::LinExpr(xs.back());
    }
    for (int i = 0; i < n; ++i) {
      m->PostRel(solver::LinExpr(xs[i]) + solver::LinExpr(xs[i + 1]),
                 solver::Rel::kLe, solver::LinExpr(3));
    }
    m->Maximize(sum);
  };
  const int kShapes =
      static_cast<int>(solver::TemplateCache::kMaxTemplates) + 8;
  solver::TemplateCache templates;
  bool hit = true;
  for (int n = 1; n <= kShapes; ++n) {
    solver::Model m;
    record(&m, n);
    templates.Bind(m, &hit);
    EXPECT_FALSE(hit) << n;
    EXPECT_LE(templates.size(), solver::TemplateCache::kMaxTemplates);
  }
  EXPECT_EQ(templates.size(), solver::TemplateCache::kMaxTemplates);
  // The most recent shape is still cached; the oldest was evicted, and
  // binding it again rebuilds a template that solves like a fresh one.
  for (const auto& [n, want_hit] : {std::pair<int, bool>{kShapes, true},
                                    {1, false}}) {
    solver::Model m;
    record(&m, n);
    const solver::ModelTemplate& t = templates.Bind(m, &hit);
    EXPECT_EQ(hit, want_hit) << n;
    const solver::Solution got = m.Solve(t, opts);
    const solver::Solution want = m.Solve(opts);
    EXPECT_EQ(got.objective, want.objective) << n;
    EXPECT_EQ(got.values, want.values) << n;
  }
  EXPECT_EQ(templates.size(), solver::TemplateCache::kMaxTemplates);
}

// Nodes of one System share its cache: a node whose first solve has the
// shape another node already solved hits. A standalone instance keeps its
// own cache, so its second solve of a shape hits too.
TEST(BridgeTemplateTest, SystemNodesShareOneCache) {
  auto compiled = colog::CompileColog(apps::WirelessDistributedProgram(
      8, 2, /*two_hop=*/true, /*batched=*/true));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const colog::CompiledProgram prog = std::move(compiled).value();
  System sys(&prog, 4);
  ASSERT_TRUE(sys.Init().ok());
  auto N = [](NodeId x) { return Value::Node(x); };
  // A ring: nodes 0 and 2 see isomorphic neighborhoods.
  for (auto [a, b] :
       {std::pair<NodeId, NodeId>{0, 1}, {1, 2}, {2, 3}, {3, 0}}) {
    ASSERT_TRUE(sys.AddLink(a, b).ok());
    ASSERT_TRUE(sys.InsertFact(a, "link", {N(a), N(b)}).ok());
    ASSERT_TRUE(sys.InsertFact(b, "link", {N(b), N(a)}).ok());
  }
  for (auto [x, y] :
       {std::pair<NodeId, NodeId>{0, 1}, {0, 3}, {2, 1}, {2, 3}}) {
    ASSERT_TRUE(sys.InsertFact(x, "setLink", {N(x), N(y)}).ok());
  }
  sys.RunToQuiescence();
  const SolveRequest req{SolveMode::kBatched, 2, {}};
  auto first = sys.node(0).Solve(req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().template_hit);
  auto second = sys.node(2).Solve(req);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().template_hit);

  const PinCase c = ACloudPin();
  auto acloud = colog::CompileColog(c.src);
  ASSERT_TRUE(acloud.ok()) << acloud.status().ToString();
  const colog::CompiledProgram acloud_prog = std::move(acloud).value();
  Deployment d = c.deploy(acloud_prog, 0);
  for (bool want_hit : {false, true}) {
    auto out = d.inst->Solve();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value().template_hit, want_hit);
  }
}

// ---- Differential sequences -------------------------------------------------
//
// A small System per case-study program, driven through ~50 solves over
// changing facts. Each solve binds through one cache shared by every node;
// a fresh cache-less bridge on the same engine state, with copies of the
// same warm-start and incremental state, must produce the same status,
// objective, output tables and fingerprints.

class TemplateSequence {
 public:
  TemplateSequence(const colog::CompiledProgram* prog, int prefix)
      : prog_(prog), prefix_(prefix) {}

  void Solve(System& sys, NodeId node) {
    SolveOptions opts;
    opts.time_limit_ms = 0;
    opts.node_limit = 2000;
    opts.group_key_prefix = prefix_;
    datalog::Engine* engine = &sys.node(node).engine();
    auto& [warm, incr] = state_[node];
    WarmStartCache fresh_warm = warm;
    IncrementalState fresh_incr = incr;
    auto fresh = SolverBridge(prog_, engine)
                     .Solve(opts, &fresh_warm, &fresh_incr);
    auto cached = SolverBridge(prog_, engine, &templates_)
                      .Solve(opts, &warm, &incr);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    const SolveOutput& a = cached.value();
    const SolveOutput& b = fresh.value();
    EXPECT_FALSE(b.template_hit);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.has_objective, b.has_objective);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.tables, b.tables);
    EXPECT_EQ(a.model_vars, b.model_vars);
    EXPECT_EQ(a.model_propagators, b.model_propagators);
    EXPECT_EQ(a.stats.nodes, b.stats.nodes);
    EXPECT_EQ(incr.fingerprints, fresh_incr.fingerprints);
    ++solves_;
    if (a.template_hit) ++hits_;
    EXPECT_LE(templates_.size(), solver::TemplateCache::kMaxTemplates);
  }

  int solves() const { return solves_; }
  int hits() const { return hits_; }

 private:
  const colog::CompiledProgram* prog_;
  int prefix_;
  solver::TemplateCache templates_;
  std::map<NodeId, std::pair<WarmStartCache, IncrementalState>> state_;
  int solves_ = 0;
  int hits_ = 0;
};

constexpr int kSequenceSolves = 50;

TEST(BridgeTemplateTest, ACloudSequenceMatchesCachelessBuilds) {
  auto compiled = colog::CompileColog(apps::ACloudProgram(true, 2));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const colog::CompiledProgram prog = std::move(compiled).value();
  System sys(&prog, 1);
  ASSERT_TRUE(sys.Init().ok());
  Rng rng(2027);
  for (int64_t h = 0; h < 3; ++h) {
    ASSERT_TRUE(sys.InsertFact(0, "host", R({h, 5 * h, 0})).ok());
    ASSERT_TRUE(sys.InsertFact(0, "hostMemThres", R({h, 30})).ok());
  }
  auto put_vm = [&](int64_t v) {
    ASSERT_TRUE(sys.InsertFact(0, "vm", R({v, rng.UniformInt(5, 40),
                                           rng.UniformInt(1, 8)}))
                    .ok());
    ASSERT_TRUE(sys.InsertFact(0, "origin", R({v, v % 3})).ok());
  };
  for (int64_t v = 0; v < 4; ++v) put_vm(v);
  int64_t vms = 4;
  TemplateSequence seq(&prog, 1);
  for (int step = 0; step < kSequenceSolves; ++step) {
    SCOPED_TRACE(step);
    if (step % 10 == 9 && vms < 6) {
      put_vm(vms++);  // a new VM: a new shape
    } else {
      put_vm(rng.UniformInt(0, vms - 1));  // new demands, same shape
    }
    const int64_t host = rng.UniformInt(0, 2);
    ASSERT_TRUE(sys.InsertFact(0, "hostMemThres",
                               R({host, rng.UniformInt(20, 40)}))
                    .ok());
    sys.RunToQuiescence();
    seq.Solve(sys, 0);
  }
  EXPECT_EQ(seq.solves(), kSequenceSolves);
  EXPECT_GT(seq.hits(), kSequenceSolves / 2);
}

TEST(BridgeTemplateTest, FollowTheSunSequenceMatchesCachelessBuilds) {
  auto compiled = colog::CompileColog(
      apps::FollowTheSunDistributedProgram(true, 60, 20, /*batched=*/true));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const colog::CompiledProgram prog = std::move(compiled).value();
  System sys(&prog, 3);
  ASSERT_TRUE(sys.Init().ok());
  Rng rng(2028);
  auto N = [](NodeId x) { return Value::Node(x); };
  auto I = [](int64_t x) { return Value::Int(x); };
  for (NodeId x = 0; x < 3; ++x) {
    for (int64_t d = 0; d < 3; ++d) {
      ASSERT_TRUE(
          sys.InsertFact(x, "curVm", {N(x), I(d), I(rng.UniformInt(0, 12))})
              .ok());
      ASSERT_TRUE(sys.InsertFact(x, "commCost",
                                 {N(x), I(d), I(x == d ? 1 : 10 + x + d)})
                      .ok());
      ASSERT_TRUE(sys.InsertFact(x, "dc", {N(x), I(d)}).ok());
    }
    ASSERT_TRUE(sys.InsertFact(x, "opCost", {N(x), I(2)}).ok());
    ASSERT_TRUE(sys.InsertFact(x, "resource", {N(x), I(40)}).ok());
  }
  for (auto [a, b] : {std::pair<NodeId, NodeId>{0, 1}, {0, 2}}) {
    ASSERT_TRUE(sys.AddLink(a, b).ok());
    ASSERT_TRUE(sys.InsertFact(a, "link", {N(a), N(b)}).ok());
    ASSERT_TRUE(sys.InsertFact(b, "link", {N(b), N(a)}).ok());
    ASSERT_TRUE(sys.InsertFact(a, "migCost", {N(a), N(b), I(3)}).ok());
    ASSERT_TRUE(sys.InsertFact(b, "migCost", {N(b), N(a), I(3)}).ok());
  }
  ASSERT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(1)}).ok());
  sys.RunToQuiescence();
  TemplateSequence seq(&prog, 2);
  for (int step = 0; step < kSequenceSolves; ++step) {
    SCOPED_TRACE(step);
    const NodeId x = static_cast<NodeId>(rng.UniformInt(0, 2));
    const int64_t d = rng.UniformInt(0, 2);
    if (step == kSequenceSolves / 2) {
      // A second negotiated link: a new shape.
      ASSERT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(2)}).ok());
    } else if (step % 2 == 0) {
      ASSERT_TRUE(
          sys.InsertFact(x, "curVm", {N(x), I(d), I(rng.UniformInt(0, 12))})
              .ok());
    } else if (x != d) {
      ASSERT_TRUE(sys.InsertFact(x, "commCost",
                                 {N(x), I(d), I(rng.UniformInt(5, 25))})
                      .ok());
    }
    sys.RunToQuiescence();
    seq.Solve(sys, 0);
  }
  EXPECT_EQ(seq.solves(), kSequenceSolves);
  EXPECT_GT(seq.hits(), kSequenceSolves / 2);
}

TEST(BridgeTemplateTest, WirelessSequenceMatchesCachelessBuilds) {
  auto compiled = colog::CompileColog(apps::WirelessDistributedProgram(
      8, 2, /*two_hop=*/true, /*batched=*/true));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const colog::CompiledProgram prog = std::move(compiled).value();
  System sys(&prog, 4);
  ASSERT_TRUE(sys.Init().ok());
  Rng rng(2029);
  auto N = [](NodeId x) { return Value::Node(x); };
  auto I = [](int64_t x) { return Value::Int(x); };
  for (auto [a, b] :
       {std::pair<NodeId, NodeId>{0, 1}, {1, 2}, {2, 3}, {3, 0}}) {
    ASSERT_TRUE(sys.AddLink(a, b).ok());
    ASSERT_TRUE(sys.InsertFact(a, "link", {N(a), N(b)}).ok());
    ASSERT_TRUE(sys.InsertFact(b, "link", {N(b), N(a)}).ok());
  }
  for (auto [x, y] :
       {std::pair<NodeId, NodeId>{0, 1}, {0, 3}, {2, 1}, {2, 3}}) {
    ASSERT_TRUE(sys.InsertFact(x, "setLink", {N(x), N(y)}).ok());
  }
  sys.RunToQuiescence();
  TemplateSequence seq(&prog, 2);
  for (int step = 0; step < kSequenceSolves; ++step) {
    SCOPED_TRACE(step);
    const NodeId x = static_cast<NodeId>(rng.UniformInt(0, 3));
    if (step % 3 == 0) {
      // Primary users come and go: a removed channel is a constant.
      ASSERT_TRUE(
          sys.InsertFact(x, "primaryUser", {N(x), I(rng.UniformInt(1, 8))})
              .ok());
    } else {
      // A neighbor announces a channel on one of its links.
      const NodeId y = static_cast<NodeId>((x + 1) % 4);
      ASSERT_TRUE(sys.InsertFact(x, "assign",
                                 {N(x), N(y), I(rng.UniformInt(1, 8))})
                      .ok());
    }
    sys.RunToQuiescence();
    seq.Solve(sys, step % 2 == 0 ? 0 : 2);
  }
  EXPECT_EQ(seq.solves(), kSequenceSolves);
  EXPECT_GT(seq.hits(), kSequenceSolves / 2);
}

// ---- Oracle over randomized case-study instances ----------------------------
//
// Small ACloud, Follow-the-Sun and wireless instances with seeded random
// facts, each solved once straight through SolverBridge and re-derived by
// the oracle.

class BridgeOracleAppsTest : public ::testing::TestWithParam<int> {};

TEST_P(BridgeOracleAppsTest, ACloud) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  auto compiled = colog::CompileColog(apps::ACloudProgram(true, 2));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  const int64_t vms = rng.UniformInt(3, 5);
  const int64_t hosts = rng.UniformInt(2, 3);
  for (int64_t v = 0; v < vms; ++v) {
    ASSERT_TRUE(inst.InsertFact("vm", R({v, rng.UniformInt(5, 50),
                                         rng.UniformInt(1, 8)}))
                    .ok());
    ASSERT_TRUE(
        inst.InsertFact("origin", R({v, rng.UniformInt(0, hosts - 1)})).ok());
  }
  for (int64_t h = 0; h < hosts; ++h) {
    ASSERT_TRUE(inst.InsertFact("host", R({h, rng.UniformInt(0, 20), 0})).ok());
    // Moving the two largest VMs off any one host always fits.
    ASSERT_TRUE(
        inst.InsertFact("hostMemThres", R({h, rng.UniformInt(25, 45)})).ok());
  }
  ExpectOracleHolds(prog, &inst.engine(), 1);
}

TEST_P(BridgeOracleAppsTest, FollowTheSun) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  auto compiled = colog::CompileColog(
      apps::FollowTheSunDistributedProgram(true, 60, 20, /*batched=*/true));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  System sys(&prog, 3);
  ASSERT_TRUE(sys.Init().ok());
  auto N = [](NodeId x) { return Value::Node(x); };
  auto I = [](int64_t x) { return Value::Int(x); };
  for (NodeId x = 0; x < 3; ++x) {
    for (int64_t d = 0; d < 3; ++d) {
      ASSERT_TRUE(
          sys.InsertFact(x, "curVm", {N(x), I(d), I(rng.UniformInt(0, 12))})
              .ok());
      int64_t cost = x == d ? 1 : rng.UniformInt(5, 25);
      ASSERT_TRUE(sys.InsertFact(x, "commCost", {N(x), I(d), I(cost)}).ok());
      ASSERT_TRUE(sys.InsertFact(x, "dc", {N(x), I(d)}).ok());
    }
    ASSERT_TRUE(
        sys.InsertFact(x, "opCost", {N(x), I(rng.UniformInt(1, 4))}).ok());
    ASSERT_TRUE(sys.InsertFact(x, "resource", {N(x), I(40)}).ok());
  }
  for (auto [a, b] : {std::pair<NodeId, NodeId>{0, 1}, {0, 2}}) {
    int64_t mig = rng.UniformInt(1, 6);
    ASSERT_TRUE(sys.AddLink(a, b).ok());
    ASSERT_TRUE(sys.InsertFact(a, "link", {N(a), N(b)}).ok());
    ASSERT_TRUE(sys.InsertFact(b, "link", {N(b), N(a)}).ok());
    ASSERT_TRUE(sys.InsertFact(a, "migCost", {N(a), N(b), I(mig)}).ok());
    ASSERT_TRUE(sys.InsertFact(b, "migCost", {N(b), N(a), I(mig)}).ok());
  }
  ASSERT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(1)}).ok());
  ASSERT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(2)}).ok());
  sys.RunToQuiescence();
  ExpectOracleHolds(prog, &sys.node(0).engine(), 2);
}

TEST_P(BridgeOracleAppsTest, Wireless) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863 + 7);
  auto compiled = colog::CompileColog(
      apps::WirelessDistributedProgram(8, 2, /*two_hop=*/true,
                                       /*batched=*/true));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  System sys(&prog, 4);
  ASSERT_TRUE(sys.Init().ok());
  auto N = [](NodeId x) { return Value::Node(x); };
  auto I = [](int64_t x) { return Value::Int(x); };
  for (auto [a, b] :
       {std::pair<NodeId, NodeId>{0, 1}, {0, 2}, {1, 2}, {2, 3}}) {
    ASSERT_TRUE(sys.AddLink(a, b).ok());
    ASSERT_TRUE(sys.InsertFact(a, "link", {N(a), N(b)}).ok());
    ASSERT_TRUE(sys.InsertFact(b, "link", {N(b), N(a)}).ok());
  }
  for (NodeId x = 0; x < 4; ++x) {
    if (rng.UniformInt(0, 1) == 1) {
      ASSERT_TRUE(
          sys.InsertFact(x, "primaryUser", {N(x), I(rng.UniformInt(1, 8))})
              .ok());
    }
  }
  // Channels neighbors already negotiated.
  ASSERT_TRUE(
      sys.InsertFact(1, "assign", {N(1), N(2), I(rng.UniformInt(1, 8))}).ok());
  ASSERT_TRUE(
      sys.InsertFact(2, "assign", {N(2), N(3), I(rng.UniformInt(1, 8))}).ok());
  sys.RunToQuiescence();
  ASSERT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(1)}).ok());
  ASSERT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(2)}).ok());
  sys.RunToQuiescence();
  ExpectOracleHolds(prog, &sys.node(0).engine(), 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BridgeOracleAppsTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace cologne::runtime
