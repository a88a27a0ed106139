// Static-analysis tests: the paper's Section 5.2 solver-table identification
// example, rule classification, and the Section 5.5 localization rewrite
// (d2 -> d21/d22).
#include <gtest/gtest.h>

#include "colog/analysis.h"
#include "colog/parser.h"
#include "colog/codegen.h"
#include "colog/planner.h"

namespace cologne::colog {
namespace {

const char* kACloud = R"(
param max_migrates = 9.
goal minimize C in hostStdevCpu(C).
var assign(Vid,Hid,V) forall toAssign(Vid,Hid) domain [0,1].
r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
d2 hostStdevCpu(STDEV<C>) <- host(Hid,Cpu,Mem), hostCpu(Hid,Cpu2), C==Cpu+Cpu2.
d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
c1 assignCount(Vid,V) -> V==1.
d4 hostMem(Hid,SUM<M>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), M==V*Mem.
c2 hostMem(Hid,Mem) -> hostMemThres(Hid,M), Mem<=M.
d5 migrate(Vid,Hid1,Hid2,C) <- assign(Vid,Hid1,V), origin(Vid,Hid2), Hid1!=Hid2, (V==1)==(C==1).
d6 migrateCount(SUM<C>) <- migrate(Vid,Hid1,Hid2,C).
c3 migrateCount(C) -> C<=max_migrates.
)";

Result<AnalyzedProgram> AnalyzeSource(const std::string& src) {
  auto parsed = Parse(src);
  if (!parsed.ok()) return parsed.status();
  return Analyze(parsed.value(), {});
}

RuleClass ClassOf(const AnalyzedProgram& a, const std::string& label) {
  for (const AnalyzedRule& r : a.rules) {
    if (r.rule.label == label) return r.cls;
  }
  ADD_FAILURE() << "rule " << label << " not found";
  return RuleClass::kRegular;
}

TEST(AnalysisTest, ACloudSolverTableIdentification) {
  // Reproduces the worked example in Section 5.2: assign, hostCpu,
  // hostStdevCpu, assignCount, hostMem (and migrate/migrateCount) are solver
  // tables; vm, host, toAssign, origin, hostMemThres are regular.
  auto r = AnalyzeSource(kACloud);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AnalyzedProgram& a = r.value();

  auto solver_positions = [&](const std::string& t) {
    auto it = a.solver_cols.find(t);
    return it == a.solver_cols.end() ? std::set<int>{} : it->second;
  };
  EXPECT_EQ(solver_positions("assign"), (std::set<int>{2}));
  EXPECT_EQ(solver_positions("hostCpu"), (std::set<int>{1}));
  EXPECT_EQ(solver_positions("hostStdevCpu"), (std::set<int>{0}));
  EXPECT_EQ(solver_positions("assignCount"), (std::set<int>{1}));
  EXPECT_EQ(solver_positions("hostMem"), (std::set<int>{1}));
  EXPECT_EQ(solver_positions("migrate"), (std::set<int>{3}));
  EXPECT_EQ(solver_positions("migrateCount"), (std::set<int>{0}));
  EXPECT_TRUE(solver_positions("vm").empty());
  EXPECT_TRUE(solver_positions("host").empty());
  EXPECT_TRUE(solver_positions("toAssign").empty());
  EXPECT_TRUE(solver_positions("origin").empty());
  EXPECT_TRUE(solver_positions("hostMemThres").empty());
}

TEST(AnalysisTest, ACloudRuleClassification) {
  auto r = AnalyzeSource(kACloud);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AnalyzedProgram& a = r.value();
  EXPECT_EQ(ClassOf(a, "r1"), RuleClass::kRegular);
  for (const char* d : {"d1", "d2", "d3", "d4", "d5", "d6"}) {
    EXPECT_EQ(ClassOf(a, d), RuleClass::kSolverDerivation) << d;
  }
  for (const char* c : {"c1", "c2", "c3"}) {
    EXPECT_EQ(ClassOf(a, c), RuleClass::kSolverConstraint) << c;
  }
  EXPECT_FALSE(a.distributed);
}

TEST(AnalysisTest, VarTableRecordedWithDomain) {
  auto r = AnalyzeSource(kACloud);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().var_tables.count("assign"));
}

TEST(AnalysisTest, PostSolveClassificationForUpdateRules) {
  // Follow-the-Sun r2/r3 pattern: rules consuming the *materialized* solver
  // output (var-table head, `:=` over solver attributes) are post-solve.
  const char* src = R"(
goal minimize C in aggCost(X,C).
var migVm(X,Y,R) forall toMigVm(X,Y) domain [-10,10].
d1 aggCost(X,SUMABS<R>) <- migVm(X,Y,R).
r2 migVm(Y,X,R2) <- setLink(X,Y), migVm(X,Y,R1), R2:=-R1.
r3 curVm(X,R) <- curVm(X,R1), migVm(X,Y,R2), R:=R1-R2.
)";
  auto r = AnalyzeSource(src);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AnalyzedProgram& a = r.value();
  EXPECT_EQ(ClassOf(a, "d1"), RuleClass::kSolverDerivation);
  EXPECT_EQ(ClassOf(a, "r2"), RuleClass::kPostSolve);
  EXPECT_EQ(ClassOf(a, "r3"), RuleClass::kPostSolve);
  // Crucially, curVm must NOT be painted as a solver table through r3.
  auto it = a.solver_cols.find("curVm");
  EXPECT_TRUE(it == a.solver_cols.end() || it->second.empty());
}

TEST(AnalysisTest, ConstraintWithoutSolverTablesRejected) {
  auto r = AnalyzeSource("c1 foo(X) -> bar(X).\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAnalysisError);
}

TEST(AnalysisTest, ArityMismatchRejected) {
  auto r = AnalyzeSource("a(X) <- b(X).\nc(X) <- b(X,Y).\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("arity"), std::string::npos);
}

TEST(AnalysisTest, UndeclaredParamRejected) {
  auto r = AnalyzeSource("param threshold.\na(X) <- b(X).\n");
  EXPECT_FALSE(r.ok());
}

// --- Localization rewrite (Section 5.5) ------------------------------------

TEST(LocalizationTest, PaperD2RewritesToD21D22) {
  auto parsed = Parse(
      "d2 nborNextVm(@X,Y,D,R) <- link(@Y,X), curVm(@Y,D,R1),\n"
      "   migVm(@X,Y,D,R2), R==R1+R2.\n");
  ASSERT_TRUE(parsed.ok());
  size_t rewritten = 0;
  auto r = LocalizeRules(parsed.value().rules, &rewritten);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& rules = r.value();
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rewritten, 1u);

  // d21: tmp_d2(@X,Y,D,R1) <- link(@Y,X), curVm(@Y,D,R1).
  const SrcRule& ship = rules[0];
  EXPECT_EQ(ship.head.pred, "tmp_d2");
  ASSERT_EQ(ship.head.args.size(), 4u);
  EXPECT_TRUE(ship.head.args[0].loc);
  EXPECT_EQ(ship.head.args[0].expr.name, "X");
  EXPECT_EQ(ship.head.args[1].expr.name, "Y");
  EXPECT_EQ(ship.head.args[2].expr.name, "D");
  EXPECT_EQ(ship.head.args[3].expr.name, "R1");
  ASSERT_EQ(ship.body.size(), 2u);
  EXPECT_EQ(ship.body[0].atom.pred, "link");
  EXPECT_EQ(ship.body[1].atom.pred, "curVm");

  // d22: nborNextVm(@X,Y,D,R) <- tmp_d2(@X,Y,D,R1), migVm(@X,Y,D,R2), ...
  const SrcRule& local = rules[1];
  EXPECT_EQ(local.head.pred, "nborNextVm");
  ASSERT_GE(local.body.size(), 3u);
  EXPECT_EQ(local.body[0].atom.pred, "tmp_d2");
  EXPECT_EQ(local.body[1].atom.pred, "migVm");
  EXPECT_EQ(local.body[2].kind, SrcBodyElem::Kind::kCond);
}

TEST(LocalizationTest, SingleLocationRuleUntouched) {
  auto parsed =
      Parse("d1 nextVm(@X,D,R) <- curVm(@X,D,R1), migVm(@X,Y,D,R2), R==R1-R2.\n");
  ASSERT_TRUE(parsed.ok());
  size_t rewritten = 0;
  auto r = LocalizeRules(parsed.value().rules, &rewritten);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
  EXPECT_EQ(rewritten, 0u);
}

TEST(LocalizationTest, ConstraintRuleRewrites) {
  // Paper c2: aggNborNextVm(@X,Y,R1) -> link(@Y,X), resource(@Y,R2), R1<=R2.
  auto parsed = Parse(
      "c2 aggNborNextVm(@X,Y,R1) -> link(@Y,X), resource(@Y,R2), R1<=R2.\n");
  ASSERT_TRUE(parsed.ok());
  size_t rewritten = 0;
  auto r = LocalizeRules(parsed.value().rules, &rewritten);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_FALSE(r.value()[0].is_constraint) << "shipping rule is regular";
  EXPECT_TRUE(r.value()[1].is_constraint) << "local rule stays a constraint";
}

TEST(LocalizationTest, ThreeLocationsRejected) {
  auto parsed =
      Parse("x(@X,V) <- a(@X,Y), b(@Y,Z,V), c(@Z,W).\n");
  ASSERT_TRUE(parsed.ok());
  size_t rewritten = 0;
  auto r = LocalizeRules(parsed.value().rules, &rewritten);
  EXPECT_FALSE(r.ok());
}

// --- Planner ----------------------------------------------------------------

TEST(PlannerTest, ACloudPlanShape) {
  auto r = CompileColog(kACloud);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CompiledProgram& p = r.value();
  EXPECT_EQ(p.counts.regular, 1u);
  EXPECT_EQ(p.counts.solver_derivation, 6u);
  EXPECT_EQ(p.counts.solver_constraint, 3u);
  EXPECT_EQ(p.counts.post_solve, 0u);
  EXPECT_EQ(p.counts.goal_and_var, 2u);
  ASSERT_EQ(p.var_decls.size(), 1u);
  EXPECT_EQ(p.var_decls[0].var_table, "assign");
  EXPECT_EQ(p.var_decls[0].forall_table, "toAssign");
  EXPECT_EQ(p.var_decls[0].dom_lo, 0);
  EXPECT_EQ(p.var_decls[0].dom_hi, 1);
  // Column mapping: Vid<-0, Hid<-1, V is the solver column.
  EXPECT_EQ(p.var_decls[0].from_forall_col, (std::vector<int>{0, 1, -1}));
  EXPECT_TRUE(p.goal.present);
  EXPECT_EQ(p.goal.table, "hostStdevCpu");
  EXPECT_EQ(p.goal.col, 0);
  // Base (input) tables.
  EXPECT_TRUE(p.base_tables.count("vm"));
  EXPECT_TRUE(p.base_tables.count("host"));
  EXPECT_TRUE(p.base_tables.count("origin"));
  EXPECT_TRUE(p.base_tables.count("hostMemThres"));
  EXPECT_FALSE(p.base_tables.count("toAssign"));
  EXPECT_FALSE(p.base_tables.count("assign"));
}

TEST(PlannerTest, DerivationsTopologicallyOrdered) {
  auto r = CompileColog(kACloud);
  ASSERT_TRUE(r.ok());
  const CompiledProgram& p = r.value();
  // d1 (hostCpu) must precede d2 (hostStdevCpu reads hostCpu). Constraints
  // come after all derivations.
  int d1_pos = -1, d2_pos = -1, first_constraint = -1;
  for (size_t i = 0; i < p.solver_rules.size(); ++i) {
    if (p.solver_rules[i].ir.label == "d1") d1_pos = static_cast<int>(i);
    if (p.solver_rules[i].ir.label == "d2") d2_pos = static_cast<int>(i);
    if (p.solver_rules[i].is_constraint && first_constraint < 0) {
      first_constraint = static_cast<int>(i);
    }
  }
  ASSERT_GE(d1_pos, 0);
  ASSERT_GE(d2_pos, 0);
  EXPECT_LT(d1_pos, d2_pos);
  for (size_t i = static_cast<size_t>(first_constraint);
       i < p.solver_rules.size(); ++i) {
    EXPECT_TRUE(p.solver_rules[i].is_constraint);
  }
}

TEST(PlannerTest, CyclicDerivationsRejected) {
  const char* src = R"(
goal minimize C in t1(C).
var v(X,V) forall base(X) domain [0,1].
d1 t1(C) <- v(X,V), t2(C2), C==V+C2.
d2 t2(C) <- t1(C1), C==C1+1.
)";
  auto r = CompileColog(src);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cyclic"), std::string::npos);
}

TEST(PlannerTest, DerivationReadingSymbolicStdevRejected) {
  // A STDEV over solver attributes exists in the model only as its integer
  // surrogate, so no derivation may build on it; the goal may read it.
  const char* reads = R"(
goal minimize C in scaled(C).
var v(X,V) forall base(X) domain [0,3].
d1 spread(STDEV<V>) <- v(X,V).
d2 scaled(C) <- spread(S), C==2*S.
)";
  auto r = CompileColog(reads);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("rule d2"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("STDEV"), std::string::npos);

  const char* goal_only = R"(
goal minimize S in spread(S).
var v(X,V) forall base(X) domain [0,3].
d1 spread(STDEV<V>) <- v(X,V).
)";
  EXPECT_TRUE(CompileColog(goal_only).ok());
}

TEST(PlannerTest, ParamResolvedToConstant) {
  auto r = CompileColog(kACloud);
  ASSERT_TRUE(r.ok());
  // c3 migrateCount(C) -> C<=max_migrates: the param becomes Const(9).
  for (const SolverRuleIR& sr : r.value().solver_rules) {
    if (sr.ir.label != "c3") continue;
    ASSERT_EQ(sr.ir.sels.size(), 1u);
    const datalog::Expr& e = sr.ir.sels[0].expr;
    ASSERT_EQ(e.kids.size(), 2u);
    EXPECT_EQ(e.kids[1].op, datalog::ExprOp::kConst);
    EXPECT_EQ(e.kids[1].const_val.as_int(), 9);
    return;
  }
  FAIL() << "c3 not found";
}

TEST(PlannerTest, CompileParamOverride) {
  std::map<std::string, Value> params{{"max_migrates", Value::Int(3)}};
  auto r = CompileColog(kACloud, params);
  ASSERT_TRUE(r.ok());
  for (const SolverRuleIR& sr : r.value().solver_rules) {
    if (sr.ir.label == "c3") {
      EXPECT_EQ(sr.ir.sels[0].expr.kids[1].const_val.as_int(), 3);
    }
  }
}


TEST(CodegenTest, EmitsSubstantialImperativeCode) {
  auto r = CompileColog(kACloud);
  ASSERT_TRUE(r.ok());
  std::string cpp = GenerateCpp(r.value(), "acloud");
  size_t sloc = CountSloc(cpp);
  // Table 2's claim: orders of magnitude more imperative code than rules.
  EXPECT_GT(sloc, 20 * r.value().counts.total());
  EXPECT_NE(cpp.find("struct VmTuple"), std::string::npos);
  EXPECT_NE(cpp.find("Minimize"), std::string::npos);
}

TEST(CodegenTest, SlocIgnoresBlanksAndComments) {
  EXPECT_EQ(CountSloc("// comment\n\nint x;\n  // c2\n y;\n"), 2u);
}

}  // namespace
}  // namespace cologne::colog
