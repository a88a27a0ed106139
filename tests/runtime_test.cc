// End-to-end runtime tests: full Colog programs through compile ->
// facts -> invokeSolver -> writeback -> incremental re-evaluation.
#include <gtest/gtest.h>

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

// The paper's ACloud program (Section 4.2) with migration-limit extension.
const char* kACloud = R"(
param max_migrates = 100.
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

class ACloudRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto compiled = colog::CompileColog(kACloud);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    program_ = std::move(compiled).value();
    instance_ = std::make_unique<Instance>(0, &program_);
    ASSERT_TRUE(instance_->Init().ok());
  }

  // vm(Vid, Cpu, Mem), host(Hid, Cpu, Mem), hostMemThres(Hid, M),
  // origin(Vid, Hid).
  void AddVm(int64_t vid, int64_t cpu, int64_t mem, int64_t origin_host) {
    ASSERT_TRUE(instance_->InsertFact("vm", R({vid, cpu, mem})).ok());
    ASSERT_TRUE(instance_->InsertFact("origin", R({vid, origin_host})).ok());
  }
  void AddHost(int64_t hid, int64_t mem_thres) {
    ASSERT_TRUE(instance_->InsertFact("host", R({hid, 0, 0})).ok());
    ASSERT_TRUE(instance_->InsertFact("hostMemThres", R({hid, mem_thres})).ok());
  }

  colog::CompiledProgram program_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(ACloudRuntimeTest, ToAssignDerivedIncrementally) {
  AddVm(1, 40, 8, 100);
  AddHost(100, 32);
  AddHost(101, 32);
  EXPECT_EQ(instance_->engine().GetTable("toAssign")->size(), 2u);
  AddVm(2, 20, 8, 101);
  EXPECT_EQ(instance_->engine().GetTable("toAssign")->size(), 4u);
}

TEST_F(ACloudRuntimeTest, SolveBalancesLoad) {
  // VMs with CPU 40, 20, 20: optimum splits 40 | 20+20 across two hosts.
  AddVm(1, 40, 8, 100);
  AddVm(2, 20, 8, 100);
  AddVm(3, 20, 8, 100);
  AddHost(100, 32);
  AddHost(101, 32);
  auto out = instance_->Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_EQ(out.value().status, solver::SolveStatus::kOptimal);
  ASSERT_TRUE(out.value().has_objective);
  EXPECT_NEAR(out.value().objective, 0.0, 1e-9) << "perfect balance possible";

  // Writeback: assign rows materialized with concrete 0/1 values.
  datalog::Table* assign = instance_->engine().GetTable("assign");
  ASSERT_EQ(assign->size(), 6u);
  // Each VM on exactly one host.
  for (int64_t vid : {1, 2, 3}) {
    int64_t total = 0;
    for (const Row& row : assign->Rows()) {
      if (row[0].as_int() == vid) total += row[2].as_int();
    }
    EXPECT_EQ(total, 1) << "constraint c1 for vm " << vid;
  }
  // The goal table materialized with the true stdev.
  datalog::Table* goal = instance_->engine().GetTable("hostStdevCpu");
  ASSERT_EQ(goal->size(), 1u);
  EXPECT_NEAR(goal->Rows()[0][0].as_double(), 0.0, 1e-9);
}

TEST_F(ACloudRuntimeTest, MemoryConstraintRespected) {
  // Two big-memory VMs cannot share the 10-unit host; CPU balance would
  // prefer them together on host 100 otherwise.
  AddVm(1, 10, 8, 100);
  AddVm(2, 10, 8, 100);
  AddHost(100, 10);
  AddHost(101, 32);
  auto out = instance_->Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  datalog::Table* assign = instance_->engine().GetTable("assign");
  int64_t mem_on_100 = 0;
  for (const Row& row : assign->Rows()) {
    if (row[1].as_int() == 100 && row[2].as_int() == 1) mem_on_100 += 8;
  }
  EXPECT_LE(mem_on_100, 10) << "constraint c2 violated";
}

TEST_F(ACloudRuntimeTest, InfeasibleWhenMemoryTooSmall) {
  AddVm(1, 10, 8, 100);
  AddHost(100, 4);  // the only host cannot fit the VM
  auto out = instance_->Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().status, solver::SolveStatus::kInfeasible);
}

TEST_F(ACloudRuntimeTest, MigrationCountDerived) {
  AddVm(1, 40, 8, 100);  // currently on host 100
  AddVm(2, 20, 8, 100);
  AddVm(3, 20, 8, 100);
  AddHost(100, 32);
  AddHost(101, 32);
  auto out = instance_->Solve();
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out.value().has_solution());
  // Balancing requires moving some VMs off host 100; migrateCount counts them.
  datalog::Table* mc = instance_->engine().GetTable("migrateCount");
  ASSERT_EQ(mc->size(), 1u);
  int64_t migrations = mc->Rows()[0][0].as_int();
  EXPECT_GE(migrations, 1);
  EXPECT_LE(migrations, 2);
}

TEST_F(ACloudRuntimeTest, MigrationLimitChangesSolution) {
  // Recompile with max_migrates = 0: no VM may leave its origin host.
  std::map<std::string, Value> params{{"max_migrates", Value::Int(0)}};
  auto compiled = colog::CompileColog(kACloud, params);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  ASSERT_TRUE(inst.InsertFact("vm", R({1, 40, 8})).ok());
  ASSERT_TRUE(inst.InsertFact("origin", R({1, 100})).ok());
  ASSERT_TRUE(inst.InsertFact("vm", R({2, 20, 8})).ok());
  ASSERT_TRUE(inst.InsertFact("origin", R({2, 100})).ok());
  ASSERT_TRUE(inst.InsertFact("host", R({100, 0, 0})).ok());
  ASSERT_TRUE(inst.InsertFact("hostMemThres", R({100, 32})).ok());
  ASSERT_TRUE(inst.InsertFact("host", R({101, 0, 0})).ok());
  ASSERT_TRUE(inst.InsertFact("hostMemThres", R({101, 32})).ok());
  auto out = inst.Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  // Both VMs stay on host 100 even though splitting balances better.
  datalog::Table* assign = inst.engine().GetTable("assign");
  for (const Row& row : assign->Rows()) {
    if (row[2].as_int() == 1) {
      EXPECT_EQ(row[1].as_int(), 100);
    }
  }
}

TEST_F(ACloudRuntimeTest, ResolveAfterWorkloadChangeReplacesOutput) {
  AddVm(1, 40, 8, 100);
  AddHost(100, 32);
  AddHost(101, 32);
  ASSERT_TRUE(instance_->Solve().ok());
  size_t before = instance_->engine().GetTable("assign")->size();
  EXPECT_EQ(before, 2u);
  // A new VM arrives; re-solving must replace old output cleanly.
  AddVm(2, 40, 8, 101);
  auto out2 = instance_->Solve();
  ASSERT_TRUE(out2.ok()) << out2.status().ToString();
  EXPECT_EQ(instance_->engine().GetTable("assign")->size(), 4u);
  // VM 1 and 2 end up on different hosts for balance.
  datalog::Table* assign = instance_->engine().GetTable("assign");
  int64_t host_of_1 = -1, host_of_2 = -1;
  for (const Row& row : assign->Rows()) {
    if (row[2].as_int() != 1) continue;
    if (row[0].as_int() == 1) host_of_1 = row[1].as_int();
    if (row[0].as_int() == 2) host_of_2 = row[1].as_int();
  }
  EXPECT_NE(host_of_1, host_of_2);
}

// --- Distributed: a miniature Follow-the-Sun negotiation -------------------

// Simplified two-node Follow-the-Sun (paper Section 4.3): node X decides how
// many VMs to migrate to its neighbor Y for a single demand location, then
// propagates the symmetric row and updates allocations via post-solve rules.
const char* kMiniFts = R"(
table curVm(X,D,R) keys(X,D).
table migVm(X,Y,D,R) keys(X,Y,D).

goal minimize C in aggCost(@X,C).
var migVm(@X,Y,D,R) forall toMigVm(@X,Y,D) domain [-60,60].

r1 toMigVm(@X,Y,D) <- setLink(@X,Y), dc(@X,D).

d1 nextVm(@X,D,R) <- curVm(@X,D,R1), migVm(@X,Y,D,R2), R==R1-R2.
d2 nborNextVm(@X,Y,D,R) <- link(@Y,X), curVm(@Y,D,R1), migVm(@X,Y,D,R2), R==R1+R2.

d3 aggCommCost(@X,SUM<Cost>) <- nextVm(@X,D,R), commCost(@X,D,C), Cost==R*C.
d5 nborAggCommCost(@X,SUM<Cost>) <- link(@Y,X), commCost(@Y,D,C), nborNextVm(@X,Y,D,R), Cost==R*C.
d7 aggMigCost(@X,SUMABS<Cost>) <- migVm(@X,Y,D,R), migCost(@X,Y,C), Cost==R*C.
d8 aggCost(@X,C) <- aggCommCost(@X,C1), aggMigCost(@X,C3), nborAggCommCost(@X,C4), C==C1+C3+C4.

d9 aggNextVm(@X,SUM<R>) <- nextVm(@X,D,R).
c1 aggNextVm(@X,R1) -> resource(@X,R2), R1<=R2.
d10 aggNborNextVm(@X,Y,SUM<R>) <- nborNextVm(@X,Y,D,R).
c2 aggNborNextVm(@X,Y,R1) -> link(@Y,X), resource(@Y,R2), R1<=R2.
// Allocations cannot go negative (implicit in the paper's model).
c3 nextVm(@X,D,R) -> R>=0.
c4 nborNextVm(@X,Y,D,R) -> R>=0.

r2 migVm(@Y,X,D,R2) <- setLink(@X,Y), migVm(@X,Y,D,R1), R2:=-R1.
r3 curVm(@X,D,R) <- migVm(@X,Y,D,R2), curVm(@X,D,R1), R:=R1-R2.
)";

TEST_F(ACloudRuntimeTest, SecondSolveWarmStartsFromCachedSolution) {
  AddVm(1, 40, 8, 100);
  AddVm(2, 20, 8, 100);
  AddVm(3, 20, 8, 100);
  AddHost(100, 32);
  AddHost(101, 32);
  auto first = instance_->Solve();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().warm_started) << "nothing cached yet";
  EXPECT_FALSE(instance_->warm_start_cache().empty());

  // The recurring invokeSolver loop: the second solve starts from the
  // cached placement and must reach the same optimum.
  AddVm(4, 10, 8, 101);
  auto second = instance_->Solve();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().warm_started);
  ASSERT_TRUE(second.value().has_solution());

  instance_->reset_warm_start();
  EXPECT_TRUE(instance_->warm_start_cache().empty());
}

TEST_F(ACloudRuntimeTest, WarmStartCanBeDisabled) {
  AddVm(1, 40, 8, 100);
  AddHost(100, 32);
  SolveOptions o = instance_->solve_options();
  o.warm_start = false;
  instance_->set_solve_options(o);
  ASSERT_TRUE(instance_->Solve().ok());
  auto second = instance_->Solve();
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().warm_started);
}

TEST_F(ACloudRuntimeTest, LnsBackendSolvesTheSameModel) {
  AddVm(1, 40, 8, 100);
  AddVm(2, 20, 8, 100);
  AddVm(3, 20, 8, 100);
  AddHost(100, 32);
  AddHost(101, 32);
  SolveOptions o = instance_->solve_options();
  o.backend = solver::Backend::kLns;
  o.time_limit_ms = 500;
  o.max_iterations = 200;
  instance_->set_solve_options(o);
  auto out = instance_->Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  EXPECT_EQ(out.value().backend, solver::Backend::kLns);
  ASSERT_TRUE(out.value().has_objective);
  EXPECT_NEAR(out.value().objective, 0.0, 1e-9)
      << "LNS must find the perfectly balanced placement here";
}

TEST(SolverKnobsTest, ProgramKnobsConfigureInstanceOptions) {
  const char* src = R"(
param SOLVER_BACKEND = "lns".
param SOLVER_MAX_TIME = 250.
param SOLVER_SEED = 99.
goal minimize C in cost(C).
var pick(I,V) forall item(I) domain [0,1].
d1 cost(SUM<V>) <- pick(I,V).
)";
  auto compiled = colog::CompileColog(src);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  Instance inst(0, &prog);
  ASSERT_TRUE(inst.Init().ok());
  EXPECT_EQ(inst.solve_options().backend, solver::Backend::kLns);
  EXPECT_DOUBLE_EQ(inst.solve_options().time_limit_ms, 250);
  EXPECT_EQ(inst.solve_options().seed, 99u);
}

TEST(FollowTheSunRuntimeTest, TwoNodeNegotiationMovesVmsTowardCheapComm) {
  auto compiled = colog::CompileColog(kMiniFts);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  EXPECT_TRUE(prog.distributed);

  System sys(&prog, 2);
  ASSERT_TRUE(sys.Init().ok());
  ASSERT_TRUE(sys.AddLink(0, 1).ok());

  auto N = [](NodeId n) { return Value::Node(n); };
  // Topology facts (link is symmetric, stored per owner).
  ASSERT_TRUE(sys.InsertFact(0, "link", {N(0), N(1)}).ok());
  ASSERT_TRUE(sys.InsertFact(1, "link", {N(1), N(0)}).ok());
  // One demand location D=7. Node 0 currently hosts 10 VMs for it, node 1
  // hosts 0. Node 1 is far cheaper for this demand: comm cost 1 vs 50.
  ASSERT_TRUE(sys.InsertFact(0, "dc", {N(0), Value::Int(7)}).ok());
  ASSERT_TRUE(sys.InsertFact(0, "curVm", {N(0), Value::Int(7), Value::Int(10)}).ok());
  ASSERT_TRUE(sys.InsertFact(1, "curVm", {N(1), Value::Int(7), Value::Int(0)}).ok());
  ASSERT_TRUE(sys.InsertFact(0, "commCost", {N(0), Value::Int(7), Value::Int(50)}).ok());
  ASSERT_TRUE(sys.InsertFact(1, "commCost", {N(1), Value::Int(7), Value::Int(1)}).ok());
  ASSERT_TRUE(sys.InsertFact(0, "migCost", {N(0), N(1), Value::Int(2)}).ok());
  ASSERT_TRUE(sys.InsertFact(0, "resource", {N(0), Value::Int(60)}).ok());
  ASSERT_TRUE(sys.InsertFact(1, "resource", {N(1), Value::Int(60)}).ok());
  // Let the localization rewrite ship node 1's state to node 0.
  sys.RunToQuiescence();

  // Node 0 initiates negotiation over the link.
  ASSERT_TRUE(sys.InsertFact(0, "setLink", {N(0), N(1)}).ok());
  ASSERT_TRUE(sys.InsertFact(1, "setLink", {N(1), N(0)}).ok());
  sys.RunToQuiescence();

  sys.node(0).set_solve_options([] {
    SolveOptions o;
    o.time_limit_ms = 5000;
    return o;
  }());
  auto out = sys.node(0).Solve();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out.value().has_solution());
  sys.RunToQuiescence();  // deliver r2's symmetric migVm row to node 1

  // Optimal: migrate all 10 VMs to node 1 (cost 10*1 + 10*2 < 10*50).
  datalog::Table* mig0 = sys.node(0).engine().GetTable("migVm");
  ASSERT_GE(mig0->size(), 1u);
  Row want{N(0), N(1), Value::Int(7), Value::Int(10)};
  EXPECT_TRUE(mig0->Contains(want))
      << "migVm rows: " << [&] {
           std::string s;
           for (const Row& r : mig0->Rows()) s += RowToString(r) + " ";
           return s;
         }();

  // r2 propagated the symmetric row to node 1.
  datalog::Table* mig1 = sys.node(1).engine().GetTable("migVm");
  Row sym{N(1), N(0), Value::Int(7), Value::Int(-10)};
  EXPECT_TRUE(mig1->Contains(sym));

  // r3 updated both allocations.
  EXPECT_TRUE(sys.node(0).engine().GetTable("curVm")->Contains(
      {N(0), Value::Int(7), Value::Int(0)}));
  EXPECT_TRUE(sys.node(1).engine().GetTable("curVm")->Contains(
      {N(1), Value::Int(7), Value::Int(10)}));
}

TEST(SystemTest, ScheduleSolveRunsAtVirtualTime) {
  auto compiled = colog::CompileColog(kACloud);
  ASSERT_TRUE(compiled.ok());
  colog::CompiledProgram prog = std::move(compiled).value();
  System sys(&prog, 1);
  ASSERT_TRUE(sys.Init().ok());
  ASSERT_TRUE(sys.InsertFact(0, "vm", R({1, 40, 8})).ok());
  ASSERT_TRUE(sys.InsertFact(0, "origin", R({1, 100})).ok());
  ASSERT_TRUE(sys.InsertFact(0, "host", R({100, 0, 0})).ok());
  ASSERT_TRUE(sys.InsertFact(0, "hostMemThres", R({100, 32})).ok());
  bool solved = false;
  sys.ScheduleSolve(0, 60.0, [&](const SolveOutput& out) {
    solved = out.has_solution();
  });
  sys.RunUntil(59.0);
  EXPECT_FALSE(solved);
  sys.RunUntil(61.0);
  EXPECT_TRUE(solved);
  EXPECT_EQ(sys.node(0).solve_count(), 1u);
}

}  // namespace
}  // namespace cologne::runtime
