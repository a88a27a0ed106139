// Microbenchmarks (google-benchmark) for the constraint solver substrate,
// including the B&B vs LNS backend comparison at equal time budgets: the
// per-iteration `objective` counter is the quality signal to compare. Each
// backend-comparison benchmark also emits one SolveRecord JSON row
// (consumed by the CI bench-smoke job).
//
// Two extra modes, both over the same canonical fixed-seed micro instances
// (deterministic node/iteration budgets, no wall clock):
//   bench_micro_solver solverjson    writes BENCH_solver.json — one row per
//                                    case with per-backend nodes/sec,
//                                    propagations/sec, peak memory, trail
//                                    saves, and domain-vector allocations
//                                    (the IntDomain copy-counting hook) —
//                                    the solver-core perf trajectory that
//                                    scripts/check_solver_rows.py gates.
//   bench_micro_solver determinism [GOLDEN [--update-golden]]
//                                    solves every case twice and fails
//                                    (exit 1) on any node/failure/solution
//                                    divergence; with GOLDEN (normally
//                                    tests/golden/solver_trees.txt) it also
//                                    diffs every case's tree against the
//                                    checked-in one, so solver perf work
//                                    cannot silently change the search
//                                    tree (ctest solver_tree_golden).
//                                    --update-golden rewrites GOLDEN instead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/strings.h"
#include "solver/domain.h"
#include "solver/model.h"

using namespace cologne::solver;

namespace {

// google-benchmark invokes each benchmark function several times (iteration
// estimation, then the measured run). Registering rows by benchmark key and
// printing once at exit keeps exactly one JSON row per benchmark — the final
// (measured) run's — in the bench-smoke artifact.
std::map<std::string, cologne::SolveRecord>& RecordRegistry() {
  static std::map<std::string, cologne::SolveRecord> records;
  return records;
}

void EmitRecordAtExit(const std::string& key, cologne::SolveRecord rec) {
  RecordRegistry();  // construct before atexit: the map must outlive it
  static const bool registered = [] {
    atexit([] {
      for (const auto& [key, rec] : RecordRegistry()) {
        printf("%s\n", rec.ToJsonLine().c_str());
      }
    });
    return true;
  }();
  (void)registered;
  RecordRegistry()[key] = std::move(rec);
}

// The ACloud kernel: `vms` VMs on 4 hosts, minimize squared load imbalance.
std::unique_ptr<Model> MakeAssignmentModel(int vms) {
  const int hosts = 4;
  auto m = std::make_unique<Model>();
  std::vector<std::vector<IntVar>> v(static_cast<size_t>(vms));
  for (int i = 0; i < vms; ++i) {
    LinExpr one;
    for (int h = 0; h < hosts; ++h) {
      IntVar b = m->NewBool();
      m->MarkDecision(b);
      v[static_cast<size_t>(i)].push_back(b);
      one += LinExpr(b);
    }
    m->PostRel(one, Rel::kEq, LinExpr(1));
  }
  LinExpr obj;
  for (int h = 0; h < hosts; ++h) {
    LinExpr load;
    for (int i = 0; i < vms; ++i) {
      load += LinExpr::Term(10 + (i * 7) % 40,
                            v[static_cast<size_t>(i)][static_cast<size_t>(h)]);
    }
    obj += LinExpr(m->MakeSquare(load));
  }
  m->Minimize(obj);
  return m;
}

// Backend shoot-out at an equal wall-clock budget; report the incumbent
// objective so the qualities are directly comparable.
void RunBackendComparison(benchmark::State& state, Backend backend) {
  int vms = static_cast<int>(state.range(0));
  auto m = MakeAssignmentModel(vms);
  double obj_sum = 0;
  cologne::SolveRecord rec;
  for (auto _ : state) {
    Model::Options o;
    o.time_limit_ms = 25;
    o.backend = backend;
    o.seed = 0x5EED;
    Solution s = m->Solve(o);
    benchmark::DoNotOptimize(s.objective);
    obj_sum += s.has_solution() ? static_cast<double>(s.objective) : 0;
    rec.nodes += s.stats.nodes;
    rec.iterations += s.stats.iterations;
    rec.restarts += s.stats.restarts;
    rec.wall_ms += s.stats.wall_ms;
    rec.seed = o.seed;
  }
  double mean_obj = obj_sum / static_cast<double>(state.iterations());
  state.counters["objective"] = mean_obj;
  rec.bench = std::string("micro_assignment/") + std::to_string(vms);
  rec.backend = BackendName(backend);
  rec.objective = mean_obj;
  rec.has_objective = true;
  // Key built before the move: argument evaluation order is unspecified.
  std::string key = rec.bench + "/" + rec.backend;
  EmitRecordAtExit(key, std::move(rec));
}

}  // namespace

// Propagation throughput: long linear chains.
static void BM_LinearChainPropagation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Model m;
    std::vector<IntVar> xs;
    for (int i = 0; i < n; ++i) xs.push_back(m.NewInt(0, 100));
    for (int i = 0; i + 1 < n; ++i) {
      m.PostRel(LinExpr(xs[static_cast<size_t>(i)]) + LinExpr(1), Rel::kLe,
                LinExpr(xs[static_cast<size_t>(i + 1)]));
    }
    m.PostRel(LinExpr(xs[0]), Rel::kGe, LinExpr(1));
    Solution s = m.Solve();
    benchmark::DoNotOptimize(s.status);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinearChainPropagation)->Arg(64)->Arg(256)->Arg(1024);

// Branch-and-bound on small assignment problems (the ACloud kernel).
static void BM_AssignmentBnB(benchmark::State& state) {
  int vms = static_cast<int>(state.range(0));
  const int hosts = 4;
  for (auto _ : state) {
    Model m;
    std::vector<std::vector<IntVar>> v(static_cast<size_t>(vms));
    for (int i = 0; i < vms; ++i) {
      LinExpr one;
      for (int h = 0; h < hosts; ++h) {
        IntVar b = m.NewBool();
        m.MarkDecision(b);
        v[static_cast<size_t>(i)].push_back(b);
        one += LinExpr(b);
      }
      m.PostRel(one, Rel::kEq, LinExpr(1));
    }
    LinExpr obj;
    for (int h = 0; h < hosts; ++h) {
      LinExpr load;
      for (int i = 0; i < vms; ++i) {
        load += LinExpr::Term(10 + (i * 7) % 40, v[static_cast<size_t>(i)][static_cast<size_t>(h)]);
      }
      obj += LinExpr(m.MakeSquare(load));
    }
    m.Minimize(obj);
    Model::Options o;
    o.time_limit_ms = 50;
    Solution s = m.Solve(o);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_AssignmentBnB)->Arg(6)->Arg(10)->Arg(16);

// Reified constraint stacks (the wireless interference kernel).
static void BM_ReifiedInterference(benchmark::State& state) {
  int links = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Model m;
    std::vector<IntVar> ch;
    for (int i = 0; i < links; ++i) {
      IntVar c = m.NewInt(1, 8);
      m.MarkDecision(c);
      ch.push_back(c);
    }
    LinExpr cost;
    for (int i = 0; i + 1 < links; ++i) {
      IntVar diff = m.MakeAbs(LinExpr(ch[static_cast<size_t>(i)]) -
                              LinExpr(ch[static_cast<size_t>(i + 1)]));
      cost += LinExpr(m.ReifyRel(LinExpr(diff), Rel::kLt, LinExpr(2)));
    }
    m.Minimize(cost);
    Model::Options o;
    o.time_limit_ms = 30;
    Solution s = m.Solve(o);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_ReifiedInterference)->Arg(8)->Arg(16)->Arg(32);

// Equal-budget backend comparison on the assignment kernel (25 ms/solve).
static void BM_AssignmentBackendBnb(benchmark::State& state) {
  RunBackendComparison(state, Backend::kBranchAndBound);
}
BENCHMARK(BM_AssignmentBackendBnb)->Arg(10)->Arg(20)->Arg(32);

static void BM_AssignmentBackendLns(benchmark::State& state) {
  RunBackendComparison(state, Backend::kLns);
}
BENCHMARK(BM_AssignmentBackendLns)->Arg(10)->Arg(20)->Arg(32);

// ---------------------------------------------------------------------------
// Canonical fixed-seed micro instances (solverjson / determinism modes).
// Deterministic budgets only — node limits and iteration caps, no wall
// clock — so identical seeds must reproduce identical search trees.
// ---------------------------------------------------------------------------

namespace {

// The grouped variant of the assignment kernel: one decision group per VM
// (the batched per-link negotiation shape), driving group-unit LNS
// neighborhoods.
std::unique_ptr<Model> MakeGroupedAssignmentModel(int vms) {
  const int hosts = 4;
  auto m = std::make_unique<Model>();
  std::vector<std::vector<IntVar>> v(static_cast<size_t>(vms));
  for (int i = 0; i < vms; ++i) {
    LinExpr one;
    std::vector<IntVar> group;
    for (int h = 0; h < hosts; ++h) {
      IntVar b = m->NewBool();
      m->MarkDecision(b);
      v[static_cast<size_t>(i)].push_back(b);
      group.push_back(b);
      one += LinExpr(b);
    }
    m->MarkGroup(std::move(group));
    m->PostRel(one, Rel::kEq, LinExpr(1));
  }
  LinExpr obj;
  for (int h = 0; h < hosts; ++h) {
    LinExpr load;
    for (int i = 0; i < vms; ++i) {
      load += LinExpr::Term(10 + (i * 7) % 40,
                            v[static_cast<size_t>(i)][static_cast<size_t>(h)]);
    }
    obj += LinExpr(m->MakeSquare(load));
  }
  m->Minimize(obj);
  return m;
}

// The wireless interference kernel with holey channel domains (primary-user
// removals), abs/reified stacks.
std::unique_ptr<Model> MakeInterferenceModel(int links) {
  auto m = std::make_unique<Model>();
  std::vector<IntVar> ch;
  for (int i = 0; i < links; ++i) {
    IntVar c = m->NewInt(1, 8);
    m->MarkDecision(c);
    m->RemoveValue(c, 3 + (i % 2));
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

// Propagation-heavy kernel (the event-typed engine's canonical micro case):
// wide overlapping <=-capacity sums over shared decision variables plus a
// stack of reified threshold constraints. The <= sums subscribe min events
// only (max tightenings filter), and deep dives entail reified thresholds
// early, so this is where typed wakeups and entailment unsubscription pay.
std::unique_ptr<Model> MakePropHeavyModel(int n) {
  auto m = std::make_unique<Model>();
  std::vector<IntVar> xs;
  for (int i = 0; i < n; ++i) {
    IntVar x = m->NewInt(0, 6);
    m->MarkDecision(x);
    xs.push_back(x);
  }
  // Every width-n/2 window is capacity-bounded: each decision variable sits
  // in many wide sums, so an untyped engine re-wakes all of them on every
  // bound change.
  const int w = n / 2;
  for (int start = 0; start + w <= n; ++start) {
    LinExpr sum;
    for (int j = 0; j < w; ++j) {
      sum += LinExpr::Term(1 + ((start + j) % 3),
                           xs[static_cast<size_t>(start + j)]);
    }
    m->PostRel(sum, Rel::kLe, LinExpr(static_cast<int64_t>(3 * w)));
  }
  // Reified thresholds feeding the objective; fixing a dive prefix entails
  // most of them long before the leaf.
  LinExpr cost;
  for (int i = 0; i + 1 < n; ++i) {
    IntVar b = m->ReifyRel(LinExpr(xs[static_cast<size_t>(i)]) +
                               LinExpr(xs[static_cast<size_t>(i + 1)]),
                           Rel::kGe, LinExpr(4));
    cost += LinExpr::Term(3, b);
  }
  LinExpr load;
  for (int i = 0; i < n; ++i) {
    load += LinExpr::Term(1 + (i % 4), xs[static_cast<size_t>(i)]);
  }
  // Tension: raising load lowers the objective but trips thresholds and
  // capacity sums, so B&B has real pruning work at every depth.
  m->Minimize(cost - load);
  return m;
}

struct MicroCase {
  const char* name;
  std::unique_ptr<Model> (*make)(int);
  int size;
  Backend backend;
  uint64_t seed;
  uint64_t node_limit;
  uint64_t max_iterations;
  bool naive = false;  ///< Legacy untyped-FIFO propagation reference mode
                       ///< (SOLVER_NAIVE_PROPAGATION); same search tree,
                       ///< historical effort counters.
};

// `deep_dive_bnb` is the headline case of the trailed-store trajectory: a
// 64-decision B&B dive deep enough that state restoration dominates.
const MicroCase kMicroCases[] = {
    {"deep_dive_bnb", MakeAssignmentModel, 16, Backend::kBranchAndBound,
     0x5EED, 200'000, 0},
    {"bnb_assign10", MakeAssignmentModel, 10, Backend::kBranchAndBound,
     0x5EED, 50'000, 50},
    {"lns_assign12", MakeAssignmentModel, 12, Backend::kLns, 0x10C5, 0, 300},
    {"lns_grouped10", MakeGroupedAssignmentModel, 10, Backend::kLns, 0x77, 0,
     250},
    {"bnb_interf12", MakeInterferenceModel, 12, Backend::kBranchAndBound,
     0x1234, 40'000, 60},
    // Propagation-ratio pairs: the same instance under the event-typed
    // engine (default) and the naive untyped-FIFO reference. Search trees
    // are identical by construction; the props_executed ratio between the
    // paired rows is the CI acceptance gate of the event-typed engine.
    {"deep_dive_bnb_naive", MakeAssignmentModel, 16, Backend::kBranchAndBound,
     0x5EED, 200'000, 0, true},
    {"prop_heavy_bnb", MakePropHeavyModel, 16, Backend::kBranchAndBound,
     0xF00D, 60'000, 0},
    {"prop_heavy_naive", MakePropHeavyModel, 16, Backend::kBranchAndBound,
     0xF00D, 60'000, 0, true},
};

Model::Options MicroOptions(const MicroCase& c) {
  Model::Options o;
  o.time_limit_ms = 0;  // deterministic budgets only
  o.backend = c.backend;
  o.seed = c.seed;
  o.node_limit = c.node_limit;
  o.max_iterations = c.max_iterations;
  o.naive_propagation = c.naive;
  return o;
}

Solution RunMicroCase(const MicroCase& c) {
  auto m = c.make(c.size);
  return m->Solve(MicroOptions(c));
}

// One BENCH_solver.json row per canonical case.
int RunSolverJson() {
  FILE* out = fopen("BENCH_solver.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot open BENCH_solver.json for writing\n");
    return 1;
  }
  for (const MicroCase& c : kMicroCases) {
    // Build outside the timed window: the row measures the search core
    // (nodes/sec, allocations during search), not model construction.
    auto m = c.make(c.size);
    Model::Options o = MicroOptions(c);
    const uint64_t allocs_before = DomainCopyCount();
    const auto t0 = std::chrono::steady_clock::now();
    Solution s = m->Solve(o);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const uint64_t domain_allocs = DomainCopyCount() - allocs_before;
    const double secs = wall_ms > 0 ? wall_ms / 1000.0 : 1e-9;
    std::string row = cologne::StrFormat(
        "{\"bench\":\"solver_micro\",\"case\":\"%s\",\"backend\":\"%s\","
        "\"seed\":%llu,\"nodes\":%llu,\"propagations\":%llu,"
        "\"wall_ms\":%.3f,\"nodes_per_sec\":%.0f,\"props_per_sec\":%.0f,"
        "\"peak_mem_bytes\":%llu,\"trail_saves\":%llu,"
        "\"domain_allocs\":%llu,"
        "\"props_executed\":%llu,\"props_skipped_entailed\":%llu,"
        "\"wakes_filtered\":%llu,\"naive\":%d,\"objective\":%lld}",
        c.name, BackendName(c.backend),
        static_cast<unsigned long long>(c.seed),
        static_cast<unsigned long long>(s.stats.nodes),
        static_cast<unsigned long long>(s.stats.propagations), wall_ms,
        static_cast<double>(s.stats.nodes) / secs,
        static_cast<double>(s.stats.propagations) / secs,
        static_cast<unsigned long long>(s.stats.peak_memory_bytes),
        static_cast<unsigned long long>(s.stats.trail_saves),
        static_cast<unsigned long long>(domain_allocs),
        static_cast<unsigned long long>(s.stats.propagations),
        static_cast<unsigned long long>(s.stats.props_skipped_entailed),
        static_cast<unsigned long long>(s.stats.wakes_filtered),
        c.naive ? 1 : 0,
        static_cast<long long>(s.has_solution() ? s.objective : 0));
    fprintf(out, "%s\n", row.c_str());
    printf("%s\n", row.c_str());
  }
  fclose(out);
  return 0;
}

// One golden-file line: `case nodes failures solutions propagations
// objective` — the fingerprint of one search tree.
std::string TreeLine(const MicroCase& c, const Solution& s) {
  return cologne::StrFormat(
      "%s %llu %llu %llu %llu %lld", c.name,
      static_cast<unsigned long long>(s.stats.nodes),
      static_cast<unsigned long long>(s.stats.failures),
      static_cast<unsigned long long>(s.stats.solutions),
      static_cast<unsigned long long>(s.stats.propagations),
      static_cast<long long>(s.has_solution() ? s.objective : 0));
}

// Diff `lines` (one per case, in case order) against the
// golden file at `path`, or rewrite it when `update` is set. Returns 0 when
// they agree (or the file was written).
int CheckTreeGolden(const std::vector<std::string>& lines,
                    const std::string& path, bool update) {
  if (update) {
    std::ofstream out(path);
    out << "# bench_micro_solver determinism: one line per single-worker "
           "case\n# case nodes failures solutions propagations objective\n";
    for (const std::string& l : lines) out << l << "\n";
    if (!out) {
      fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    printf("wrote %zu trees to %s\n", lines.size(), path.c_str());
    return 0;
  }
  std::ifstream in(path);
  if (!in) {
    fprintf(stderr, "cannot read golden trees %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> want;
  for (std::string l; std::getline(in, l);) {
    if (!l.empty() && l[0] != '#') want.push_back(l);
  }
  int rc = want.size() == lines.size() ? 0 : 1;
  for (size_t i = 0; i < std::max(want.size(), lines.size()); ++i) {
    const std::string& w = i < want.size() ? want[i] : std::string("-");
    const std::string& g = i < lines.size() ? lines[i] : std::string("-");
    if (w != g) {
      printf("golden MISMATCH\n  want: %s\n  got:  %s\n", w.c_str(),
             g.c_str());
      rc = 1;
    }
  }
  printf("golden trees %s (%zu cases, %s)\n", rc == 0 ? "OK" : "MISMATCH",
         lines.size(), path.c_str());
  return rc;
}

// Solve every canonical case twice; any divergence in the explored tree
// (nodes / failures / solutions / propagations / objective) is a
// determinism regression. With `golden_path`, the trees must also equal the
// checked-in ones.
int RunDeterminism(const char* golden_path, bool update_golden) {
  int rc = 0;
  std::vector<std::string> tree_lines;
  for (const MicroCase& c : kMicroCases) {
    Solution a = RunMicroCase(c);
    Solution b = RunMicroCase(c);
    const bool same = a.stats.nodes == b.stats.nodes &&
                      a.stats.failures == b.stats.failures &&
                      a.stats.solutions == b.stats.solutions &&
                      a.stats.propagations == b.stats.propagations &&
                      a.objective == b.objective && a.values == b.values;
    printf("%-18s %s nodes=%llu/%llu failures=%llu/%llu solutions=%llu/%llu\n",
           c.name, same ? "OK" : "MISMATCH",
           static_cast<unsigned long long>(a.stats.nodes),
           static_cast<unsigned long long>(b.stats.nodes),
           static_cast<unsigned long long>(a.stats.failures),
           static_cast<unsigned long long>(b.stats.failures),
           static_cast<unsigned long long>(a.stats.solutions),
           static_cast<unsigned long long>(b.stats.solutions));
    if (!same) rc = 1;
    tree_lines.push_back(TreeLine(c, a));
  }
  if (golden_path != nullptr &&
      CheckTreeGolden(tree_lines, golden_path, update_golden) != 0) {
    rc = 1;
  }
  // Cross-mode gate: the event-typed engine and the naive reference must
  // explore the exact same tree (nodes / failures / solutions / objective /
  // values) on the paired canonical instances. Propagation-effort counters
  // are intentionally NOT compared across modes — differing is the point.
  const std::pair<const char*, const char*> kModePairs[] = {
      {"deep_dive_bnb", "deep_dive_bnb_naive"},
      {"prop_heavy_bnb", "prop_heavy_naive"},
  };
  for (const auto& [event_name, naive_name] : kModePairs) {
    const MicroCase* ev = nullptr;
    const MicroCase* na = nullptr;
    for (const MicroCase& c : kMicroCases) {
      if (std::strcmp(c.name, event_name) == 0) ev = &c;
      if (std::strcmp(c.name, naive_name) == 0) na = &c;
    }
    if (ev == nullptr || na == nullptr) continue;
    Solution a = RunMicroCase(*ev);
    Solution b = RunMicroCase(*na);
    const bool same = a.stats.nodes == b.stats.nodes &&
                      a.stats.failures == b.stats.failures &&
                      a.stats.solutions == b.stats.solutions &&
                      a.objective == b.objective && a.values == b.values;
    printf("%-18s %s cross-mode nodes=%llu/%llu objective=%lld/%lld\n",
           event_name, same ? "OK" : "MISMATCH",
           static_cast<unsigned long long>(a.stats.nodes),
           static_cast<unsigned long long>(b.stats.nodes),
           static_cast<long long>(a.objective),
           static_cast<long long>(b.objective));
    if (!same) rc = 1;
  }
  if (rc != 0) {
    fprintf(stderr, "determinism check FAILED: search trees diverged "
                    "(between runs, across modes, or from the golden file)\n");
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "solverjson") == 0) {
    return RunSolverJson();
  }
  if (argc > 1 && std::strcmp(argv[1], "determinism") == 0) {
    return RunDeterminism(argc > 2 ? argv[2] : nullptr,
                          argc > 3 &&
                              std::strcmp(argv[3], "--update-golden") == 0);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
