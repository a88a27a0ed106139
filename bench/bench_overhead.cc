// Sections 6.2-6.4 overhead numbers: Colog compilation time, per-COP solver
// time, and memory footprints for each case-study program.
//
//   bench_overhead             full report (compilation + ACloud COP)
//   bench_overhead obsjson     observability overhead on the 10-DC batched
//                              FTS soak, written to BENCH_obs.json
//   bench_overhead resolvejson 1-fact-delta incremental re-solve latency vs
//                              a cold solve (ISSUE 7), BENCH_resolve.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "apps/common_config.h"
#include "apps/followsun.h"
#include "apps/programs.h"
#include "colog/planner.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "runtime/instance.h"
#include "runtime/system.h"

using namespace cologne;
using namespace cologne::apps;

namespace {

double CompileMs(const std::string& src, int reps = 10) {
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    auto r = colog::CompileColog(src);
    if (!r.ok()) return -1;
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count() /
         reps;
}

// The bench_fig4 r10 soak shape: 10 DCs over the reliable transport with
// batched per-link solves — the heaviest recorded scenario, so the obs
// layer's relative cost is measured where it matters.
FtsConfig ObsSoakConfig(bool obs) {
  FtsConfig cfg;
  cfg.num_dcs = 10;
  cfg.seed = 104;
  cfg.knobs["NET_RELIABLE"] = Value::Int(1);
  cfg.batch_links = true;
  cfg.max_link_batch = 3;
  cfg.capacity = 45;
  cfg.demand_hi = 4;
  cfg.knobs["SOLVER_BACKEND"] = Value::Str("lns");
  cfg.solver_max_iterations = 8;
  cfg.solver_time_ms = 0;
  cfg.knobs["OBS_METRICS"] = Value::Int(obs ? 1 : 0);
  return cfg;
}

// One timed soak run; returns wall ms, or -1 on failure. The trace recorder
// is attached in BOTH arms so the measured delta is the obs layer alone
// (metric accumulation, provenance recording, `metrics` line emission) and
// not the baseline trace plumbing.
double TimedSoakMs(bool obs, runtime::TraceRecorder* trace) {
  using Clock = std::chrono::steady_clock;
  FtsConfig cfg = ObsSoakConfig(obs);
  cfg.trace = trace;
  FollowTheSunScenario scenario(cfg);
  auto t0 = Clock::now();
  auto r = scenario.Run();
  double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!r.ok()) {
    fprintf(stderr, "obs soak (obs=%d) failed: %s\n", obs ? 1 : 0,
            r.status().ToString().c_str());
    return -1;
  }
  return ms;
}

// Observability overhead: alternate off/on runs, keep the per-arm minimum
// (the standard noise-resistant estimator for "how fast can this go"), and
// report the relative cost. Target is <=3%; the row records the measured
// number either way so regressions are visible in the uploaded artifact.
int RunObsJson() {
  constexpr int kReps = 3;
  constexpr double kTargetPct = 3.0;
  double best_off = -1, best_on = -1;
  size_t metrics_lines = 0, trace_lines_on = 0, trace_lines_off = 0;
  for (int i = 0; i < kReps; ++i) {
    runtime::TraceRecorder off_trace, on_trace;
    double off = TimedSoakMs(false, &off_trace);
    double on = TimedSoakMs(true, &on_trace);
    if (off < 0 || on < 0) return 1;
    if (best_off < 0 || off < best_off) best_off = off;
    if (best_on < 0 || on < best_on) best_on = on;
    trace_lines_off = off_trace.lines().size();
    trace_lines_on = on_trace.lines().size();
    metrics_lines = 0;
    for (const std::string& line : on_trace.lines()) {
      if (line.find("\"ev\":\"metrics\"") != std::string::npos) {
        ++metrics_lines;
      }
    }
  }
  double overhead_pct = (best_on - best_off) / best_off * 100.0;
  std::string row = StrFormat(
      "{\"bench\":\"obs_overhead\",\"case\":\"r10_soak\",\"backend\":\"lns\","
      "\"seed\":104,\"dcs\":10,\"reps\":%d,\"wall_ms_off\":%.1f,"
      "\"wall_ms_on\":%.1f,\"overhead_pct\":%.2f,\"target_pct\":%.1f,"
      "\"within_target\":%d,\"metrics_lines\":%zu,\"trace_lines_off\":%zu,"
      "\"trace_lines_on\":%zu}",
      kReps, best_off, best_on, overhead_pct, kTargetPct,
      overhead_pct <= kTargetPct ? 1 : 0, metrics_lines, trace_lines_off,
      trace_lines_on);
  printf("%s\n", row.c_str());
  printf("obs overhead on the 10-DC soak: %.2f%% (target <=%.1f%%)\n",
         overhead_pct, kTargetPct);
  FILE* out = fopen("BENCH_obs.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot open BENCH_obs.json for writing\n");
    return 1;
  }
  fprintf(out, "%s\n", row.c_str());
  fclose(out);
  return 0;
}

// ---- Incremental re-solve latency (ISSUE 7) --------------------------------

// One measured arm of the re-solve bench: a 10-DC reliable chain
// (0-1-...-9, node i initiating the negotiation for link (i,i+1)), primed
// to the system fixed point, then hit with a single fact delta at the tail
// DC (its capacity collapses). Re-converging means every initiator
// re-solves once; the delta only perturbs node 8's model, so with the
// incremental path on, nodes 0..7 serve their cached solve from the
// content-hash reuse check while node 8 rebuilds. The cold arm re-solves
// every node from scratch as kBatched solves with the warm-start cache
// cleared — what every re-convergence sweep cost without the incremental
// path.
struct ResolveArm {
  double ms = -1;
  int dirty = 0, clean = 0, reused = 0;
  bool fallback = false;
  double objective = 0;
  bool ok = false;
};

constexpr NodeId kChainDcs = 10;
constexpr NodeId kInitiators = kChainDcs - 1;
constexpr int kDemands = 64;  // decision vars per negotiated link

ResolveArm TimedResolve(bool incremental, const colog::CompiledProgram& prog) {
  using Clock = std::chrono::steady_clock;
  ResolveArm arm;
  FtsConfig cfg = ObsSoakConfig(false);
  runtime::System sys(&prog, kChainDcs, MakeSystemOptions(cfg));
  if (!sys.Init().ok()) return arm;
  auto N = [](NodeId n) { return Value::Node(n); };
  auto I = [](int64_t v) { return Value::Int(v); };
  for (NodeId i = 0; i + 1 < kChainDcs; ++i) {
    (void)sys.AddLink(i, i + 1);
    (void)sys.InsertFact(i, "link", {N(i), N(i + 1)});
    (void)sys.InsertFact(i + 1, "link", {N(i + 1), N(i)});
    (void)sys.InsertFact(i, "migCost", {N(i), N(i + 1), I(2)});
  }
  for (NodeId x = 0; x < kChainDcs; ++x) {
    (void)sys.InsertFact(x, "resource", {N(x), I(200)});
    (void)sys.InsertFact(x, "opCost", {N(x), I(1)});
    for (int d = 0; d < kDemands; ++d) {
      (void)sys.InsertFact(x, "curVm", {N(x), I(d), I((x + d) % 3 + 1)});
      (void)sys.InsertFact(
          x, "commCost",
          {N(x), I(d), I(static_cast<int>(x) == d % 10 ? 1 : 40)});
      if (x < kInitiators) (void)sys.InsertFact(x, "dc", {N(x), I(d)});
    }
  }
  sys.RunToQuiescence();
  for (NodeId i = 0; i < kInitiators; ++i) {
    (void)sys.InsertFact(i, "setLink", {N(i), N(i + 1)});
  }
  sys.RunToQuiescence();

  // Both arms prime the same incremental steady state.
  runtime::SolveRequest req;
  req.mode = runtime::SolveMode::kIncremental;
  req.group_key_prefix = 2;
  for (NodeId i = 0; i < kInitiators; ++i) {
    runtime::Instance& inst = sys.node(i);
    inst.set_solve_options(
        OverlaySolveOptions(cfg, inst.solve_options(), cfg.solver_time_ms));
  }
  // Prime sweeps until the negotiation reaches its fixed point: every
  // initiator's re-solve classifies clean (served from the reuse cache).
  for (int sweep = 0; sweep < 20; ++sweep) {
    int stable = 0;
    for (NodeId i = 0; i < kInitiators; ++i) {
      req.changed_tables = sys.node(i).touched_tables();
      auto out = sys.node(i).Solve(req);
      if (!out.ok()) return arm;
      if (out.value().incr_dirty == 0) ++stable;
      sys.RunToQuiescence();
    }
    if (stable == kInitiators) break;
  }
  // The 1-fact delta: the tail DC's capacity collapses (keyed replacement
  // of its resource row), forcing link (8,9) to renegotiate. Only node 8's
  // model reads that fact; every other initiator's inputs are untouched.
  (void)sys.InsertFact(kChainDcs - 1, "resource", {N(kChainDcs - 1), I(126)});
  sys.RunToQuiescence();

  if (!incremental) {
    for (NodeId i = 0; i < kInitiators; ++i) sys.node(i).reset_warm_start();
    req.mode = runtime::SolveMode::kBatched;
  }
  // The measured unit: one full re-convergence sweep (every initiator
  // re-solves once, then the writeback deltas drain).
  auto t0 = Clock::now();
  for (NodeId i = 0; i < kInitiators; ++i) {
    req.changed_tables = sys.node(i).touched_tables();
    auto out = sys.node(i).Solve(req);
    if (!out.ok() || !out.value().has_solution()) return arm;
    const runtime::SolveOutput& o = out.value();
    if (o.incr_dirty > 0) arm.dirty += o.incr_dirty;
    if (o.incr_clean > 0) arm.clean += o.incr_clean;
    if (o.incr_reused) ++arm.reused;
    if (o.incr_fallback) arm.fallback = true;
    arm.objective += o.objective;
  }
  sys.RunToQuiescence();
  arm.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  arm.ok = true;
  return arm;
}

// Re-solve latency after a 1-fact delta: alternate cold/incremental arms,
// keep each arm's minimum over kReps runs, and report the speedup against
// the >=5x target. Both arms sweep the identical post-delta system with the
// same backend/budget knobs; the only difference is the incremental state.
int RunResolveJson() {
  constexpr int kReps = 3;
  constexpr double kTarget = 5.0;
  auto compiled = CompileDriverProgram(
      FollowTheSunDistributedProgram(false, 60, 20, /*batched=*/true),
      ObsSoakConfig(false));
  if (!compiled.ok()) {
    fprintf(stderr, "compile: %s\n", compiled.status().ToString().c_str());
    return 1;
  }
  colog::CompiledProgram prog = std::move(compiled).value();
  ResolveArm best_cold, best_incr;
  for (int i = 0; i < kReps; ++i) {
    ResolveArm cold = TimedResolve(false, prog);
    ResolveArm incr = TimedResolve(true, prog);
    if (!cold.ok || !incr.ok) {
      fprintf(stderr, "resolve bench arm failed (cold ok=%d incr ok=%d)\n",
              cold.ok ? 1 : 0, incr.ok ? 1 : 0);
      return 1;
    }
    if (!best_cold.ok || cold.ms < best_cold.ms) best_cold = cold;
    if (!best_incr.ok || incr.ms < best_incr.ms) best_incr = incr;
  }
  double speedup = best_incr.ms > 0 ? best_cold.ms / best_incr.ms : 0;
  std::string row = StrFormat(
      "{\"bench\":\"incr_resolve\",\"case\":\"r10_chain_sweep_1fact\","
      "\"backend\":\"lns\",\"seed\":104,\"dcs\":10,\"reps\":%d,"
      "\"wall_ms_cold\":%.3f,\"wall_ms_incr\":%.3f,\"speedup\":%.2f,"
      "\"target\":%.1f,\"within_target\":%d,\"dirty\":%d,\"clean\":%d,"
      "\"reused\":%d,\"fallback\":%d,\"objective_cold\":%.1f,"
      "\"objective_incr\":%.1f}",
      kReps, best_cold.ms, best_incr.ms, speedup, kTarget,
      speedup >= kTarget ? 1 : 0, best_incr.dirty, best_incr.clean,
      best_incr.reused, best_incr.fallback ? 1 : 0, best_cold.objective,
      best_incr.objective);
  printf("%s\n", row.c_str());
  printf("1-fact-delta re-convergence sweep: cold %.3f ms, incremental "
         "%.3f ms (%d/%d node solves reused), speedup %.2fx (target "
         ">=%.1fx)\n",
         best_cold.ms, best_incr.ms, best_incr.reused, kInitiators, speedup,
         kTarget);
  FILE* out = fopen("BENCH_resolve.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot open BENCH_resolve.json for writing\n");
    return 1;
  }
  fprintf(out, "%s\n", row.c_str());
  fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "obsjson") return RunObsJson();
  if (argc > 1 && std::string(argv[1]) == "resolvejson") {
    return RunResolveJson();
  }
  printf("Compilation time (avg of 10 runs)\n");
  printf("  %-32s %10s %26s\n", "program", "this impl", "paper (codegen+g++)");
  struct P {
    const char* name;
    std::string src;
    const char* paper;
  };
  for (const P& p : std::vector<P>{
           {"ACloud (centralized)", ACloudProgram(true, 3), "0.5 s"},
           {"Follow-the-Sun (distributed)",
            FollowTheSunDistributedProgram(true), "0.6 s"},
           {"Wireless (centralized)", WirelessCentralizedProgram(true),
            "1.2 s"},
           {"Wireless (distributed)", WirelessDistributedProgram(), "1.6 s"},
       }) {
    printf("  %-32s %8.2fms %26s\n", p.name, CompileMs(p.src), p.paper);
  }
  printf("  (ours interprets plans in-process; the original emitted C++ and "
         "invoked a compiler)\n");

  // ACloud solver overhead on a representative instance.
  auto compiled = colog::CompileColog(ACloudProgram(false));
  colog::CompiledProgram prog = std::move(compiled).value();
  runtime::Instance inst(0, &prog);
  if (!inst.Init().ok()) return 1;
  Rng rng(5);
  for (int h = 0; h < 4; ++h) {
    (void)inst.InsertFact("host", {Value::Int(h), Value::Int(0), Value::Int(0)});
    (void)inst.InsertFact("hostMemThres", {Value::Int(h), Value::Int(64)});
  }
  for (int v = 0; v < 40; ++v) {
    Row vm_row{Value::Int(v), Value::Int(rng.UniformInt(20, 90)),
               Value::Int(2)};
    (void)inst.InsertFact("vm", std::move(vm_row));
    Row origin_row{Value::Int(v), Value::Int(rng.UniformInt(0, 3))};
    (void)inst.InsertFact("origin", std::move(origin_row));
  }
  printf("\nACloud COP execution (40 VMs x 4 hosts, 2 s cap; paper used 10 s "
         "cap), per backend:\n");
  for (solver::Backend backend :
       {solver::Backend::kBranchAndBound, solver::Backend::kLns}) {
    runtime::SolveOptions o = inst.solve_options();
    o.time_limit_ms = 2000;
    o.backend = backend;
    inst.set_solve_options(o);
    inst.reset_warm_start();
    auto out = inst.Solve();
    if (!out.ok()) {
      printf("solve failed: %s\n", out.status().ToString().c_str());
      return 1;
    }
    const runtime::SolveOutput& res = out.value();
    printf("  [%s] status %s, objective (CPU stdev) %.2f\n",
           solver::BackendName(res.backend), solver::SolveStatusName(res.status),
           res.objective);
    printf("  model: %zu vars, %zu propagators\n", res.model_vars,
           res.model_propagators);
    printf("  search: %llu nodes, %llu propagations, %llu iterations, "
           "%llu restarts, %.0f ms\n",
           static_cast<unsigned long long>(res.stats.nodes),
           static_cast<unsigned long long>(res.stats.propagations),
           static_cast<unsigned long long>(res.stats.iterations),
           static_cast<unsigned long long>(res.stats.restarts),
           res.stats.wall_ms);
    printf("  solver memory %.1f MB (paper: 9 MB avg / 20 MB max)\n",
           static_cast<double>(res.model_memory_bytes) / 1048576.0);
    printf("  engine tables %.2f MB (paper: 12 MB RapidNet base)\n",
           static_cast<double>(inst.engine().MemoryEstimate()) / 1048576.0);
    SolveRecord rec;
    rec.bench = "overhead_acloud";
    rec.backend = solver::BackendName(res.backend);
    rec.seed = res.seed;
    rec.nodes = res.stats.nodes;
    rec.iterations = res.stats.iterations;
    rec.restarts = res.stats.restarts;
    rec.wall_ms = res.stats.wall_ms;
    rec.objective = res.objective;
    rec.has_objective = res.has_objective;
    printf("  %s\n", rec.ToJsonLine().c_str());
  }
  return 0;
}
