// Figures 2 and 3: ACloud trace replay.
//
// Figure 2: average CPU standard deviation across the three data centers
// over a 4-hour replay, for Default / Heuristic / ACloud / ACloud (M).
// Figure 3: number of VM migrations per 10-minute interval.
//
// A trailing section compares the two search backends (B&B and LNS) on the
// same replay at equal per-solve time budgets and emits one JSON row per
// backend.
//
// Usage: bench_fig2_3_acloud [duration_hours] [comparison_budget_ms]
// The optional arguments shrink the replay for smoke runs (the CI bench-smoke
// job uses `0.25 40`); defaults reproduce the paper-scale figures.
#include <cstdio>
#include <cstdlib>

#include "apps/acloud.h"
#include "common/stats.h"
#include "solver/types.h"

using namespace cologne;
using namespace cologne::apps;

namespace {

// Replay the ACloud policy under one backend; returns the per-backend JSON
// row plus the time-averaged imbalance.
int CompareBackend(solver::Backend backend, double budget_ms,
                   double duration_hours) {
  ACloudConfig cfg;
  cfg.duration_hours = duration_hours;  // keep the comparison leg quick
  cfg.solver_time_ms = budget_ms;
  cfg.knobs["SOLVER_BACKEND"] = Value::Str(solver::BackendName(backend));
  ACloudScenario scenario(cfg);
  auto r = scenario.Run(ACloudPolicy::kACloud);
  if (!r.ok()) {
    printf("%s failed: %s\n", solver::BackendName(backend),
           r.status().ToString().c_str());
    return 1;
  }
  const std::vector<ACloudInterval>& rows = r.value();
  if (rows.size() < 2) {
    printf("%s: replay too short (%zu intervals) — need duration >= one "
           "interval\n",
           solver::BackendName(backend), rows.size());
    return 1;
  }
  double stdev_sum = 0;
  SolveRecord rec;
  rec.bench = "fig2_3_acloud";
  rec.backend = solver::BackendName(backend);
  rec.seed = runtime::SolveOptions{}.seed;  // the driver leaves SOLVER_SEED
  for (size_t i = 1; i < rows.size(); ++i) {
    stdev_sum += rows[i].avg_cpu_stdev;
    rec.nodes += rows[i].solver_nodes;
    rec.iterations += rows[i].solver_iterations;
    rec.restarts += rows[i].solver_restarts;
    rec.wall_ms += rows[i].solve_ms;
  }
  rec.objective = stdev_sum / static_cast<double>(rows.size() - 1);
  rec.has_objective = true;
  printf("  %-12s avg stdev %6.2f%%  (%llu nodes, %llu LNS iterations, "
         "%llu restarts, %.0f ms solver time)\n",
         rec.backend.c_str(), rec.objective,
         static_cast<unsigned long long>(rec.nodes),
         static_cast<unsigned long long>(rec.iterations),
         static_cast<unsigned long long>(rec.restarts), rec.wall_ms);
  printf("%s\n", rec.ToJsonLine().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Non-numeric or non-positive arguments (atof yields 0) fall back to the
  // paper-scale defaults; the replay needs at least one 10-minute interval.
  double duration_hours = argc > 1 ? atof(argv[1]) : 4.0;
  if (duration_hours * 3600 < 600) duration_hours = 4.0;
  double comparison_budget_ms = argc > 2 ? atof(argv[2]) : 150;
  if (comparison_budget_ms <= 0) comparison_budget_ms = 150;

  ACloudConfig cfg;
  cfg.solver_time_ms = 500;
  cfg.duration_hours = duration_hours;

  ACloudScenario scenario(cfg);
  std::vector<ACloudPolicy> policies = {
      ACloudPolicy::kDefault, ACloudPolicy::kHeuristic, ACloudPolicy::kACloud,
      ACloudPolicy::kACloudM};

  std::vector<std::vector<ACloudInterval>> results;
  for (ACloudPolicy p : policies) {
    auto r = scenario.Run(p);
    if (!r.ok()) {
      printf("%s failed: %s\n", ACloudPolicyName(p),
             r.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(r).value());
  }

  printf("Figure 2: average CPU stdev of %d data centers (%%), by time\n",
         cfg.num_dcs);
  printf("%8s", "t(h)");
  for (ACloudPolicy p : policies) printf(" %12s", ACloudPolicyName(p));
  printf("\n");
  for (size_t i = 0; i < results[0].size(); ++i) {
    printf("%8.2f", results[0][i].t_hours);
    for (size_t p = 0; p < policies.size(); ++p) {
      printf(" %12.2f", results[p][i].avg_cpu_stdev);
    }
    printf("\n");
  }

  printf("\nFigure 3: VM migrations per interval\n");
  printf("%8s", "t(h)");
  for (ACloudPolicy p : policies) printf(" %12s", ACloudPolicyName(p));
  printf("\n");
  for (size_t i = 0; i < results[0].size(); ++i) {
    printf("%8.2f", results[0][i].t_hours);
    for (size_t p = 0; p < policies.size(); ++p) {
      printf(" %12d", results[p][i].migrations);
    }
    printf("\n");
  }

  // Summary (paper: ACloud reduces imbalance by 98.1% vs Default and 87.8%
  // vs Heuristic; ACloud ~20.3 migrations/interval, ACloud(M) ~9).
  printf("\nSummary (time-averaged, ignoring the initial interval):\n");
  std::vector<double> avg_stdev(policies.size(), 0);
  std::vector<double> avg_migr(policies.size(), 0);
  size_t n = results[0].size() - 1;
  for (size_t p = 0; p < policies.size(); ++p) {
    for (size_t i = 1; i < results[p].size(); ++i) {
      avg_stdev[p] += results[p][i].avg_cpu_stdev;
      avg_migr[p] += results[p][i].migrations;
    }
    avg_stdev[p] /= static_cast<double>(n);
    avg_migr[p] /= static_cast<double>(n);
    printf("  %-12s stdev %7.2f%%  migrations/interval %6.1f\n",
           ACloudPolicyName(policies[p]), avg_stdev[p], avg_migr[p]);
  }
  printf("  ACloud imbalance reduction vs Default:   %5.1f%% (paper: 98.1%%)\n",
         (1 - avg_stdev[2] / avg_stdev[0]) * 100);
  printf("  ACloud imbalance reduction vs Heuristic: %5.1f%% (paper: 87.8%%)\n",
         (1 - avg_stdev[2] / avg_stdev[1]) * 100);

  // ---- Backend comparison at equal time budgets ----------------------------
  const double comparison_hours = duration_hours < 1.0 ? duration_hours : 1.0;
  printf(
      "\nSearch backends on the ACloud replay (%.2f h, %.0f ms per solve):\n",
      comparison_hours, comparison_budget_ms);
  for (solver::Backend backend :
       {solver::Backend::kBranchAndBound, solver::Backend::kLns}) {
    if (CompareBackend(backend, comparison_budget_ms, comparison_hours) != 0) {
      return 1;
    }
  }
  return 0;
}
