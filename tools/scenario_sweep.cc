// scenario_sweep — run generated scenarios across solver backends and report
// the objective-gap distribution vs the branch-and-bound incumbent
// (docs/testing.md).
//
//   scenario_sweep [--count N] [--seed S] [--apps fts,wireless,acloud]
//                  [--backends lns] [--iterations N]
//                  [--no-faults] [--gate-gap X] [--out FILE]
//
// For every generated scenario the bnb backend solves first (the baseline
// incumbent), then each candidate backend; the first candidate
// additionally re-runs to enforce seed determinism (equal objective and
// byte-identical trace fingerprint). Every run is invariant-checked
// (apps/invariants.h). Output is one JSON object per line — per-run rows
// followed by one summary row per backend (p50/p95 gap) — written to --out
// (default BENCH_scenarios.json).
//
// Exit status is non-zero on any driver error, invariant violation,
// determinism failure, conservation mismatch, or (with --gate-gap) a p50/p95
// gap above the gate; each failure prints the scenariogen command that
// regenerates the offending scenario.
#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/scenariogen.h"
#include "common/json.h"
#include "common/strings.h"
#include "solver/types.h"

namespace {

using cologne::JsonWriter;
using cologne::apps::GenerateScenarios;
using cologne::apps::ParseScenarioApp;
using cologne::apps::RunScenario;
using cologne::apps::Scenario;
using cologne::apps::ScenarioApp;
using cologne::apps::ScenarioAppName;
using cologne::apps::ScenarioGenConfig;
using cologne::apps::ScenarioRun;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--count N] [--seed S] [--apps fts,wireless,acloud]\n"
      "          [--backends lns] [--iterations N]\n"
      "          [--no-faults] [--gate-gap X] [--out FILE]\n",
      argv0);
  return 2;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    items.push_back(csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

// The one-command reproduction line every failure prints.
void PrintRepro(const Scenario& s, const std::string& backend,
                const char* what, const std::string& detail) {
  std::fprintf(stderr,
               "scenario_sweep: %s: scenario=%s backend=%s seed=%llu: %s\n"
               "  reproduce: scenariogen --app %s --scenario-seed %llu\n",
               what, s.name.c_str(), backend.c_str(),
               static_cast<unsigned long long>(s.seed), detail.c_str(),
               ScenarioAppName(s.app),
               static_cast<unsigned long long>(s.seed));
}

// Objective gap vs the baseline, guarded against zero objectives (a perfect
// interference cost of 0 must compare as gap 1.0, not 0/0).
double Gap(double objective, double baseline) {
  return (objective + 1.0) / (baseline + 1.0);
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  double rank = p * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioGenConfig config;
  config.count = 30;
  const char* kBaseline = "bnb";
  std::vector<std::string> backends = {"lns"};
  std::string out_path = "BENCH_scenarios.json";
  double gate_gap = 0;  // 0 = report only

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Integer flags take a plain non-negative decimal: anything else is a
    // usage error, not a silent 0.
    auto next_uint = [&](uint64_t* out) {
      const char* v = next();
      return v != nullptr && cologne::ParseUint64(v, out);
    };
    if (arg == "--count") {
      uint64_t n = 0;
      if (!next_uint(&n) || n > INT_MAX) return Usage(argv[0]);
      config.count = static_cast<int>(n);
    } else if (arg == "--seed") {
      if (!next_uint(&config.seed)) return Usage(argv[0]);
    } else if (arg == "--apps") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.apps.clear();
      for (const std::string& name : SplitCsv(v)) {
        ScenarioApp app;
        if (!ParseScenarioApp(name, &app)) {
          std::fprintf(stderr, "scenario_sweep: unknown app \"%s\"\n",
                       name.c_str());
          return 2;
        }
        config.apps.push_back(app);
      }
      if (config.apps.empty()) return Usage(argv[0]);
    } else if (arg == "--backends") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      backends = SplitCsv(v);
      if (backends.empty()) return Usage(argv[0]);
      for (const std::string& name : backends) {
        cologne::solver::Backend parsed;
        if (!cologne::solver::ParseBackend(name, &parsed)) {
          std::fprintf(stderr, "scenario_sweep: unknown backend \"%s\"\n",
                       name.c_str());
          return Usage(argv[0]);
        }
      }
    } else if (arg == "--iterations") {
      if (!next_uint(&config.solver_iterations)) return Usage(argv[0]);
    } else if (arg == "--no-faults") {
      config.with_faults = false;
    } else if (arg == "--gate-gap") {
      // A non-negative number; a typo must not read as 0 (gate off).
      const char* v = next();
      if (v == nullptr || !cologne::ParseDouble(v, &gate_gap) ||
          gate_gap < 0) {
        return Usage(argv[0]);
      }
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      out_path = v;
    } else {
      return Usage(argv[0]);
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "scenario_sweep: cannot open %s\n", out_path.c_str());
    return 1;
  }

  const std::vector<Scenario> scenarios = GenerateScenarios(config);
  int failures = 0;
  int violations = 0;
  // Per-backend gap samples across satisfiable (baseline-ok) scenarios.
  std::vector<std::vector<double>> gaps(backends.size());

  for (const Scenario& s : scenarios) {
    ScenarioRun base = RunScenario(s, kBaseline);
    if (!base.ok) {
      ++failures;
      PrintRepro(s, kBaseline, "driver error", base.error);
      continue;
    }
    if (!base.violation.empty()) {
      ++failures;
      ++violations;
      PrintRepro(s, kBaseline, "invariant violation", base.violation);
    }
    {
      JsonWriter w;
      w.BeginObject();
      w.Key("scenario").String(s.name);
      w.Key("app").String(ScenarioAppName(s.app));
      w.Key("seed").UInt(s.seed);
      w.Key("backend").String(kBaseline);
      w.Key("objective").Double(base.objective);
      w.Key("gap").Double(1.0);
      w.Key("solves").Int(base.solves);
      w.Key("violation").String(base.violation);
      w.EndObject();
      std::fprintf(out, "%s\n", w.Take().c_str());
    }

    for (size_t b = 0; b < backends.size(); ++b) {
      const std::string& backend = backends[b];
      ScenarioRun run = RunScenario(s, backend);
      bool deterministic = true;
      if (!run.ok) {
        ++failures;
        PrintRepro(s, backend, "driver error", run.error);
        continue;
      }
      if (!run.violation.empty()) {
        ++failures;
        ++violations;
        PrintRepro(s, backend, "invariant violation", run.violation);
      }
      if (b == 0) {
        // Determinism gate: the first candidate backend re-runs the same
        // scenario; objective and trace fingerprint must match byte for
        // byte (every scenario solves wall-clock-free by construction).
        ScenarioRun again = RunScenario(s, backend);
        deterministic = again.ok && again.objective == run.objective &&
                        again.trace_hash == run.trace_hash;
        if (!deterministic) {
          ++failures;
          PrintRepro(s, backend, "determinism failure",
                     "re-run diverged (objective or trace fingerprint)");
        }
      }
      // Conservation across backends only binds crash-free plans: a
      // restart replays the initial placement, legitimately shifting the
      // per-demand totals depending on negotiation timing.
      if (s.app == ScenarioApp::kFts && s.fts.fault_plan.crashes.empty() &&
          run.fts_demand_totals != base.fts_demand_totals) {
        ++failures;
        ++violations;
        PrintRepro(s, backend, "conservation violation",
                   "per-demand VM totals differ from the bnb run");
      }
      const double gap = Gap(run.objective, base.objective);
      gaps[b].push_back(gap);

      JsonWriter w;
      w.BeginObject();
      w.Key("scenario").String(s.name);
      w.Key("app").String(ScenarioAppName(s.app));
      w.Key("seed").UInt(s.seed);
      w.Key("backend").String(backend);
      w.Key("objective").Double(run.objective);
      w.Key("gap").Double(gap);
      w.Key("solves").Int(run.solves);
      w.Key("violation").String(run.violation);
      w.Key("deterministic").Bool(deterministic);
      w.EndObject();
      std::fprintf(out, "%s\n", w.Take().c_str());
    }
  }

  bool gate_failed = false;
  for (size_t b = 0; b < backends.size(); ++b) {
    const double p50 = Percentile(gaps[b], 0.50);
    const double p95 = Percentile(gaps[b], 0.95);
    JsonWriter w;
    w.BeginObject();
    w.Key("summary").Bool(true);
    w.Key("backend").String(backends[b]);
    w.Key("scenarios").Int(static_cast<int64_t>(gaps[b].size()));
    w.Key("violations").Int(violations);
    w.Key("p50_gap").Double(p50);
    w.Key("p95_gap").Double(p95);
    w.EndObject();
    std::fprintf(out, "%s\n", w.Take().c_str());
    std::fprintf(stderr, "scenario_sweep: %s: %zu scenarios, p50 gap %.4f, "
                         "p95 gap %.4f\n",
                 backends[b].c_str(), gaps[b].size(), p50, p95);
    if (gate_gap > 0 && (p50 > gate_gap || p95 > gate_gap)) {
      gate_failed = true;
      std::fprintf(stderr,
                   "scenario_sweep: %s gap gate failed (p50 %.4f / p95 %.4f "
                   "> %.2f)\n",
                   backends[b].c_str(), p50, p95, gate_gap);
    }
  }
  std::fclose(out);

  if (failures > 0 || gate_failed) {
    std::fprintf(stderr, "scenario_sweep: %d failure(s), %d violation(s)\n",
                 failures, violations);
    return 1;
  }
  return 0;
}
