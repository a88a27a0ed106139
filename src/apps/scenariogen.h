// Seeded scenario generator for the three paper apps (Follow-the-Sun,
// wireless channel selection, ACloud) — the generator-vs-baseline testing
// pattern of fontanf/gap: randomized topologies, demand distributions, and
// net::FaultPlans, all derived deterministically from one scenario seed so
// any failing scenario reproduces from its (app, seed) pair alone.
//
// Consumed by tools/scenariogen.cc (emit scenarios as JSON), by
// tools/scenario_sweep.cc (run them across solver backends and report the
// objective-gap distribution), and by tests/scenario_sweep_test.cc (the
// tier-1 shrunk property subset).
#ifndef COLOGNE_APPS_SCENARIOGEN_H_
#define COLOGNE_APPS_SCENARIOGEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/acloud.h"
#include "apps/followsun.h"
#include "apps/wireless.h"

namespace cologne::apps {

/// Which paper app a scenario exercises.
enum class ScenarioApp { kFts, kWireless, kACloud };

/// "fts", "wireless", "acloud".
const char* ScenarioAppName(ScenarioApp app);
/// Parse a name printed by ScenarioAppName; false on unknown names.
bool ParseScenarioApp(const std::string& name, ScenarioApp* out);

/// Generation knobs. The defaults generate scenarios sized for a sweep
/// (hundreds in seconds); the tier-1 property test shrinks them further for
/// sanitizer builds.
struct ScenarioGenConfig {
  uint64_t seed = 1;         ///< Master seed; scenario i derives seed+i.
  int count = 10;            ///< Scenarios to generate (cycled over `apps`).
  std::vector<ScenarioApp> apps = {ScenarioApp::kFts, ScenarioApp::kWireless,
                                   ScenarioApp::kACloud};
  bool with_faults = true;   ///< Attach a seeded FaultPlan (always-restart
                             ///< crashes, so coverage invariants stay sound).
  // Size caps (inclusive): randomized shapes stay within these.
  int max_fts_dcs = 6;
  int max_grid_w = 4;
  int max_grid_h = 3;
  int max_acloud_dcs = 3;
  int max_acloud_hosts = 3;
  /// Deterministic per-solve improvement budget (SolveOptions::
  /// max_iterations); every generated scenario solves wall-clock-free.
  uint64_t solver_iterations = 8;
};

/// One generated scenario: the app, the seed everything was derived from,
/// and the fully materialized config (workload shape + fault plan).
struct Scenario {
  ScenarioApp app = ScenarioApp::kFts;
  uint64_t seed = 0;
  std::string name;  ///< "<app>-<seed>", the sweep's row key.
  FtsConfig fts;
  WirelessConfig wireless;
  ACloudConfig acloud;

  /// Canonical single-line JSON describing the scenario (app, seed, shape
  /// fields, embedded fault plan) — enough to reproduce it by hand, though
  /// regenerating from (app, seed, caps) is the supported path.
  std::string ToJson() const;
};

/// Deterministically generate the scenario for (app, seed): same inputs and
/// caps always yield the same scenario, independent of `config.count`.
Scenario GenerateScenario(ScenarioApp app, uint64_t seed,
                          const ScenarioGenConfig& config);

/// The sweep set: `config.count` scenarios cycling over `config.apps`,
/// scenario i seeded with config.seed + i.
std::vector<Scenario> GenerateScenarios(const ScenarioGenConfig& config);

/// Outcome of executing one scenario under one solver backend.
struct ScenarioRun {
  bool ok = false;          ///< Driver ran to completion.
  std::string error;        ///< Driver failure (ok == false).
  std::string violation;    ///< First invariant violation; "" when clean.
  double objective = 0;     ///< App objective, lower is better: FTS final
                            ///< cost, wireless interference cost, ACloud
                            ///< mean per-interval load stdev.
  int solves = 0;           ///< invokeSolver executions (0 for ACloud).
  uint64_t trace_hash = 0;  ///< Fingerprint of the recorded trace
                            ///< (HashTraceLines); equal across re-runs of a
                            ///< deterministic scenario+backend.
  /// FTS only: per-demand VM totals across DCs — conserved by negotiation,
  /// so equal across backends for one scenario. Empty for other apps.
  std::map<int64_t, int64_t> fts_demand_totals;
};

/// Execute `scenario` with the driver's SOLVER_BACKEND overridden to
/// `backend` ("bnb" or "lns"; empty keeps the scenario default), recording
/// a trace and checking the app's invariants (apps/invariants.h) on the
/// outcome.
ScenarioRun RunScenario(const Scenario& scenario, const std::string& backend);

}  // namespace cologne::apps

#endif  // COLOGNE_APPS_SCENARIOGEN_H_
