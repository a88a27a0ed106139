// Tier-1 shrunk subset of the scenario sweep (tools/scenario_sweep runs the
// full set in CI): seeded generator determinism, app invariants across
// solver backends, re-run byte-determinism of objective and trace
// fingerprint, and FTS demand conservation on crash-free plans.
#include "apps/scenariogen.h"

#include <gtest/gtest.h>

#include <vector>

#include "solver_test_util.h"

namespace cologne::apps {
namespace {

// Sanitizer instrumentation slows solves 10-50x; the shrunk set keeps the
// property shapes (all three apps, faulted and fault-free) within the ctest
// watchdog.
constexpr int kScenarioCount = solver::kSanitizerBuild ? 6 : 20;

ScenarioGenConfig SweepConfig() {
  ScenarioGenConfig config;
  config.seed = 1;
  config.count = kScenarioCount;
  return config;
}

TEST(ScenarioGenTest, GenerationIsDeterministic) {
  const std::vector<Scenario> a = GenerateScenarios(SweepConfig());
  const std::vector<Scenario> b = GenerateScenarios(SweepConfig());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToJson(), b[i].ToJson()) << a[i].name;
  }
}

TEST(ScenarioGenTest, SingleScenarioMatchesSweepMember) {
  // The failure-repro path: GenerateScenario(app, seed) must reproduce the
  // sweep's scenario byte for byte, independent of count.
  const ScenarioGenConfig config = SweepConfig();
  for (const Scenario& s : GenerateScenarios(config)) {
    EXPECT_EQ(GenerateScenario(s.app, s.seed, config).ToJson(), s.ToJson());
  }
}

TEST(ScenarioSweepTest, InvariantsAndDeterminismAcrossBackends) {
  for (const Scenario& s : GenerateScenarios(SweepConfig())) {
    const ScenarioRun base = RunScenario(s, "bnb");
    ASSERT_TRUE(base.ok) << s.name << ": " << base.error;
    EXPECT_EQ(base.violation, "") << s.name;

    const ScenarioRun run = RunScenario(s, "lns");
    ASSERT_TRUE(run.ok) << s.name << ": " << run.error;
    EXPECT_EQ(run.violation, "") << s.name;

    // Generated scenarios solve wall-clock-free over the reliable
    // transport: a re-run must reproduce objective and trace fingerprint
    // exactly.
    const ScenarioRun again = RunScenario(s, "lns");
    ASSERT_TRUE(again.ok) << s.name << ": " << again.error;
    EXPECT_EQ(again.objective, run.objective) << s.name;
    EXPECT_EQ(again.trace_hash, run.trace_hash) << s.name;

    // Negotiation moves VMs but never creates or destroys them — exact
    // conservation only binds crash-free plans (a restart replays the
    // initial placement).
    if (s.app == ScenarioApp::kFts && s.fts.fault_plan.crashes.empty()) {
      EXPECT_EQ(run.fts_demand_totals, base.fts_demand_totals) << s.name;
    }
  }
}

// A misspelled backend is a driver error naming the knob, never a silent
// run of the program's default backend.
TEST(ScenarioSweepTest, MisspelledBackendIsAnError) {
  ScenarioGenConfig config = SweepConfig();
  config.with_faults = false;
  for (ScenarioApp app :
       {ScenarioApp::kFts, ScenarioApp::kWireless, ScenarioApp::kACloud}) {
    const Scenario s = GenerateScenario(app, 1, config);
    const ScenarioRun run = RunScenario(s, "bnbb");
    EXPECT_FALSE(run.ok) << s.name;
    EXPECT_NE(run.error.find("SOLVER_BACKEND"), std::string::npos)
        << s.name << ": " << run.error;
  }
}

}  // namespace
}  // namespace cologne::apps
