// Golden-trace regression tests (ISSUE 3 satellite): small fixed-seed runs
// of the three scenario drivers — each under a small fault plan — are
// recorded as canonical traces and compared byte-for-byte against the files
// in tests/golden/ on every CI run.
//
// To regenerate after an intentional behavior change:
//   ./trace_golden_test --update-golden
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "apps/acloud.h"
#include "apps/followsun.h"
#include "apps/wireless.h"
#include "net/fault_plan.h"
#include "runtime/trace_replay.h"

namespace cologne::runtime {
namespace {

bool g_update_golden = false;

#ifndef COLOGNE_GOLDEN_DIR
#define COLOGNE_GOLDEN_DIR "tests/golden"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(COLOGNE_GOLDEN_DIR) + "/" + name + ".trace";
}

// Renders the identity fields of a parsed header for the refusal diff.
std::string HeaderIdentity(const TraceHeader& h) {
  return "program=" + h.program + " seed=" + std::to_string(h.seed) +
         " fault_plan=" + h.plan.ToJson();
}

void CompareOrUpdate(const TraceRecorder& trace, const std::string& name) {
  ASSERT_GT(trace.lines().size(), 1u) << name << ": trace is empty";
  std::string path = GoldenPath(name);
  if (g_update_golden) {
    // --update-golden exists to re-pin a trace after an intentional
    // *behavior* change of the same run. If the run identity (program,
    // seed, fault plan) changed, silently overwriting would swap the
    // scenario out from under the golden — refuse and show the diff.
    // Delete the golden file first if the identity change is intentional.
    auto old_lines = ReadTraceLines(path);
    if (old_lines.ok() && !old_lines.value().empty()) {
      auto old_header = ParseTraceHeader(old_lines.value()[0]);
      auto new_header = ParseTraceHeader(trace.lines()[0]);
      ASSERT_TRUE(new_header.ok()) << new_header.status().ToString();
      if (old_header.ok()) {
        std::string before = HeaderIdentity(old_header.value());
        std::string after = HeaderIdentity(new_header.value());
        ASSERT_EQ(before, after)
            << name << ": refusing --update-golden, run identity changed:\n"
            << "  golden: " << before << "\n  new:    " << after
            << "\n(delete " << path << " to record the new identity)";
      }
    }
    Status s = trace.WriteFile(path);
    ASSERT_TRUE(s.ok()) << s.ToString();
    printf("updated %s (%zu lines)\n", path.c_str(), trace.lines().size());
    return;
  }
  auto golden = ReadTraceLines(path);
  ASSERT_TRUE(golden.ok())
      << golden.status().ToString()
      << "\n(run ./trace_golden_test --update-golden to record)";
  EXPECT_EQ(DiffTraces(golden.value(), trace.lines()), "")
      << name << ": trace diverged from " << path
      << "\n(if the change is intentional, rerun with --update-golden)";
}

TEST(GoldenTraceTest, FollowTheSun) {
  apps::FtsConfig cfg;
  cfg.num_dcs = 3;
  cfg.capacity = 20;
  cfg.demand_hi = 5;
  cfg.solver_time_ms = 10000;  // generous cap: tiny models prove optimality in ms
  cfg.seed = 41;
  // One crash with restart plus a loss window: exercises drop, crash,
  // rejoin-replay, dedup, and reconcile trace events.
  net::LinkFault lf;
  lf.a = 0;
  lf.b = 1;
  lf.loss.push_back({2.0, 9.0, 0.3});
  cfg.fault_plan.seed = 41;
  cfg.fault_plan.links.push_back(lf);
  net::CrashFault crash;
  crash.node = 2;
  crash.t = 6.0;
  crash.restart_t = 12.0;
  cfg.fault_plan.crashes.push_back(crash);

  TraceRecorder trace;
  cfg.trace = &trace;
  apps::FollowTheSunScenario scenario(cfg);
  auto r = scenario.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  CompareOrUpdate(trace, "followsun_small");
}

TEST(GoldenTraceTest, WirelessDistributed) {
  apps::WirelessConfig cfg;
  cfg.grid_w = 2;
  cfg.grid_h = 2;
  cfg.num_flows = 2;
  cfg.link_solve_ms = 10000;  // generous cap: tiny models prove optimality in ms
  cfg.seed = 43;
  net::LinkFault lf;
  lf.a = 0;
  lf.b = 1;
  lf.down.push_back({4.5, 8.0, 0});
  lf.duplicate.push_back({0.0, 20.0, 0.5});
  cfg.fault_plan.seed = 43;
  cfg.fault_plan.links.push_back(lf);

  TraceRecorder trace;
  cfg.trace = &trace;
  apps::WirelessScenario scenario(cfg);
  auto r = scenario.AssignChannels(apps::WirelessProtocol::kDistributed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  CompareOrUpdate(trace, "wireless_small");
}

TEST(GoldenTraceTest, FollowTheSunReliableBatched) {
  // ISSUE 4 surface: reliable FIFO transport (sequenced sends, acks,
  // retransmissions after loss) plus batched multi-link solves (grouped
  // solve records) in one pinned trace.
  apps::FtsConfig cfg;
  cfg.num_dcs = 4;
  cfg.capacity = 25;
  cfg.demand_hi = 5;
  cfg.seed = 47;
  cfg.knobs["NET_RELIABLE"] = Value::Int(1);
  cfg.batch_links = true;
  cfg.link_loss_prob = 0.1;
  cfg.converge_sweeps = 1;  // keep the golden compact
  // Batched models are too wide for B&B to *prove* optimality within a
  // wall-clock cap on every CI machine, and a budget-dependent status
  // would leak into the trace. The iteration-capped LNS budget (unlimited
  // wall clock) is deterministic regardless of machine load.
  cfg.knobs["SOLVER_BACKEND"] = Value::Str("lns");
  cfg.solver_max_iterations = 16;
  cfg.solver_time_ms = 0;

  TraceRecorder trace;
  cfg.trace = &trace;
  apps::FollowTheSunScenario scenario(cfg);
  auto r = scenario.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().messages_dropped, 0u) << "loss should hit the wire";
  CompareOrUpdate(trace, "followsun_reliable");
}

TEST(GoldenTraceTest, FollowTheSunObsMetrics) {
  // ISSUE 6 surface: the ReliableBatched scenario with OBS_METRICS on —
  // per-round `metrics` snapshots and per-group solve provenance pinned
  // byte-for-byte. tools/explain's CI smoke queries this same golden.
  apps::FtsConfig cfg;
  cfg.num_dcs = 4;
  cfg.capacity = 25;
  cfg.demand_hi = 5;
  cfg.seed = 47;
  cfg.knobs["NET_RELIABLE"] = Value::Int(1);
  cfg.batch_links = true;
  cfg.link_loss_prob = 0.1;
  cfg.converge_sweeps = 1;
  cfg.knobs["SOLVER_BACKEND"] = Value::Str("lns");
  cfg.solver_max_iterations = 16;
  cfg.solver_time_ms = 0;
  cfg.knobs["OBS_METRICS"] = Value::Int(1);
  // The golden embeds exact propagator-effort counters (solve.propagations,
  // prop.<kind>), which the event-typed engine reduces by design. Pin the
  // legacy reference mode so this trace stays byte-stable; search results
  // are identical either way.
  cfg.knobs["SOLVER_NAIVE_PROPAGATION"] = Value::Int(1);

  TraceRecorder trace;
  cfg.trace = &trace;
  apps::FollowTheSunScenario scenario(cfg);
  auto r = scenario.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Observability must be additive: stripping the metrics lines and prov
  // fields must give back the exact followsun_reliable golden.
  bool saw_metrics = false, saw_prov = false;
  for (const std::string& line : trace.lines()) {
    if (line.find("\"ev\":\"metrics\"") != std::string::npos) {
      saw_metrics = true;
    }
    if (line.find("\"prov\":[") != std::string::npos) saw_prov = true;
  }
  EXPECT_TRUE(saw_metrics) << "no metrics snapshot landed in the trace";
  EXPECT_TRUE(saw_prov) << "no solve provenance landed in the trace";
  CompareOrUpdate(trace, "followsun_obs");
}

TEST(GoldenTraceTest, ACloudReplay) {
  apps::ACloudConfig cfg;
  cfg.num_dcs = 2;
  cfg.hosts_per_dc = 2;
  cfg.vms_per_host = 3;
  cfg.duration_hours = 0.5;
  cfg.interval_s = 600;
  cfg.solver_time_ms = 10000;  // generous cap: tiny models prove optimality in ms
  cfg.crash_dc = 1;
  cfg.crash_interval = 1;
  cfg.restart_interval = 2;

  TraceRecorder trace;
  trace.Header("acloud", cfg.seed, net::FaultPlan{});
  cfg.solve_trace = &trace;
  apps::ACloudScenario scenario(cfg);
  auto r = scenario.Run(apps::ACloudPolicy::kACloud);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  CompareOrUpdate(trace, "acloud_small");
}

}  // namespace
}  // namespace cologne::runtime

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      cologne::runtime::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
