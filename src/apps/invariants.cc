#include "apps/invariants.h"

#include <cmath>

#include "common/strings.h"
#include "datalog/table.h"

namespace cologne::apps {

namespace {

// True when every crash in the plan has a restart (abandoned-link checks are
// only sound when no endpoint stays down forever).
bool AllCrashesRestart(const net::FaultPlan& plan) {
  for (const net::CrashFault& c : plan.crashes) {
    if (c.restart_t < 0) return false;
  }
  return true;
}

}  // namespace

std::map<int64_t, int64_t> FtsDemandTotals(FollowTheSunScenario& scenario,
                                           int num_dcs) {
  std::map<int64_t, int64_t> totals;  // demand -> total VMs across DCs
  for (int x = 0; x < num_dcs; ++x) {
    const datalog::Table* t =
        scenario.system()->node(x).engine().GetTable("curVm");
    if (t == nullptr) continue;
    for (const Row& row : t->View()) {
      if (row[0].as_node() != x) continue;
      totals[row[1].as_int()] += row[2].as_int();
    }
  }
  return totals;
}

std::string CheckFtsInvariants(FollowTheSunScenario& scenario,
                               const FtsConfig& config,
                               const FtsResult& result) {
  // Capacity constraint c1 in the final engine state of every node. Only
  // binding for crash-free plans: a restarted node replays its base facts
  // (the initial placement) while peers keep negotiated state, so the
  // global assignment can legitimately end out of sync — crash runs are
  // covered by the reconvergence checks in runtime_fault_test instead.
  if (config.fault_plan.crashes.empty()) {
    for (int x = 0; x < config.num_dcs; ++x) {
      int64_t total = 0;
      const datalog::Table* t =
          scenario.system()->node(x).engine().GetTable("curVm");
      if (t == nullptr) return StrFormat("node %d has no curVm table", x);
      for (const Row& row : t->View()) {
        if (row[0].as_node() == x) total += row[2].as_int();
      }
      if (total > config.capacity) {
        return StrFormat("node %d exceeds capacity: %lld > %d", x,
                         static_cast<long long>(total), config.capacity);
      }
    }
  }
  if (result.final_cost < 0 || result.initial_cost < 0) {
    return "negative cost";
  }
  // Anytime: negotiation must never leave the system worse than it started
  // (tolerance for the accumulated-migration-cost float bookkeeping).
  if (result.final_cost > result.initial_cost * 1.0001 + 1e-6) {
    return StrFormat("final cost %g above initial %g", result.final_cost,
                     result.initial_cost);
  }
  if (AllCrashesRestart(config.fault_plan) && result.abandoned_links != 0) {
    return StrFormat("%d links abandoned though every crash restarts",
                     result.abandoned_links);
  }
  return "";
}

std::string CheckWirelessInvariants(const WirelessConfig& config,
                                    const ChannelAssignment& result) {
  // Topology is a pure function of the config (the scenario constructor
  // derives grid, links, and primaries from the seed), so an independently
  // built copy recounts the same conflict graph.
  WirelessScenario topo(config);
  if (AllCrashesRestart(config.fault_plan)) {
    if (result.abandoned_links != 0) {
      return StrFormat("%d links abandoned though every crash restarts",
                       result.abandoned_links);
    }
    if (result.channel.size() != topo.links().size()) {
      return StrFormat("assigned %zu of %zu links", result.channel.size(),
                       topo.links().size());
    }
  }
  for (const auto& [link, ch] : result.channel) {
    if (ch < 1 || ch > config.num_channels) {
      return StrFormat("link (%d,%d) carries out-of-range channel %d",
                       link.first, link.second, ch);
    }
  }
  const double recount = topo.InterferenceCost(result.channel);
  if (std::fabs(recount - result.interference_cost) > 1e-9) {
    return StrFormat("reported interference %g != recomputed %g",
                     result.interference_cost, recount);
  }
  return "";
}

std::string CheckACloudInvariants(const ACloudConfig& config,
                                  const std::vector<ACloudInterval>& intervals) {
  // The replay loop runs step 0..N inclusive (a measurement at t=0 and one
  // per interval boundary), hence the +1.
  const int expected = static_cast<int>(config.duration_hours * 3600.0 /
                                        config.interval_s) +
                       1;
  if (static_cast<int>(intervals.size()) != expected) {
    return StrFormat("%zu intervals measured, expected %d", intervals.size(),
                     expected);
  }
  const bool crash_configured = config.crash_dc >= 0;
  for (size_t i = 0; i < intervals.size(); ++i) {
    const ACloudInterval& m = intervals[i];
    if (m.avg_cpu_stdev < 0 || !std::isfinite(m.avg_cpu_stdev)) {
      return StrFormat("interval %zu: invalid load stdev %g", i,
                       m.avg_cpu_stdev);
    }
    if (m.migrations < 0) {
      return StrFormat("interval %zu: negative migrations", i);
    }
    if (!crash_configured && m.skipped_dcs != 0) {
      return StrFormat("interval %zu: %d DCs skipped without a crash", i,
                       m.skipped_dcs);
    }
  }
  return "";
}

uint64_t HashTraceLines(const std::vector<std::string>& lines) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](uint64_t byte) {
    h ^= byte;
    h *= 1099511628211ull;  // FNV prime
  };
  uint64_t index = 0;
  for (const std::string& line : lines) {
    mix(index++);
    for (char c : line) mix(static_cast<unsigned char>(c));
  }
  return h;
}

}  // namespace cologne::apps
