#include "apps/scenariogen.h"

#include <algorithm>
#include <utility>

#include "apps/invariants.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "runtime/trace_replay.h"

namespace cologne::apps {

namespace {

// Always-restart fault plans keep the coverage invariants (no abandoned
// links) sound: a permanently crashed endpoint legitimately abandons links.
net::FaultPlan::RandomConfig SweepFaults() {
  net::FaultPlan::RandomConfig rc;
  rc.horizon_s = 60;
  rc.allow_no_restart = false;
  return rc;
}

// Ring links over the node set: a topology-independent carrier for link
// faults (windows on links the app's random topology lacks are no-ops,
// while crashes and partitions apply regardless).
std::vector<std::pair<NodeId, NodeId>> RingLinks(int num_nodes) {
  std::vector<std::pair<NodeId, NodeId>> ring;
  for (int i = 0; i < num_nodes; ++i) {
    int j = (i + 1) % num_nodes;
    ring.push_back({std::min(i, j), std::max(i, j)});
  }
  return ring;
}

void GenFts(Rng& rng, const ScenarioGenConfig& config, FtsConfig* cfg) {
  cfg->num_dcs = static_cast<int>(
      rng.UniformInt(3, std::max(3, config.max_fts_dcs)));
  cfg->avg_degree = static_cast<int>(rng.UniformInt(2, 3));
  cfg->demand_hi = static_cast<int>(rng.UniformInt(2, 5));
  // Feasible by construction: capacity holds the worst-case per-node demand
  // sum (every demand's total ends up on one node), plus a random margin.
  cfg->capacity = cfg->num_dcs * cfg->demand_hi +
                  static_cast<int>(rng.UniformInt(0, 10));
  cfg->batch_links = rng.Bernoulli(0.5);
  cfg->max_link_batch = cfg->batch_links
                            ? static_cast<int>(rng.UniformInt(2, 3))
                            : 0;
  cfg->converge_sweeps = static_cast<int>(rng.UniformInt(0, 1));
  if (config.with_faults) {
    cfg->fault_plan =
        net::FaultPlan::Random(rng.Next(), static_cast<size_t>(cfg->num_dcs),
                               RingLinks(cfg->num_dcs), SweepFaults());
  }
}

void GenWireless(Rng& rng, const ScenarioGenConfig& config,
                 WirelessConfig* cfg) {
  cfg->grid_w = static_cast<int>(
      rng.UniformInt(3, std::max(3, config.max_grid_w)));
  cfg->grid_h = static_cast<int>(
      rng.UniformInt(2, std::max(2, config.max_grid_h)));
  cfg->num_channels = static_cast<int>(rng.UniformInt(3, 8));
  cfg->f_mindiff = static_cast<int>(rng.UniformInt(1, 2));
  cfg->restrict_frac = rng.Bernoulli(0.25) ? 0.25 : 0.0;
  cfg->num_flows = static_cast<int>(rng.UniformInt(3, 6));
  cfg->batch_links = rng.Bernoulli(0.5);
  if (config.with_faults) {
    // The grid topology is a pure function of the config: materialize it
    // once so the plan's link faults target real links.
    WirelessScenario topo(*cfg);
    cfg->fault_plan = net::FaultPlan::Random(
        rng.Next(), static_cast<size_t>(topo.num_nodes()), topo.links(),
        SweepFaults());
  }
}

void GenACloud(Rng& rng, const ScenarioGenConfig& config, ACloudConfig* cfg) {
  cfg->num_dcs = static_cast<int>(
      rng.UniformInt(2, std::max(2, config.max_acloud_dcs)));
  cfg->hosts_per_dc = static_cast<int>(
      rng.UniformInt(2, std::max(2, config.max_acloud_hosts)));
  // Keep hosts x vms small: the per-DC placement model is solved to
  // exhaustion by the wall-clock-free baseline, and its tree is
  // hosts^(hosts*vms) — 8 VMs per host already takes minutes.
  cfg->vms_per_host = static_cast<int>(rng.UniformInt(2, 4));
  cfg->duration_hours = 1.0;
  cfg->interval_s = 600;
  if (config.with_faults && rng.Bernoulli(0.5)) {
    // Crash one DC's instance mid-replay and restart it an interval later
    // (the replay driver has no simulated network; this is its fault axis).
    cfg->crash_dc = static_cast<int>(
        rng.UniformInt(0, cfg->num_dcs - 1));
    cfg->crash_interval = 1;
    cfg->restart_interval = 2;
  }
}

// RunScenario's backend override; empty keeps the scenario default.
void OverrideBackend(const std::string& backend, CommonConfig* cfg) {
  if (!backend.empty()) cfg->knobs["SOLVER_BACKEND"] = Value::Str(backend);
}

}  // namespace

const char* ScenarioAppName(ScenarioApp app) {
  switch (app) {
    case ScenarioApp::kFts: return "fts";
    case ScenarioApp::kWireless: return "wireless";
    case ScenarioApp::kACloud: return "acloud";
  }
  return "?";
}

bool ParseScenarioApp(const std::string& name, ScenarioApp* out) {
  if (name == "fts") {
    *out = ScenarioApp::kFts;
    return true;
  }
  if (name == "wireless") {
    *out = ScenarioApp::kWireless;
    return true;
  }
  if (name == "acloud") {
    *out = ScenarioApp::kACloud;
    return true;
  }
  return false;
}

Scenario GenerateScenario(ScenarioApp app, uint64_t seed,
                          const ScenarioGenConfig& config) {
  Scenario s;
  s.app = app;
  s.seed = seed;
  s.name = StrFormat("%s-%llu", ScenarioAppName(app),
                     static_cast<unsigned long long>(seed));
  // One derived stream per scenario: shape draws and the fault-plan seed all
  // come from it, so (app, seed, caps) fully determines the scenario.
  Rng rng(SplitMix64(seed ^ 0x5ce7a110ull));

  // Every scenario solves wall-clock-free (iteration-capped budgets) over
  // the reliable transport: re-running the same scenario must be
  // byte-deterministic regardless of host load.
  switch (app) {
    case ScenarioApp::kFts:
      s.fts.seed = seed;
      s.fts.knobs["NET_RELIABLE"] = Value::Int(1);
      s.fts.solver_time_ms = 0;
      s.fts.solver_max_iterations = config.solver_iterations;
      GenFts(rng, config, &s.fts);
      break;
    case ScenarioApp::kWireless:
      s.wireless.seed = seed;
      s.wireless.knobs["NET_RELIABLE"] = Value::Int(1);
      s.wireless.link_solve_ms = 0;
      s.wireless.solver_max_iterations = config.solver_iterations;
      GenWireless(rng, config, &s.wireless);
      break;
    case ScenarioApp::kACloud:
      s.acloud.seed = seed;
      s.acloud.solver_time_ms = 0;
      s.acloud.solver_max_iterations = config.solver_iterations;
      GenACloud(rng, config, &s.acloud);
      break;
  }
  return s;
}

std::vector<Scenario> GenerateScenarios(const ScenarioGenConfig& config) {
  std::vector<Scenario> out;
  out.reserve(static_cast<size_t>(std::max(0, config.count)));
  for (int i = 0; i < config.count; ++i) {
    ScenarioApp app = config.apps[static_cast<size_t>(i) % config.apps.size()];
    out.push_back(
        GenerateScenario(app, config.seed + static_cast<uint64_t>(i), config));
  }
  return out;
}

std::string Scenario::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("scenario").String(name);
  w.Key("app").String(ScenarioAppName(app));
  w.Key("seed").UInt(seed);
  switch (app) {
    case ScenarioApp::kFts:
      w.Key("num_dcs").Int(fts.num_dcs);
      w.Key("avg_degree").Int(fts.avg_degree);
      w.Key("capacity").Int(fts.capacity);
      w.Key("demand_hi").Int(fts.demand_hi);
      w.Key("batch_links").Bool(fts.batch_links);
      w.Key("max_link_batch").Int(fts.max_link_batch);
      w.Key("converge_sweeps").Int(fts.converge_sweeps);
      w.Key("fault_plan").Raw(fts.fault_plan.ToJson());
      break;
    case ScenarioApp::kWireless:
      w.Key("grid_w").Int(wireless.grid_w);
      w.Key("grid_h").Int(wireless.grid_h);
      w.Key("num_channels").Int(wireless.num_channels);
      w.Key("f_mindiff").Int(wireless.f_mindiff);
      w.Key("restrict_frac").Double(wireless.restrict_frac);
      w.Key("num_flows").Int(wireless.num_flows);
      w.Key("batch_links").Bool(wireless.batch_links);
      w.Key("fault_plan").Raw(wireless.fault_plan.ToJson());
      break;
    case ScenarioApp::kACloud:
      w.Key("num_dcs").Int(acloud.num_dcs);
      w.Key("hosts_per_dc").Int(acloud.hosts_per_dc);
      w.Key("vms_per_host").Int(acloud.vms_per_host);
      w.Key("duration_hours").Double(acloud.duration_hours);
      w.Key("interval_s").Double(acloud.interval_s);
      w.Key("crash_dc").Int(acloud.crash_dc);
      w.Key("crash_interval").Int(acloud.crash_interval);
      w.Key("restart_interval").Int(acloud.restart_interval);
      break;
  }
  w.EndObject();
  return w.Take();
}

ScenarioRun RunScenario(const Scenario& scenario, const std::string& backend) {
  ScenarioRun run;
  runtime::TraceRecorder trace;
  switch (scenario.app) {
    case ScenarioApp::kFts: {
      FtsConfig cfg = scenario.fts;
      OverrideBackend(backend, &cfg);
      cfg.trace = &trace;
      FollowTheSunScenario s(cfg);
      auto r = s.Run();
      if (!r.ok()) {
        run.error = r.status().ToString();
        return run;
      }
      run.ok = true;
      run.objective = r.value().final_cost;
      run.solves = r.value().solves;
      run.violation = CheckFtsInvariants(s, cfg, r.value());
      run.fts_demand_totals = FtsDemandTotals(s, cfg.num_dcs);
      break;
    }
    case ScenarioApp::kWireless: {
      WirelessConfig cfg = scenario.wireless;
      OverrideBackend(backend, &cfg);
      cfg.trace = &trace;
      WirelessScenario s(cfg);
      auto r = s.AssignChannels(WirelessProtocol::kDistributed);
      if (!r.ok()) {
        run.error = r.status().ToString();
        return run;
      }
      run.ok = true;
      run.objective = r.value().interference_cost;
      run.solves = r.value().solves;
      run.violation = CheckWirelessInvariants(cfg, r.value());
      break;
    }
    case ScenarioApp::kACloud: {
      ACloudConfig cfg = scenario.acloud;
      OverrideBackend(backend, &cfg);
      cfg.solve_trace = &trace;
      ACloudScenario s(cfg);
      auto r = s.Run(ACloudPolicy::kACloud);
      if (!r.ok()) {
        run.error = r.status().ToString();
        return run;
      }
      run.ok = true;
      double sum = 0;
      for (const ACloudInterval& m : r.value()) sum += m.avg_cpu_stdev;
      run.objective = r.value().empty()
                          ? 0
                          : sum / static_cast<double>(r.value().size());
      run.violation = CheckACloudInvariants(cfg, r.value());
      break;
    }
  }
  run.trace_hash = HashTraceLines(trace.lines());
  return run;
}

}  // namespace cologne::apps
