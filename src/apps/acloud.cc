#include "apps/acloud.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "apps/programs.h"
#include "common/stats.h"

namespace cologne::apps {

const char* ACloudPolicyName(ACloudPolicy p) {
  switch (p) {
    case ACloudPolicy::kDefault: return "Default";
    case ACloudPolicy::kHeuristic: return "Heuristic";
    case ACloudPolicy::kACloud: return "ACloud";
    case ACloudPolicy::kACloudM: return "ACloud (M)";
  }
  return "?";
}

namespace {

/// Journal `row` into `table` unless the table already holds it.
Status InsertFactOnce(runtime::Instance* inst, const std::string& table,
                      const Row& row) {
  if (inst->engine().GetTable(table)->Contains(row)) return Status::OK();
  return inst->ApplyFact(table, row, +1);
}

}  // namespace

Status SyncKeyedFacts(runtime::Instance* inst, const std::string& table,
                      const std::set<Row>& want) {
  // Iterate a copy (Rows()), so the loop does not depend on ApplyFact
  // leaving the table untouched.
  for (const Row& row : inst->engine().GetTable(table)->Rows()) {
    // Delete rows whose key is no longer wanted; keyed replacement handles
    // changed rows on insert.
    bool keep = false;
    for (const Row& w : want) {
      if (w[0] == row[0]) keep = true;
    }
    if (!keep) COLOGNE_RETURN_IF_ERROR(inst->ApplyFact(table, row, -1));
  }
  for (const Row& row : want) {
    COLOGNE_RETURN_IF_ERROR(InsertFactOnce(inst, table, row));
  }
  return Status::OK();
}

ACloudScenario::ACloudScenario(const ACloudConfig& config)
    : config_(config), trace_(config.trace), rng_(config.seed) {
  num_hosts_ = config.num_dcs * config.hosts_per_dc;
}

int ACloudScenario::active_vms() const {
  int n = 0;
  for (const Vm& vm : vms_) n += vm.active;
  return n;
}

void ACloudScenario::UpdateLoads(double t_s) {
  // Spread each customer's demand over its active VMs.
  std::vector<int> active_count(
      static_cast<size_t>(trace_.num_customers()), 0);
  for (const Vm& vm : vms_) {
    if (vm.active) ++active_count[static_cast<size_t>(vm.customer)];
  }
  for (Vm& vm : vms_) {
    if (!vm.active) {
      vm.cpu = 0;
      continue;
    }
    int n = active_count[static_cast<size_t>(vm.customer)];
    double demand = trace_.CustomerCpu(vm.customer, t_s) *
                    trace_.PpsOf(vm.customer);
    vm.cpu = std::clamp(demand / std::max(n, 1), 0.0, 100.0);
  }
}

void ACloudScenario::ApplyWorkloadOps(double t_s) {
  // Per customer: spawn (power on) a VM when average load exceeds the high
  // threshold and an inactive VM exists; power one off below the low
  // threshold (paper Section 6.2 workload derivation).
  std::vector<std::vector<size_t>> by_customer(
      static_cast<size_t>(trace_.num_customers()));
  for (size_t i = 0; i < vms_.size(); ++i) {
    by_customer[static_cast<size_t>(vms_[i].customer)].push_back(i);
  }
  for (int c = 0; c < trace_.num_customers(); ++c) {
    const auto& ids = by_customer[static_cast<size_t>(c)];
    if (ids.empty()) continue;
    int active = 0;
    for (size_t i : ids) active += vms_[i].active;
    double demand = trace_.CustomerCpu(c, t_s) * trace_.PpsOf(c);
    double per_vm = demand / std::max(active, 1);
    if (per_vm > config_.spawn_threshold) {
      for (size_t i : ids) {
        if (!vms_[i].active) {
          vms_[i].active = true;
          break;
        }
      }
    } else if (per_vm < config_.stop_threshold && active > 1) {
      for (size_t i : ids) {
        if (vms_[i].active) {
          vms_[i].active = false;
          break;
        }
      }
    }
  }
}

std::vector<double> ACloudScenario::HostLoads() const {
  std::vector<double> load(static_cast<size_t>(num_hosts_), 0.0);
  for (const Vm& vm : vms_) {
    if (vm.active) load[static_cast<size_t>(vm.host)] += vm.cpu;
  }
  return load;
}

double ACloudScenario::DcStdev(int dc) const {
  std::vector<double> loads = HostLoads();
  std::vector<double> dc_loads(
      loads.begin() + dc * config_.hosts_per_dc,
      loads.begin() + (dc + 1) * config_.hosts_per_dc);
  return Stdev(dc_loads);
}

int ACloudScenario::RunHeuristic(int dc) {
  int migrations = 0;
  int lo_host = dc * config_.hosts_per_dc;
  int hi_host = lo_host + config_.hosts_per_dc;
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<double> loads = HostLoads();
    int most = lo_host, least = lo_host;
    for (int h = lo_host; h < hi_host; ++h) {
      if (loads[static_cast<size_t>(h)] > loads[static_cast<size_t>(most)]) most = h;
      if (loads[static_cast<size_t>(h)] < loads[static_cast<size_t>(least)]) least = h;
    }
    double max_l = loads[static_cast<size_t>(most)];
    double min_l = loads[static_cast<size_t>(least)];
    if (min_l <= 0) min_l = 1e-9;
    if (max_l / min_l <= config_.heuristic_ratio) break;
    // Move the VM whose load is closest to half the gap.
    double target = (max_l - min_l) / 2;
    int best_vm = -1;
    double best_diff = 1e18;
    for (size_t i = 0; i < vms_.size(); ++i) {
      const Vm& vm = vms_[i];
      if (!vm.active || vm.host != most || vm.cpu <= 0) continue;
      double diff = std::fabs(vm.cpu - target);
      if (vm.cpu < (max_l - min_l) && diff < best_diff) {
        best_diff = diff;
        best_vm = static_cast<int>(i);
      }
    }
    if (best_vm < 0) break;  // no move improves
    vms_[static_cast<size_t>(best_vm)].host = least;
    ++migrations;
  }
  return migrations;
}

Result<int> ACloudScenario::RunCologne(int dc, runtime::Instance* inst,
                                       ACloudInterval* m) {
  int lo_host = dc * config_.hosts_per_dc;
  int hi_host = lo_host + config_.hosts_per_dc;
  datalog::Engine& eng = inst->engine();

  // Residual (non-optimizable) load per host: VMs below the CPU filter.
  std::vector<int64_t> residual(static_cast<size_t>(num_hosts_), 0);
  std::vector<size_t> movable;
  for (size_t i = 0; i < vms_.size(); ++i) {
    const Vm& vm = vms_[i];
    if (!vm.active || vm.host < lo_host || vm.host >= hi_host) continue;
    if (vm.cpu > config_.cpu_filter) {
      movable.push_back(i);
    } else {
      residual[static_cast<size_t>(vm.host)] +=
          static_cast<int64_t>(std::lround(vm.cpu));
    }
  }

  // Refresh facts (keyed tables replace rows in place). Stale vm/origin rows
  // for VMs that left the filter are deleted by SyncKeyedFacts.
  std::set<Row> want_vm, want_origin;
  for (size_t i : movable) {
    const Vm& vm = vms_[i];
    want_vm.insert({Value::Int(vm.id),
                    Value::Int(static_cast<int64_t>(std::lround(vm.cpu))),
                    Value::Int(config_.vm_mem_gb)});
    want_origin.insert({Value::Int(vm.id), Value::Int(vm.host)});
  }
  COLOGNE_RETURN_IF_ERROR(SyncKeyedFacts(inst, "vm", want_vm));
  COLOGNE_RETURN_IF_ERROR(SyncKeyedFacts(inst, "origin", want_origin));
  for (int h = lo_host; h < hi_host; ++h) {
    COLOGNE_RETURN_IF_ERROR(InsertFactOnce(
        inst, "host",
        {Value::Int(h), Value::Int(residual[static_cast<size_t>(h)]),
         Value::Int(0)}));
    COLOGNE_RETURN_IF_ERROR(
        InsertFactOnce(inst, "hostMemThres",
                       {Value::Int(h), Value::Int(config_.host_mem_gb)}));
  }
  COLOGNE_RETURN_IF_ERROR(inst->Flush());

  if (movable.empty()) return 0;

  COLOGNE_ASSIGN_OR_RETURN(out, inst->Solve(MakeSolveRequest(config_, 0)));
  // Per-solve trace for diagnosing replay regressions (set ACLOUD_DEBUG=1).
  if (getenv("ACLOUD_DEBUG") != nullptr) {
    fprintf(stderr,
            "DBG dc=%d status=%s vars=%zu movable=%zu wall=%.1f obj=%.2f "
            "nodes=%llu iters=%llu\n",
            dc, solver::SolveStatusName(out.status), out.model_vars,
            movable.size(), out.stats.wall_ms, out.objective,
            static_cast<unsigned long long>(out.stats.nodes),
            static_cast<unsigned long long>(out.stats.iterations));
  }
  m->solve_ms += out.stats.wall_ms;
  m->solver_nodes += out.stats.nodes;
  m->solver_iterations += out.stats.iterations;
  m->solver_restarts += out.stats.restarts;
  if (!out.has_solution()) return 0;

  // Apply the placement: assign(Vid,Hid,1) => VM Vid runs on host Hid.
  int migrations = 0;
  const datalog::Table* assign = eng.GetTable("assign");
  for (size_t i : movable) {
    Vm& vm = vms_[i];
    for (int h = lo_host; h < hi_host; ++h) {
      Row row{Value::Int(vm.id), Value::Int(h), Value::Int(1)};
      if (assign->Contains(row)) {
        if (vm.host != h) {
          vm.host = h;
          ++migrations;
        }
        break;
      }
    }
  }
  return migrations;
}

Result<std::vector<ACloudInterval>> ACloudScenario::Run(ACloudPolicy policy) {
  // Reset VM population: vms_per_host on every host, customers round-robin.
  vms_.clear();
  rng_.Seed(config_.seed);
  int vid = 0;
  for (int h = 0; h < num_hosts_; ++h) {
    for (int k = 0; k < config_.vms_per_host; ++k) {
      Vm vm;
      vm.id = vid++;
      vm.customer = static_cast<int>(
          rng_.UniformInt(0, trace_.num_customers() - 1));
      vm.host = h;
      vms_.push_back(vm);
    }
  }

  // One persistent Cologne instance per data center (state updates flow
  // through incremental view maintenance across intervals).
  COLOGNE_ASSIGN_OR_RETURN(
      prog, CompileDriverProgram(ACloudProgram(policy == ACloudPolicy::kACloudM,
                                               config_.max_migrates),
                                 config_));
  std::vector<std::unique_ptr<runtime::Instance>> instances;
  // Standalone driver (no runtime::System): the scenario reads the system
  // knobs itself, owns the metrics registry and snapshots per COP interval
  // instead of per round.
  colog::SystemKnobs knobs;
  COLOGNE_RETURN_IF_ERROR(colog::SetKnobs(prog.knobs, nullptr, &knobs));
  obs::MetricsRegistry metrics;
  if (knobs.obs_metrics) {
    metrics.DeclareHistogram("solve.nodes", {0, 10, 100, 1000, 10000});
  }
  if (policy == ACloudPolicy::kACloud || policy == ACloudPolicy::kACloudM) {
    for (int dc = 0; dc < config_.num_dcs; ++dc) {
      auto inst = std::make_unique<runtime::Instance>(dc, &prog);
      COLOGNE_RETURN_IF_ERROR(inst->Init());
      // Read-modify-write so the knobs Init() applied survive.
      inst->set_solve_options(OverlaySolveOptions(
          config_, inst->solve_options(), config_.solver_time_ms));
      if (config_.solve_trace != nullptr) {
        inst->set_trace(config_.solve_trace);
      }
      if (knobs.obs_metrics) inst->set_metrics(&metrics);
      instances.push_back(std::move(inst));
    }
  }

  std::vector<ACloudInterval> out;
  int intervals =
      static_cast<int>(config_.duration_hours * 3600 / config_.interval_s);
  const bool cologne_policy =
      policy == ACloudPolicy::kACloud || policy == ACloudPolicy::kACloudM;
  for (int step = 0; step <= intervals; ++step) {
    double t_s = step * config_.interval_s;
    if (config_.solve_trace != nullptr) config_.solve_trace->SetTime(t_s);
    ApplyWorkloadOps(t_s);
    UpdateLoads(t_s);

    ACloudInterval m;
    m.t_hours = t_s / 3600.0;
    // Injected instance crash/restart (Cologne policies only: the other
    // policies hold no per-DC engine state to lose).
    if (cologne_policy && step == config_.crash_interval &&
        config_.crash_dc >= 0 && config_.crash_dc < config_.num_dcs) {
      runtime::Instance* victim =
          instances[static_cast<size_t>(config_.crash_dc)].get();
      COLOGNE_RETURN_IF_ERROR(victim->Crash());
      if (config_.solve_trace != nullptr) {
        config_.solve_trace->Fault(
            "crash", "\"node\":" + std::to_string(config_.crash_dc));
      }
    }
    if (cologne_policy && step == config_.restart_interval &&
        config_.crash_dc >= 0 && config_.crash_dc < config_.num_dcs &&
        instances[static_cast<size_t>(config_.crash_dc)]->crashed()) {
      runtime::Instance* victim =
          instances[static_cast<size_t>(config_.crash_dc)].get();
      // The warm-start cache dies with the crashed process.
      COLOGNE_RETURN_IF_ERROR(victim->Restart(/*retain_warm_start=*/false));
      COLOGNE_RETURN_IF_ERROR(victim->ReplayBaseFacts());
      m.recovered = true;
      if (config_.solve_trace != nullptr) {
        config_.solve_trace->Fault(
            "restart", "\"node\":" + std::to_string(config_.crash_dc));
      }
    }
    switch (policy) {
      case ACloudPolicy::kDefault:
        break;
      case ACloudPolicy::kHeuristic:
        for (int dc = 0; dc < config_.num_dcs; ++dc) {
          m.migrations += RunHeuristic(dc);
        }
        break;
      case ACloudPolicy::kACloud:
      case ACloudPolicy::kACloudM:
        for (int dc = 0; dc < config_.num_dcs; ++dc) {
          if (instances[static_cast<size_t>(dc)]->crashed()) {
            ++m.skipped_dcs;
            continue;
          }
          COLOGNE_ASSIGN_OR_RETURN(
              n, RunCologne(dc, instances[static_cast<size_t>(dc)].get(), &m));
          m.migrations += n;
        }
        break;
    }

    double total = 0;
    for (int dc = 0; dc < config_.num_dcs; ++dc) total += DcStdev(dc);
    m.avg_cpu_stdev = total / config_.num_dcs;
    if (knobs.obs_metrics && cologne_policy &&
        config_.solve_trace != nullptr) {
      config_.solve_trace->Metrics(static_cast<uint64_t>(step), metrics);
    }
    out.push_back(m);
  }
  return out;
}

}  // namespace cologne::apps
