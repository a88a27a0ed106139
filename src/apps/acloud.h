// ACloud scenario driver (paper Sections 4.2 and 6.2): trace-driven replay of
// a multi-data-center cloud, with VM spawn/stop workload derivation and four
// placement policies — Default, Heuristic, ACloud and ACloud (M).
#ifndef COLOGNE_APPS_ACLOUD_H_
#define COLOGNE_APPS_ACLOUD_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/common_config.h"
#include "apps/trace.h"
#include "colog/planner.h"
#include "common/status.h"
#include "runtime/instance.h"

namespace cologne::apps {

/// Placement policies compared in Figures 2 and 3.
enum class ACloudPolicy {
  kDefault,    ///< No migration after initial random placement.
  kHeuristic,  ///< Threshold rebalancing: most- to least-loaded host until
               ///< the load ratio is below K (1.05 in the paper).
  kACloud,     ///< The Colog COP (Section 4.2), one Cologne instance per DC.
  kACloudM,    ///< ACloud plus the <=3-migrations-per-DC constraint (d5/d6/c3).
};

const char* ACloudPolicyName(ACloudPolicy p);

/// Scenario shape. Defaults reproduce the paper's setup at a scale where the
/// 4-hour replay completes in bench time: 3 data centers, 4 VM hosts each
/// (the paper's 5th host per DC is a storage server and hosts no VMs),
/// 10-minute COP interval, VMs below 20 % CPU excluded from the vm table.
/// The settings shared by every driver, the knobs among them, live in the
/// CommonConfig base (NET_RELIABLE and the link settings are unused here —
/// this driver replays a trace against standalone instances, no simulated
/// net).
struct ACloudConfig : CommonConfig {
  ACloudConfig() { seed = 7; }

  int num_dcs = 3;
  int hosts_per_dc = 4;
  int vms_per_host = 15;  ///< Preallocated migratable VMs per host.
  double duration_hours = 4.0;
  double interval_s = 600;
  double cpu_filter = 20.0;
  double spawn_threshold = 80.0;
  double stop_threshold = 20.0;
  int64_t host_mem_gb = 32;
  int64_t vm_mem_gb = 2;
  double heuristic_ratio = 1.05;
  int max_migrates = 3;        ///< Per DC per interval, ACloud (M) only.
  double solver_time_ms = 1500;
  TraceConfig trace;
  // --- Fault injection -------------------------------------------------------
  /// DC whose Cologne instance crashes mid-replay (-1 = no crash). While
  /// down, the DC performs no placement (its interval is skipped).
  int crash_dc = -1;
  /// Interval index at which the crash happens.
  int crash_interval = -1;
  /// Interval index at which the instance restarts, rebuilding its tables
  /// from the durable base-fact journal (-1 = stays down).
  int restart_interval = -1;
  /// Record invokeSolver outcomes + crash/restart transitions (optional).
  /// The OBS_METRICS knob additionally folds per-interval `metrics`
  /// snapshots + solve provenance into this trace.
  runtime::TraceRecorder* solve_trace = nullptr;
};

/// Per-interval measurements (one row of Figures 2 and 3).
struct ACloudInterval {
  double t_hours = 0;
  double avg_cpu_stdev = 0;  ///< Mean across DCs of per-DC host-CPU stdev.
  int migrations = 0;        ///< VM migrations performed this interval.
  double solve_ms = 0;       ///< Total solver wall time this interval.
  uint64_t solver_nodes = 0;       ///< Search nodes this interval.
  uint64_t solver_iterations = 0;  ///< Backend improvement iterations.
  uint64_t solver_restarts = 0;    ///< Backend restarts.
  /// DCs that performed no placement this interval (crashed instance).
  int skipped_dcs = 0;
  /// True on the interval where a crashed instance rebuilt and rejoined.
  bool recovered = false;
};

/// Make the base facts of `table` (keyed on its first column) on `inst`
/// match `want`: retract each row whose key is no longer wanted, insert
/// each wanted row the table does not hold. Goes through the durable
/// journal, so a crashed DC rebuilds its last-known workload on restart.
/// Held rows are not re-inserted: tables count derivations, and one
/// retraction must remove a VM that left the CPU filter from the next
/// model.
Status SyncKeyedFacts(runtime::Instance* inst, const std::string& table,
                      const std::set<Row>& want);

/// \brief Trace replay of the ACloud workload under one policy.
class ACloudScenario {
 public:
  explicit ACloudScenario(const ACloudConfig& config);

  /// Replay the full duration; returns one entry per interval.
  Result<std::vector<ACloudInterval>> Run(ACloudPolicy policy);

  /// Number of VMs currently powered on (after the last Run).
  int active_vms() const;

 private:
  struct Vm {
    int id;
    int customer;
    int host;        // global host id
    bool active = true;
    double cpu = 0;  // current load %
  };

  int DcOfHost(int host) const { return host / config_.hosts_per_dc; }
  void UpdateLoads(double t_s);
  void ApplyWorkloadOps(double t_s);
  double DcStdev(int dc) const;
  std::vector<double> HostLoads() const;
  int RunHeuristic(int dc);
  Result<int> RunCologne(int dc, runtime::Instance* inst, ACloudInterval* m);

  ACloudConfig config_;
  DataCenterTrace trace_;
  Rng rng_;
  std::vector<Vm> vms_;
  int num_hosts_;
};

}  // namespace cologne::apps

#endif  // COLOGNE_APPS_ACLOUD_H_
