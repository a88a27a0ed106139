// Follow-the-Sun scenario driver (paper Sections 4.3 and 6.3): distributed
// per-link VM-migration negotiation across geo-distributed data centers over
// the simulated network, optionally under an injected fault plan (link
// flaps, loss, partitions, node crashes) with failed-round retry.
#ifndef COLOGNE_APPS_FOLLOWSUN_H_
#define COLOGNE_APPS_FOLLOWSUN_H_

#include <map>
#include <memory>
#include <vector>

#include "apps/common_config.h"
#include "apps/negotiation.h"
#include "colog/planner.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/fault_plan.h"
#include "runtime/system.h"
#include "runtime/trace_replay.h"

namespace cologne::apps {

/// Experimental knobs, defaulting to the paper's Section 6.3 workload:
/// degree-3 random topology, capacity 60, demands 0-10, communication cost
/// 50-100, migration cost 10-20, operating cost 10, 5 s negotiation timer.
/// The transport/observability/solver knobs shared by every driver live in
/// the CommonConfig base.
struct FtsConfig : CommonConfig {
  FtsConfig() { seed = 11; }

  int num_dcs = 6;
  int avg_degree = 3;
  int capacity = 60;
  int demand_lo = 0;
  int demand_hi = 10;
  int comm_lo = 50;
  int comm_hi = 100;
  int mig_lo = 10;
  int mig_hi = 20;
  int op_cost = 10;
  double solver_time_ms = 500;
  bool migration_limit = false;  ///< Adds d11/c3 (<= max_migrates per link).
  int max_migrates = 20;
  /// Injected faults (empty = the happy path). Applied after the workload
  /// facts have shipped, so window/crash times are negotiation-phase times.
  net::FaultPlan fault_plan;
  /// Record every delivery/drop/fault/solve into this trace (optional).
  runtime::TraceRecorder* trace = nullptr;
  /// After the initial pass over all links, renegotiate every link for up
  /// to this many additional passes until a pass leaves the global cost
  /// unchanged (the paper's periodic negotiation converging to a fixpoint;
  /// under churn, later clean passes repair loss-induced divergence). 0 =
  /// single-pass behavior.
  int converge_sweeps = 4;
};

/// One point of the Figure 4 series.
struct FtsSample {
  double t_s = 0;
  double total_cost = 0;      ///< Global comm+op+migration cost.
  double normalized = 0;      ///< Relative to the pre-optimization cost (%).
};

/// Full outcome of one distributed execution; the solve and churn counters
/// live in the NegotiationStats base.
struct FtsResult : NegotiationStats {
  std::vector<FtsSample> series;     ///< Cost after each negotiation round.
  double initial_cost = 0;
  double final_cost = 0;
  double reduction_pct = 0;          ///< (initial-final)/initial * 100.
  double avg_per_node_kBps = 0;      ///< Figure 5 measurement.
  int total_vms_migrated = 0;        ///< Sum of |R| across links.
  double avg_link_solve_ms = 0;      ///< Section 6.3: per-link COP time.
};

/// \brief Runs the distributed Follow-the-Sun program to a fixpoint.
///
/// Each round (paper's 5 s periodic timer) pairs up idle adjacent nodes
/// (larger id initiates, per the paper's footnote 1); the initiator runs the
/// local COP and the r2/r3 rules propagate decisions and update allocations.
/// Failed negotiations (crashed endpoint, solver error) are retried in later
/// rounds; a restarted node rejoins via the System's anti-entropy replay
/// plus an inventory refresh.
class FollowTheSunScenario {
 public:
  explicit FollowTheSunScenario(const FtsConfig& config);

  /// Execute all link negotiations; returns the cost/traffic measurements.
  Result<FtsResult> Run();

  /// The system of the last Run() (for post-run state inspection in tests).
  runtime::System* system() { return sys_.get(); }

 private:
  double GlobalCost() const;

  FtsConfig config_;
  colog::CompiledProgram prog_;
  std::unique_ptr<runtime::System> sys_;
  std::vector<std::pair<NodeId, NodeId>> links_;
  // Cost model mirrors (also inserted as facts).
  std::vector<std::vector<int64_t>> cur_vm_;     // [node][demand]
  std::vector<std::vector<int64_t>> comm_cost_;  // [node][demand]
  std::map<std::pair<NodeId, NodeId>, int64_t> mig_cost_;
  double accumulated_mig_cost_ = 0;
  int total_moved_ = 0;
};

}  // namespace cologne::apps

#endif  // COLOGNE_APPS_FOLLOWSUN_H_
