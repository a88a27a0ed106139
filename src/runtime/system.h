// System: a deployment of Cologne instances — centralized (one instance) or
// distributed (one instance per node, exchanging tuples over the simulated
// network), mirroring Figure 1 of the paper.
//
// Fault handling (crash/restart semantics):
//  * Committed-state model: a crashed node loses its own volatile state;
//    tuples it previously shipped to peers remain valid committed state
//    (a migrated VM stays migrated even if the negotiator dies).
//  * Perfect failure detection: deliveries to a crashed node are dropped at
//    the receiver with reason "node_down".
//  * Epoch fencing: every message carries the sender's incarnation epoch;
//    in-flight messages from a previous incarnation are dropped as stale.
//  * Anti-entropy rejoin: on restart the node replays its durable base-fact
//    journal (re-deriving and re-shipping localized tuples) and every live
//    peer replays its chronological send log to the node over a reliable
//    channel, restoring the state the node had learned from others.
//  * Duplicate suppression: peers track the net per-row contribution of
//    each sender; when a sender restarts, its re-derived tuples first pay
//    off the already-embedded contribution ("debt") instead of inflating
//    derivation counts — deletable remote tuples would otherwise leak. A
//    reconciliation sweep shortly after restart retracts any leftover debt
//    (rows the new incarnation no longer derives).
#ifndef COLOGNE_RUNTIME_SYSTEM_H_
#define COLOGNE_RUNTIME_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "colog/planner.h"
#include "common/status.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "net/simulator.h"
#include "runtime/instance.h"
#include "runtime/trace_replay.h"

namespace cologne::runtime {

/// \brief A set of Cologne nodes over a simulated network.
///
/// Engines' remote tuples are routed through the Network (paying latency and
/// bandwidth, counted for the Figure 5 measurements). Use sim() to schedule
/// periodic solver triggers and advance virtual time.
class System {
 public:
  struct Options {
    net::LinkConfig default_link;  ///< Used by ConnectAll/AddLink default.
    uint64_t seed = 1;             ///< Network RNG seed (loss draws).
    /// Carry every engine-derived tuple over the real retransmission/FIFO
    /// transport (net/reliable_channel.h). Also enabled by the program's
    /// `param NET_RELIABLE = 1` knob; the union of the two wins.
    bool net_reliable = false;
  };

  System(const colog::CompiledProgram* program, size_t num_nodes,
         Options options);
  System(const colog::CompiledProgram* program, size_t num_nodes)
      : System(program, num_nodes, Options{}) {}

  /// Declare tables/rules on every node and wire the message paths.
  Status Init();

  net::Simulator& sim() { return sim_; }
  net::Network& network() { return net_; }
  size_t num_nodes() const { return nodes_.size(); }
  Instance& node(NodeId id) { return *nodes_[static_cast<size_t>(id)]; }
  /// True when ordinary traffic rides the reliable FIFO transport (the
  /// NET_RELIABLE knob or Options::net_reliable).
  bool net_reliable() const { return net_reliable_; }
  /// True when the observability layer (metrics registry + solve
  /// provenance) is on: the program's `param OBS_METRICS = 1` knob. Off by
  /// default, so traces are byte-identical to pre-observability runs.
  bool obs_metrics() const { return obs_metrics_; }
  /// The system-wide metrics registry (solve counters accumulate here from
  /// every node; network counters are pulled in at SnapshotMetrics time).
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Sync the network/simulator counters into the registry and emit one
  /// canonical `metrics` trace line stamped with `round`. No-op (and no
  /// trace line) when obs_metrics() is off — scenario drivers call this
  /// unconditionally at round boundaries. Integer-only, virtual-time-path
  /// values: two identical runs emit byte-identical snapshots.
  void SnapshotMetrics(uint64_t round);

  /// Add a communication link between two nodes.
  Status AddLink(NodeId a, NodeId b) {
    return net_.AddLink(a, b, options_.default_link);
  }

  /// Insert a base fact at `node` and run its local fixpoint (remote tuples
  /// travel asynchronously; advance the simulator to deliver them).
  Status InsertFact(NodeId node_id, const std::string& table, Row row) {
    return node(node_id).InsertFact(table, std::move(row));
  }

  /// Schedule an invokeSolver at `node` after `delay_s` of virtual time.
  void ScheduleSolve(NodeId node_id, double delay_s,
                     std::function<void(const SolveOutput&)> on_done = {});

  // --- Fault injection -------------------------------------------------------

  /// Install a fault plan: link windows go to the network, crash/restart
  /// events and window-transition trace markers are scheduled on the
  /// simulator. Call after Init(), before running.
  Status ApplyFaultPlan(const net::FaultPlan& plan);
  const net::FaultPlan& fault_plan() const { return fault_plan_; }

  /// Crash `id` now: volatile state dropped, future deliveries to it
  /// dropped. No-op if already down.
  Status CrashNode(NodeId id);
  /// Restart `id` now: rebuild from its base-fact journal, fence its old
  /// epoch, and run the anti-entropy rejoin. No-op if not down.
  Status RestartNode(NodeId id, bool retain_warm_start);

  /// Anti-entropy resync of a *live* node: every peer replays its send log
  /// to `id` over the reliable channel, healing remote views that drifted
  /// through message loss. Already-embedded rows are debt-suppressed, rows
  /// the peers no longer stand behind are retracted by the reconciliation
  /// sweep, and ordinary in-flight messages sent before the resync are
  /// dropped on arrival (the replay supersedes them). No-op while crashed.
  Status ResyncNode(NodeId id);

  /// True when `id` is down with no pending scheduled restart.
  bool NodePermanentlyDown(NodeId id) const;

  /// True while any node has a scheduled restart it has not executed yet
  /// (drivers keep their round loops ticking until recovery completes).
  bool AnyRestartPending() const;

  /// Hook invoked after a node restarted and rejoined (drivers use it to
  /// refresh the node's local inventory facts).
  using RestartHook = std::function<void(NodeId)>;
  void SetRestartHook(RestartHook hook) { restart_hook_ = std::move(hook); }

  /// Record every delivery/drop/fault transition/solve outcome of this
  /// system into `trace` (see trace_replay.h). Pass nullptr to detach.
  void SetTrace(TraceRecorder* trace);
  TraceRecorder* trace() { return trace_; }

  /// Advance virtual time to `t`, delivering all due messages/events.
  void RunUntil(double t) { sim_.RunUntil(t); }
  /// Drain every pending event.
  void RunToQuiescence() { sim_.Run(); }

 private:
  /// Install the outbound sender on a node's engine and the inbound
  /// receiver on the network (receiver-side crash/epoch/duplicate policy).
  void WireNode(NodeId id);
  void ScheduleWindowMarkers(const net::FaultPlan& plan);
  /// Replay what `src` shipped to `dst` over the reliable channel. The
  /// chronological mode (`net_state` false) re-sends the full history in
  /// order — correct for a node rebuilt from its journal, which must
  /// re-experience every delta (including post-solve state updates). The
  /// net mode re-sends only net-surviving rows, in last-insertion order —
  /// correct for resyncing a *live* node, where already-embedded rows are
  /// debt-suppressed and must not re-fire state-update rules.
  void ReplaySentLog(NodeId src, NodeId dst, bool net_state);
  /// Send one tuple `src` -> `dst` (sent_log_ bookkeeping is the caller's).
  void SendTuple(NodeId src, NodeId dst, datalog::TableId table,
                 const Row& row, int sign, bool reliable, bool replay);
  /// Delay after a restart before leftover-debt reconciliation retracts
  /// rows the new incarnation no longer derives (must exceed the longest
  /// one-way link delay so the rejoin replay has landed).
  static constexpr double kReconcileDelayS = 1.0;
  /// After kReconcileDelayS, retract any debt still outstanding at `dst`
  /// toward `src` — rows `src` no longer stands behind.
  void ScheduleDebtReconcile(NodeId dst, NodeId src);

  /// One remote tuple this node shipped, in send order (the anti-entropy
  /// replay log; replayed chronologically so keyed replacement at the
  /// receiver reproduces the original order).
  struct SentRecord {
    NodeId dest;
    datalog::TableId table;
    Row row;
    int sign;
  };
  /// A tuple of one table. Every node declares the program's tables in the
  /// same (name) order, so a TableId means the same table on every node and
  /// ordering by id orders by table name.
  using TupleKey = std::pair<datalog::TableId, Row>;
  struct TupleKeyHash {
    size_t operator()(const TupleKey& k) const;
  };
  /// Receiver-side bookkeeping about one sending peer.
  struct PeerState {
    uint32_t epoch_seen = 0;
    /// Bumped whenever embedded state rolls into debt (restart/resync);
    /// stale reconciliation sweeps check it and stand down.
    uint64_t sync_gen = 0;
    /// Ordinary messages sent at or before this virtual time are dropped:
    /// a reliable send-log replay issued then already covers them.
    double floor = -1;
    /// Net per-row contribution currently embedded in our engine.
    std::unordered_map<TupleKey, int64_t, TupleKeyHash> embedded;
    /// Contribution left over from before a restart/resync, paid off by
    /// the replayed (or re-derived) sends. Ordered: the reconciliation
    /// sweep retracts it in this order.
    std::map<TupleKey, int64_t> debt;
  };

  const colog::CompiledProgram* program_;
  Options options_;
  net::Simulator sim_;
  net::Network net_;
  bool net_reliable_ = false;
  bool obs_metrics_ = false;
  obs::MetricsRegistry metrics_;
  /// One model-template cache for every node: the nodes run one program,
  /// so they solve the same few model shapes (declared before nodes_, which
  /// point at it).
  solver::TemplateCache templates_;
  std::vector<std::unique_ptr<Instance>> nodes_;
  std::vector<std::vector<SentRecord>> sent_log_;   // [src]
  std::vector<std::map<NodeId, PeerState>> rx_;     // [dst][src]
  std::vector<char> restart_pending_;               // [node]
  net::FaultPlan fault_plan_;
  TraceRecorder* trace_ = nullptr;
  RestartHook restart_hook_;
};

}  // namespace cologne::runtime

#endif  // COLOGNE_RUNTIME_SYSTEM_H_
