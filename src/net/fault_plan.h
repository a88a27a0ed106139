// Seeded fault plans for the simulated network and runtime: link flaps,
// bidirectional partitions, per-link loss/duplication/reordering windows,
// and node crash/restart events.
//
// A plan is pure data. The Network consults it at send time (so identical
// plans yield identical drop/duplicate/jitter draws) and runtime::System
// schedules its crash/restart events on the simulator. Plans serialize to
// canonical JSON and parse back, so the trace header of a faulty run is
// sufficient to reproduce it bit-for-bit (see runtime/trace_replay.h).
#ifndef COLOGNE_NET_FAULT_PLAN_H_
#define COLOGNE_NET_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/value.h"

namespace cologne::net {

/// Faults on one undirected link (endpoints unordered).
struct LinkFault {
  /// A half-open activity window [t0, t1) with an optional parameter:
  /// drop/duplication probability, or reorder jitter bound in seconds.
  struct Window {
    double t0 = 0;
    double t1 = 0;
    double p = 0;
  };

  NodeId a = 0;
  NodeId b = 0;
  std::vector<Window> down;       ///< Link is dead; every send is dropped.
  std::vector<Window> loss;       ///< Extra per-message drop probability `p`.
  std::vector<Window> duplicate;  ///< Per-message duplication probability `p`.
  std::vector<Window> reorder;    ///< Uniform extra delay in [0, p) seconds.

  bool DownAt(double t) const;
  double LossAt(double t) const;       ///< 0 outside any window.
  double DupAt(double t) const;
  double ReorderAt(double t) const;
};

/// A bidirectional partition: messages between `group` and its complement
/// are dropped during [t0, t1).
struct PartitionFault {
  std::vector<NodeId> group;  ///< Sorted member set.
  double t0 = 0;
  double t1 = 0;
};

/// A node crash (and optional restart) handled by runtime::System: the node
/// loses all engine and solver state and rejoins from its durable base facts.
struct CrashFault {
  NodeId node = 0;
  double t = 0;
  double restart_t = -1;          ///< < 0: the node never comes back.
  bool retain_warm_start = false; ///< Keep the warm-start cache across crash.
};

/// \brief A deterministic schedule of injected faults.
struct FaultPlan {
  uint64_t seed = 0;  ///< Generator seed (recorded for provenance only).
  std::vector<LinkFault> links;
  std::vector<PartitionFault> partitions;
  std::vector<CrashFault> crashes;

  bool empty() const {
    return links.empty() && partitions.empty() && crashes.empty();
  }

  /// Fault entry for the undirected link (a, b), or nullptr.
  const LinkFault* FindLink(NodeId a, NodeId b) const;

  /// True when (a, b) traffic must be dropped at time `t` — a down window on
  /// the link or an active partition separating the endpoints. `reason`
  /// (optional) receives "link_down" or "partition".
  bool SeveredAt(NodeId a, NodeId b, double t, const char** reason = nullptr) const;

  /// True when an active partition separates `a` from `b` at time `t`
  /// (the partition half of SeveredAt; link windows live on LinkFault).
  bool PartitionedAt(NodeId a, NodeId b, double t) const;

  /// Extra loss probability on (a, b) at `t` (0 when no window is active).
  double LossProbAt(NodeId a, NodeId b, double t) const;
  /// Duplication probability on (a, b) at `t`.
  double DupProbAt(NodeId a, NodeId b, double t) const;
  /// Reorder jitter bound (seconds of extra uniform delay) on (a, b) at `t`.
  double ReorderJitterAt(NodeId a, NodeId b, double t) const;

  /// The crash entry for `node` (first match), or nullptr.
  const CrashFault* FindCrash(NodeId node) const;

  /// Canonical single-line JSON (shortest round-trip double formatting;
  /// empty sections omitted). Equal plans render identically.
  std::string ToJson() const;

  /// Parse a plan rendered by ToJson, in any member order and whitespace,
  /// ignoring unknown keys. Trailing content, a wrong-typed field or an
  /// out-of-range number is a ParseError naming the field.
  static Result<FaultPlan> FromJson(const std::string& json);
  /// The same, from a parsed object (a trace header's `fault_plan`).
  static Result<FaultPlan> FromJson(const JsonValue& root);

  /// Knobs for Random(); probabilities are per-link (or per-plan for
  /// partition/crash) chances that the corresponding fault appears at all.
  struct RandomConfig {
    double horizon_s = 60;        ///< Faults fall inside [t_min_s, horizon_s).
    double t_min_s = 0.5;
    double flap_prob = 0.5;
    double max_flap_s = 6;
    double loss_prob = 0.5;
    double max_loss = 0.3;
    double dup_prob = 0.25;
    double max_dup = 0.2;
    double reorder_prob = 0.25;
    double max_reorder_s = 0.02;
    double partition_prob = 0.2;
    double max_partition_s = 5;
    double crash_prob = 0.5;
    double max_down_s = 12;
    bool allow_no_restart = false;
    bool retain_warm_start = false;
  };

  /// Deterministically generate a plan for a topology: same (seed, nodes,
  /// links, config) always yields the same plan.
  static FaultPlan Random(uint64_t seed, size_t num_nodes,
                          const std::vector<std::pair<NodeId, NodeId>>& links,
                          const RandomConfig& config);
  static FaultPlan Random(uint64_t seed, size_t num_nodes,
                          const std::vector<std::pair<NodeId, NodeId>>& links) {
    return Random(seed, num_nodes, links, RandomConfig{});
  }
};

}  // namespace cologne::net

#endif  // COLOGNE_NET_FAULT_PLAN_H_
