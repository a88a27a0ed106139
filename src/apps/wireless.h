// Wireless channel-selection scenario (paper Sections 3.2, 6.4, Appendix A):
// a 30-node grid testbed substitute with a conflict-graph throughput model,
// five channel-assignment protocols, and policy variations for Figure 7.
#ifndef COLOGNE_APPS_WIRELESS_H_
#define COLOGNE_APPS_WIRELESS_H_

#include <map>
#include <memory>
#include <set>
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

/// Channel-assignment protocols of Figure 6.
enum class WirelessProtocol {
  k1Interface,   ///< One interface: every link on channel 1.
  kIdenticalCh,  ///< Identical channel set on every node; greedy link pick.
  kCentralized,  ///< Appendix A.2 Colog program, single solver node.
  kDistributed,  ///< Appendix A.3 per-link negotiation.
  kCrossLayer,   ///< Distributed channels + interference-aware routing.
};

const char* WirelessProtocolName(WirelessProtocol p);

/// Scenario shape; defaults mirror the ORBIT deployment (30 nodes, 8 m x 5 m
/// grid, two 802.11 interfaces per node). The transport/observability/solver
/// knobs shared by every driver live in the CommonConfig base (distributed
/// protocols only — the centralized COP runs a single standalone instance).
struct WirelessConfig : CommonConfig {
  WirelessConfig() { seed = 3; }

  int grid_w = 6;
  int grid_h = 5;
  int num_channels = 8;
  int f_mindiff = 2;
  int interfaces = 2;
  int interference_hops = 2;    ///< 2-hop (default) or 1-hop model.
  double restrict_frac = 0.0;   ///< Fraction of channels blocked per node
                                ///< (primary users), Figure 7's policy.
  int num_flows = 15;
  double link_capacity_mbps = 18.0;  ///< Nominal per-link rate.
  double solver_time_ms = 4000;      ///< Centralized COP budget.
  double link_solve_ms = 200;        ///< Per-link COP budget (distributed).
  /// Injected faults for the distributed protocols (empty = happy path).
  net::FaultPlan fault_plan;
  /// Record deliveries/drops/faults/solves of distributed runs (optional).
  runtime::TraceRecorder* trace = nullptr;
};

/// An undirected link (a < b).
using Link = std::pair<int, int>;

/// Result of running a channel-assignment protocol. Only the distributed
/// protocols fill the NegotiationStats counters (converge_time_s is the
/// centralized solve time); abandoned_links counts links left without a
/// channel.
struct ChannelAssignment : NegotiationStats {
  std::map<Link, int> channel;   ///< Per undirected link.
  double per_node_kBps = 0;      ///< Distributed protocols only.
  double total_solve_ms = 0;
  double interference_cost = 0;  ///< Conflicting adjacent link pairs.
};

/// \brief The wireless testbed model: topology, interference, throughput.
class WirelessScenario {
 public:
  explicit WirelessScenario(const WirelessConfig& config);

  int num_nodes() const { return config_.grid_w * config_.grid_h; }
  const std::vector<Link>& links() const { return links_; }
  const std::set<int>& primary_channels(int node) const {
    return primary_[static_cast<size_t>(node)];
  }

  /// Assign channels with the given protocol.
  Result<ChannelAssignment> AssignChannels(WirelessProtocol protocol);

  /// Aggregate network throughput (Mbps) when every flow offers `rate_mbps`,
  /// under the given assignment. `interference_aware_routing` enables the
  /// cross-layer route selection.
  double AggregateThroughput(const ChannelAssignment& assignment,
                             double rate_mbps,
                             bool interference_aware_routing) const;

  /// Number of interfering link pairs under the assignment (the COP
  /// objective, for validation).
  double InterferenceCost(const std::map<Link, int>& channel) const;

 private:
  bool Interferes(const Link& a, const Link& b) const;
  std::vector<int> RoutePath(int src, int dst,
                             const std::map<Link, int>& channel,
                             bool interference_aware) const;
  Result<ChannelAssignment> RunCentralized();
  Result<ChannelAssignment> RunDistributed();
  ChannelAssignment RunIdentical();

  WirelessConfig config_;
  Rng rng_;
  std::vector<Link> links_;
  std::vector<std::vector<int>> neighbors_;
  std::vector<std::vector<size_t>> incident_;    // link indexes per node
  std::vector<std::set<int>> primary_;           // blocked channels per node
  std::vector<std::pair<int, int>> flows_;
};

}  // namespace cologne::apps

#endif  // COLOGNE_APPS_WIRELESS_H_
