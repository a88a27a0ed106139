// Message-passing network over the discrete-event simulator.
//
// Models what the original Cologne used ns-3 for: UDP-style, per-link latency
// and (optional) loss, with per-node byte counters for the bandwidth
// measurements in Figure 5 of the paper. A FaultPlan (fault_plan.h) layers
// deterministic link flaps, partitions, and loss/duplication/reordering
// windows on top; every send/deliver/drop is observable through the event
// hook so runs can be traced and replayed bit-for-bit.
//
// Messages marked `reliable` are carried one of two ways:
//  * Legacy mode (default): the send skips drop faults and reorder jitter —
//    simulator magic, good enough for the orchestrated anti-entropy replay.
//  * Reliable transport mode (SetReliableTransport(true), the Colog
//    `param NET_RELIABLE` knob): the send rides the real retransmission /
//    FIFO protocol of net/reliable_channel.h and pays every fault like any
//    other packet; sequence numbers, cumulative acks and seeded-RTO
//    retransmission recover from loss, and delivery is in order per
//    directed link.
#ifndef COLOGNE_NET_NETWORK_H_
#define COLOGNE_NET_NETWORK_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"
#include "net/fault_plan.h"
#include "net/message.h"
#include "net/simulator.h"

namespace cologne::net {

class ReliableChannel;
struct ReliableConfig;

/// Per-link transmission parameters.
struct LinkConfig {
  double latency_s = 0.001;        ///< One-way propagation delay.
  double bandwidth_bps = 10e6;     ///< 10 Mbps, matching the paper's ns-3 setup.
  double drop_prob = 0.0;          ///< Probability a message is lost.
};

/// Per-node traffic counters.
struct TrafficStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_dropped = 0;   ///< In-flight losses, counted at the sender.
};

/// One observable network transition, surfaced through Network's event hook
/// (the runtime's TraceRecorder serializes these into the canonical trace).
struct NetEvent {
  enum class Kind { kSend, kDeliver, kDrop, kDup };
  Kind kind = Kind::kSend;
  double t = 0;
  NodeId from = 0;
  NodeId to = 0;
  const Message* msg = nullptr;
  /// Drop reason ("loss", "link_down", "partition", and with the reliable
  /// transport "dup_seq" / "rto_exhausted") or send/deliver detail
  /// ("replay" for anti-entropy payloads, "rto" / "fast_rto" for channel
  /// retransmissions, "ack" for acknowledgements, "dup" for fault-injected
  /// duplicates); may be empty.
  const char* detail = "";
};

/// \brief A static topology of nodes and bidirectional links carrying
/// tuple-delta messages.
///
/// Each link gets a dense id in AddLink order; its two directions are the
/// directed links 2*id (from the lower node id) and 2*id+1. Packets in
/// flight and the reliable channel's per-link state are keyed by directed
/// link, so a hop costs array indexing, not a tree lookup.
class Network : private PacketSink {
 public:
  explicit Network(Simulator* sim, uint64_t seed = 1);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Add a node; ids are dense and returned in creation order.
  NodeId AddNode();
  size_t num_nodes() const { return receivers_.size(); }

  /// Add a bidirectional link between existing nodes a and b (re-adding an
  /// existing link replaces its config).
  Status AddLink(NodeId a, NodeId b, LinkConfig config = {});
  bool HasLink(NodeId a, NodeId b) const;
  /// Neighbors of `n`, sorted ascending.
  std::vector<NodeId> Neighbors(NodeId n) const;
  /// All (a, b) link pairs with a < b.
  std::vector<std::pair<NodeId, NodeId>> Links() const;

  /// Delivery callback: (from, to, message).
  using Receiver = std::function<void(NodeId, NodeId, const Message&)>;
  void SetReceiver(NodeId n, Receiver r);

  /// Install a fault plan; link-level windows apply from the current virtual
  /// time on. Crash events are interpreted by runtime::System, not here.
  void SetFaultPlan(FaultPlan plan) { fault_plan_ = std::move(plan); }
  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Observer for send/deliver/drop/duplicate transitions (tracing).
  using EventHook = std::function<void(const NetEvent&)>;
  void SetEventHook(EventHook hook) { hook_ = std::move(hook); }

  /// Route messages marked `reliable` through the real retransmission/FIFO
  /// protocol (net/reliable_channel.h) instead of the legacy fault-immunity
  /// shortcut. Runtime plumbing: System enables this when the program sets
  /// `param NET_RELIABLE = 1` (or System::Options::net_reliable).
  void SetReliableTransport(bool on) { reliable_transport_ = on; }
  bool reliable_transport() const { return reliable_transport_; }
  /// The channel state machines (protocol counters, per-link introspection).
  ReliableChannel& channel() { return *channel_; }
  const ReliableChannel& channel() const { return *channel_; }
  /// Replace the channel's protocol knobs (tests tighten RTOs and caps).
  void SetReliableConfig(const ReliableConfig& config);

  /// Send `msg` from `from` to neighbor `to`. Self-sends deliver with zero
  /// latency. Sends to non-neighbors or to nodes that do not exist fail
  /// (Cologne rules only ever communicate along links). Fault-plan drops
  /// return OK, like link loss.
  Status Send(NodeId from, NodeId to, Message msg);

  const TrafficStats& StatsOf(NodeId n) const {
    return stats_[static_cast<size_t>(n)];
  }
  void ResetStats();

  /// Sum of messages_dropped across all nodes.
  uint64_t TotalDropped() const;

 private:
  friend class ReliableChannel;

  struct Link {
    NodeId a;  ///< The lower endpoint.
    NodeId b;
    LinkConfig config;
  };

  /// Directed link id of `from` -> `to`, or -1 without a link.
  int DirectedLink(NodeId from, NodeId to) const;
  NodeId From(uint32_t dlink) const {
    const Link& l = links_[dlink >> 1];
    return (dlink & 1) != 0 ? l.b : l.a;
  }
  NodeId To(uint32_t dlink) const {
    const Link& l = links_[dlink >> 1];
    return (dlink & 1) != 0 ? l.a : l.b;
  }
  size_t num_directed_links() const { return 2 * links_.size(); }

  void Emit(NetEvent::Kind kind, NodeId from, NodeId to, const Message& msg,
            const char* detail);
  /// One wire transmission over `dlink`: fault evaluation,
  /// latency/serialization delay, then an arrival event at the far end.
  /// Used for first sends, retransmissions and acks alike; `msg.sent_s`
  /// must already be stamped.
  void Transmit(uint32_t dlink, Message msg, const char* detail);
  /// A packet reached its far end: account it, then either hand it to the
  /// reliable channel (sequenced data / acks) or deliver it to the runtime
  /// receiver.
  void OnPacket(Packet& packet) override;
  void Deliver(NodeId from, NodeId to, const Message& msg) {
    const Receiver& r = receivers_[static_cast<size_t>(to)];
    if (r) r(from, to, msg);
  }

  Simulator* sim_;
  Rng rng_;
  bool reliable_transport_ = false;
  std::unique_ptr<ReliableChannel> channel_;
  std::vector<Receiver> receivers_;
  std::vector<TrafficStats> stats_;
  std::vector<Link> links_;  // by link id
  /// Per node: (neighbor, link id), ascending by neighbor.
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> adjacency_;
  FaultPlan fault_plan_;
  EventHook hook_;
};

}  // namespace cologne::net

#endif  // COLOGNE_NET_NETWORK_H_
