// Reliable FIFO transport over the lossy datagram network.
//
// The original Cologne deployments (ACloud over ns-3, FTS on PlanetLab)
// assumed messaging that survives loss. This layer provides it as a real
// protocol rather than simulator magic: per-directed-link sender/receiver
// state machines with sequence numbers, cumulative acknowledgements,
// seeded-RTO retransmission with exponential backoff, fast retransmit on
// duplicate acks, receiver-side duplicate suppression, and in-order (FIFO)
// delivery through a reorder buffer. Data packets and acks both ride the
// underlying lossy network — they pay latency, bandwidth, loss, duplication
// and jitter like any other message; retransmission recovers.
//
// All timers and backoff jitter are driven by the discrete-event simulator
// and a seeded RNG, so runs remain bit-for-bit reproducible (the trace
// determinism contract of runtime/trace_replay.h).
#ifndef COLOGNE_NET_RELIABLE_CHANNEL_H_
#define COLOGNE_NET_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "net/simulator.h"

namespace cologne::net {

/// Table name of acknowledgement control packets. Acks are consumed by the
/// channel and never reach the runtime; they appear in traces as ordinary
/// send/deliver events of this pseudo-table.
inline constexpr const char* kAckTable = "@ack";

/// Table name of skip control packets: when a sender abandons a payload
/// after max_attempts, it keeps the packet's sequence slot alive as a skip
/// marker (retransmitted and acked like data) so the receiver's FIFO
/// stream advances past the hole instead of wedging forever. Consumed by
/// the channel; delivers nothing to the runtime.
inline constexpr const char* kSkipTable = "@skip";

/// Protocol knobs. Defaults suit the simulated topologies (1 ms links):
/// the initial RTO comfortably exceeds one RTT, backoff covers multi-second
/// down windows, and the attempt cap bounds simulation time even against a
/// pathological permanent blackhole.
struct ReliableConfig {
  double rto_initial_s = 0.05;   ///< First retransmission timeout.
  double rto_backoff = 2.0;      ///< Multiplier applied per timer expiry.
  double rto_max_s = 2.0;        ///< Backoff ceiling.
  /// Seeded multiplicative jitter on each armed timeout (desynchronizes
  /// retransmission bursts across links, deterministically).
  double rto_jitter_frac = 0.1;
  int fast_retx_dup_acks = 3;    ///< Dup-ack threshold for fast retransmit.
  /// Give up on a payload after this many transmissions (safety valve:
  /// finite fault windows never exhaust it, but it bounds simulation time).
  /// The payload is dropped with reason "rto_exhausted" and its sequence
  /// slot degrades into a kSkipTable marker that keeps retransmitting (with
  /// its own attempt budget) so the receiver's FIFO stream advances past
  /// the hole once connectivity returns; only a truly permanent blackhole
  /// — where nothing flows anyway — also exhausts the skip and wedges the
  /// stream.
  int max_attempts = 64;
  /// Cap on buffered out-of-order packets per directed link; beyond it the
  /// newest arrival is discarded (a later retransmission re-delivers it).
  size_t max_reorder_buffer = 4096;
};

/// Aggregate protocol counters (across all links).
struct ChannelStats {
  uint64_t data_sent = 0;         ///< First transmissions of data packets.
  uint64_t retransmits = 0;       ///< RTO-driven retransmissions.
  uint64_t fast_retransmits = 0;  ///< Dup-ack-driven retransmissions.
  uint64_t acks_sent = 0;
  uint64_t dup_data = 0;          ///< Duplicate data suppressed at receivers.
  uint64_t reordered = 0;         ///< Arrivals buffered for FIFO reassembly.
  uint64_t gave_up = 0;           ///< Packets abandoned after max_attempts.
};

/// \brief Per-link reliable FIFO state machines (see file comment).
///
/// Owned by net::Network; not used directly by the runtime. The channel is
/// "NIC-level": its sequence state survives node crash/restart (the runtime
/// layers epoch fencing and journal replay on top).
class ReliableChannel {
 public:
  ReliableChannel(Network* net, Simulator* sim, uint64_t seed,
                  ReliableConfig config = {})
      : net_(net),
        sim_(sim),
        rng_(SplitMix64(seed ^ 0x52454C49ull)),
        config_(config) {}

  void set_config(const ReliableConfig& config) { config_ = config; }
  const ReliableConfig& config() const { return config_; }

  /// Sequence `msg` on directed link `dlink`'s stream, remember it for
  /// retransmission, and transmit. `msg.seq` must be 0 (unsequenced).
  void Send(uint32_t dlink, Message msg);

  /// Handle the arrival over `dlink` of a sequenced data packet
  /// (`msg.seq > 0`) or an ack (`msg.table == kAckTable`). In-order data —
  /// including any buffered successors it releases — is delivered to the
  /// runtime receiver; every data arrival triggers a cumulative ack back.
  void OnArrival(uint32_t dlink, const Message& msg);

  const ChannelStats& stats() const { return stats_; }

  /// Introspection for tests: sender/receiver state of one directed link.
  struct LinkState {
    uint64_t next_seq = 1;        ///< Sender: next sequence number to assign.
    uint64_t acked = 0;           ///< Sender: cumulative ack received.
    size_t in_flight = 0;         ///< Sender: unacknowledged packets.
    uint64_t delivered = 0;       ///< Receiver: cumulative in-order seq.
    size_t reorder_buffered = 0;  ///< Receiver: packets awaiting a gap fill.
  };
  LinkState StateOf(NodeId from, NodeId to) const;

 private:
  struct Pending {
    Message msg;
    int attempts = 0;
  };
  struct SenderState {
    uint64_t next_seq = 1;
    uint64_t acked = 0;
    int dup_acks = 0;
    double rto_s = 0;             ///< Current (backed-off) timeout.
    EventId timer = 0;            ///< 0 when no timer is armed.
    /// Unacked packets from window[head] on, with consecutive sequence
    /// numbers ending at next_seq - 1 (only the oldest ever leaves).
    std::vector<Pending> window;
    size_t head = 0;

    size_t in_flight() const { return window.size() - head; }
    Pending& oldest() { return window[head]; }
    void PopOldest();
  };
  struct ReceiverState {
    uint64_t delivered = 0;
    /// Buffered out-of-order packets, ascending by seq, all beyond
    /// delivered + 1.
    std::vector<Message> reorder;
  };

  // States grow on first use of a directed link, so a network that never
  // sends reliably holds none.
  SenderState& Sender(uint32_t dlink);
  ReceiverState& Receiver(uint32_t dlink);

  void ArmTimer(uint32_t dlink, SenderState& ss);
  void CancelTimer(SenderState& ss);
  void OnTimer(uint32_t dlink);
  /// Retransmit the lowest unacked packet of `ss` (or give it up once its
  /// attempt budget is spent). Returns false when the window is empty.
  bool RetransmitOldest(uint32_t dlink, SenderState& ss, const char* detail);
  void OnAck(uint32_t dlink, const Message& msg);
  void OnData(uint32_t dlink, const Message& msg);
  /// Ack `cumulative` back over the reverse of data link `dlink`.
  void SendAck(uint32_t dlink, uint64_t cumulative);
  void Emit(NetEvent::Kind kind, uint32_t dlink, const Message& msg,
            const char* detail);

  Network* net_;
  Simulator* sim_;
  Rng rng_;
  ReliableConfig config_;
  ChannelStats stats_;
  std::vector<SenderState> senders_;      // by directed link
  std::vector<ReceiverState> receivers_;  // by directed link
};

}  // namespace cologne::net

#endif  // COLOGNE_NET_RELIABLE_CHANNEL_H_
