// The wire unit of the simulated network: a tuple-delta message, and the
// packet an arrival event carries it in.
#ifndef COLOGNE_NET_MESSAGE_H_
#define COLOGNE_NET_MESSAGE_H_

#include <cstdint>
#include <string>

#include "common/value.h"

namespace cologne::net {

/// A tuple-delta message: table name + row + sign (+1 insert / -1 delete).
/// This is the only wire format the declarative networking engine needs.
struct Message {
  std::string table;
  Row row;
  int sign = 1;
  /// Sender incarnation (bumped when a node restarts after a crash); the
  /// runtime drops deliveries from stale incarnations.
  uint32_t epoch = 0;
  /// Virtual send time, stamped by Network::Send. Receivers that resynced
  /// at time T drop superseded ordinary messages sent at or before T: their
  /// content is already covered by the send-log replay.
  double sent_s = 0;
  /// Carried over the reliable channel. In legacy mode (reliable transport
  /// off) such sends skip drop faults and jitter; in reliable transport
  /// mode they are sequenced, retransmitted and delivered FIFO.
  bool reliable = false;
  /// Anti-entropy replay payload (crash-recovery / resync state replay),
  /// set by runtime::System. Replay content supersedes ordinary in-flight
  /// messages; the runtime's floor fencing keys off this flag.
  bool replay = false;
  /// Reliable-channel sequence number (0 = unsequenced datagram). For
  /// packets of table kAckTable this is the cumulative acknowledgement.
  uint64_t seq = 0;

  /// Approximate wire size: 20-byte UDP/IP-ish header + payload (+8 when
  /// sequenced by the reliable channel).
  size_t WireSize() const;
};

/// One transmission in flight, stored inline in its arrival event.
struct Packet {
  Message msg;
  uint32_t link = 0;  ///< Directed link it travels (Network's numbering).
  uint32_t size = 0;  ///< Wire bytes, fixed at transmission.
  /// Trace tag of the transmission ("", "replay", "rto", "ack", "dup", ...).
  const char* detail = "";
};

}  // namespace cologne::net

#endif  // COLOGNE_NET_MESSAGE_H_
