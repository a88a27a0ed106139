#include "net/reliable_channel.h"

#include <algorithm>

namespace cologne::net {
namespace {

// The reverse direction of a directed link (Network numbers the two
// directions of link i as 2i and 2i+1).
uint32_t Reverse(uint32_t dlink) { return dlink ^ 1u; }

}  // namespace

void ReliableChannel::SenderState::PopOldest() {
  window[head] = Pending{};
  if (++head == window.size()) {
    window.clear();
    head = 0;
  } else if (head >= 32 && 2 * head >= window.size()) {
    // Compact once the dead prefix outweighs the live packets.
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

ReliableChannel::SenderState& ReliableChannel::Sender(uint32_t dlink) {
  if (dlink >= senders_.size()) senders_.resize(net_->num_directed_links());
  return senders_[dlink];
}

ReliableChannel::ReceiverState& ReliableChannel::Receiver(uint32_t dlink) {
  if (dlink >= receivers_.size()) {
    receivers_.resize(net_->num_directed_links());
  }
  return receivers_[dlink];
}

void ReliableChannel::Emit(NetEvent::Kind kind, uint32_t dlink,
                           const Message& msg, const char* detail) {
  net_->Emit(kind, net_->From(dlink), net_->To(dlink), msg, detail);
}

void ReliableChannel::Send(uint32_t dlink, Message msg) {
  SenderState& ss = Sender(dlink);
  if (ss.rto_s == 0) ss.rto_s = config_.rto_initial_s;
  msg.seq = ss.next_seq++;
  const char* detail = msg.replay ? "replay" : "";
  ss.window.push_back(Pending{msg, 1});
  ++stats_.data_sent;
  net_->Transmit(dlink, std::move(msg), detail);
  if (ss.timer == 0) ArmTimer(dlink, ss);
}

void ReliableChannel::ArmTimer(uint32_t dlink, SenderState& ss) {
  // Seeded multiplicative jitter desynchronizes retransmission bursts across
  // links while staying deterministic (drawn in simulator-event order).
  double rto = ss.rto_s * (1.0 + config_.rto_jitter_frac * rng_.UniformDouble());
  ss.timer = sim_->Schedule(rto, [this, dlink] { OnTimer(dlink); });
}

void ReliableChannel::CancelTimer(SenderState& ss) {
  if (ss.timer != 0) {
    sim_->Cancel(ss.timer);
    ss.timer = 0;
  }
}

bool ReliableChannel::RetransmitOldest(uint32_t dlink, SenderState& ss,
                                       const char* detail) {
  while (ss.in_flight() > 0) {
    Pending& p = ss.oldest();
    if (p.attempts >= config_.max_attempts) {
      // Safety valve: abandon the payload so simulations terminate even
      // against a permanent blackhole. Finite fault windows never get
      // here. The sequence slot must not just vanish — the receiver's
      // FIFO stream would wedge on the hole forever — so it degrades into
      // a skip marker with a fresh attempt budget; once the marker (or a
      // later duplicate of it) gets through, the stream resynchronizes.
      // A skip that itself exhausts its budget is truly unreachable:
      // erase it (nothing flows on such a link anyway).
      if (p.msg.table == kSkipTable) {
        // The marker's budget counts toward the stream teardown, not
        // another abandoned payload.
        ss.PopOldest();
        continue;
      }
      ++stats_.gave_up;
      Emit(NetEvent::Kind::kDrop, dlink, p.msg, "rto_exhausted");
      uint64_t seq = p.msg.seq;
      p.msg = Message{};
      p.msg.table = kSkipTable;
      p.msg.seq = seq;
      p.msg.reliable = true;
      p.attempts = 0;
    }
    ++p.attempts;
    net_->Transmit(dlink, p.msg, detail);
    return true;
  }
  return false;
}

void ReliableChannel::OnTimer(uint32_t dlink) {
  SenderState& ss = senders_[dlink];
  ss.timer = 0;
  if (ss.in_flight() == 0) return;
  if (!RetransmitOldest(dlink, ss, "rto")) return;  // everything gave up
  ++stats_.retransmits;  // counted only when something actually went out
  ss.rto_s = std::min(ss.rto_s * config_.rto_backoff, config_.rto_max_s);
  ArmTimer(dlink, ss);
}

void ReliableChannel::SendAck(uint32_t dlink, uint64_t cumulative) {
  // Acks are plain datagrams: never sequenced, never retransmitted (a lost
  // ack is repaired by the data retransmission it would have suppressed).
  Message ack;
  ack.table = kAckTable;
  ack.seq = cumulative;
  ++stats_.acks_sent;
  net_->Transmit(Reverse(dlink), std::move(ack), "ack");
}

void ReliableChannel::OnArrival(uint32_t dlink, const Message& msg) {
  if (msg.table == kAckTable) {
    // An ack travels from the data receiver back to the data sender, so the
    // stream it acknowledges runs the other way.
    OnAck(Reverse(dlink), msg);
    return;
  }
  OnData(dlink, msg);
}

void ReliableChannel::OnAck(uint32_t dlink, const Message& msg) {
  if (dlink >= senders_.size()) return;  // stray ack for an unknown stream
  SenderState& ss = senders_[dlink];
  if (ss.next_seq == 1) return;  // nothing ever sent on this stream
  uint64_t a = msg.seq;
  if (a > ss.acked) {
    // Progress: slide the window, reset backoff, restart the timer for
    // whatever is still outstanding.
    ss.acked = a;
    ss.dup_acks = 0;
    while (ss.in_flight() > 0 && ss.oldest().msg.seq <= a) ss.PopOldest();
    ss.rto_s = config_.rto_initial_s;
    CancelTimer(ss);
    if (ss.in_flight() > 0) ArmTimer(dlink, ss);
    return;
  }
  if (a == ss.acked && ss.in_flight() > 0) {
    // Duplicate cumulative ack: the receiver saw something beyond a gap.
    if (++ss.dup_acks >= config_.fast_retx_dup_acks) {
      ss.dup_acks = 0;
      ++stats_.fast_retransmits;
      RetransmitOldest(dlink, ss, "fast_rto");
    }
  }
}

void ReliableChannel::OnData(uint32_t dlink, const Message& msg) {
  ReceiverState& rs = Receiver(dlink);
  const NodeId from = net_->From(dlink), to = net_->To(dlink);
  if (msg.seq <= rs.delivered) {
    // Already delivered (network duplication or a retransmission racing its
    // ack): suppress, but re-ack in case the previous ack was lost.
    ++stats_.dup_data;
    Emit(NetEvent::Kind::kDrop, dlink, msg, "dup_seq");
    SendAck(dlink, rs.delivered);
    return;
  }
  if (msg.seq == rs.delivered + 1) {
    // In order: deliver, then drain any buffered successors (FIFO
    // release). Skip markers advance the stream without delivering — the
    // sender abandoned that payload. Delivery may send (growing other
    // links' sender states) but never re-enters this receiver.
    rs.delivered = msg.seq;
    if (msg.table != kSkipTable) net_->Deliver(from, to, msg);
    size_t released = 0;
    while (released < rs.reorder.size() &&
           rs.reorder[released].seq == rs.delivered + 1) {
      rs.delivered = rs.reorder[released].seq;
      const Message& next = rs.reorder[released++];
      if (next.table != kSkipTable) net_->Deliver(from, to, next);
    }
    rs.reorder.erase(
        rs.reorder.begin(),
        rs.reorder.begin() + static_cast<std::ptrdiff_t>(released));
    SendAck(dlink, rs.delivered);
    return;
  }
  // A gap: buffer for reassembly and emit a duplicate ack so the sender can
  // fast-retransmit the missing packet.
  auto slot = std::lower_bound(
      rs.reorder.begin(), rs.reorder.end(), msg.seq,
      [](const Message& m, uint64_t seq) { return m.seq < seq; });
  if (slot != rs.reorder.end() && slot->seq == msg.seq) {
    ++stats_.dup_data;
    Emit(NetEvent::Kind::kDrop, dlink, msg, "dup_seq");
  } else if (rs.reorder.size() < config_.max_reorder_buffer) {
    rs.reorder.insert(slot, msg);
    ++stats_.reordered;
  }
  // else: buffer full; the retransmission path re-delivers it later.
  SendAck(dlink, rs.delivered);
}

ReliableChannel::LinkState ReliableChannel::StateOf(NodeId from,
                                                    NodeId to) const {
  LinkState out;
  if (!net_->HasLink(from, to)) return out;
  const auto dlink = static_cast<uint32_t>(net_->DirectedLink(from, to));
  if (dlink < senders_.size()) {
    const SenderState& ss = senders_[dlink];
    out.next_seq = ss.next_seq;
    out.acked = ss.acked;
    out.in_flight = ss.in_flight();
  }
  if (dlink < receivers_.size()) {
    out.delivered = receivers_[dlink].delivered;
    out.reorder_buffered = receivers_[dlink].reorder.size();
  }
  return out;
}

}  // namespace cologne::net
