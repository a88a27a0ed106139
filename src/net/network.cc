#include "net/network.h"

#include <algorithm>

#include "common/strings.h"
#include "net/reliable_channel.h"

namespace cologne::net {

size_t Message::WireSize() const {
  size_t n = 20 + table.size() + 1;  // header + table name + sign byte
  if (seq != 0) n += 8;              // reliable-channel sequence number
  for (const Value& v : row) n += v.WireSize();
  return n;
}

Network::Network(Simulator* sim, uint64_t seed) : sim_(sim), rng_(seed) {
  channel_ = std::make_unique<ReliableChannel>(this, sim, seed);
}

Network::~Network() = default;

void Network::SetReliableConfig(const ReliableConfig& config) {
  channel_->set_config(config);
}

NodeId Network::AddNode() {
  receivers_.emplace_back();
  stats_.emplace_back();
  adjacency_.emplace_back();
  return static_cast<NodeId>(receivers_.size() - 1);
}

Status Network::AddLink(NodeId a, NodeId b, LinkConfig config) {
  if (a == b) return Status::InvalidArgument("self-link not allowed");
  size_t n = receivers_.size();
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= n ||
      static_cast<size_t>(b) >= n) {
    return Status::InvalidArgument("link endpoint does not exist");
  }
  if (a > b) std::swap(a, b);
  const int existing = DirectedLink(a, b);
  if (existing >= 0) {
    links_[static_cast<size_t>(existing) >> 1].config = config;
    return Status::OK();
  }
  const auto id = static_cast<uint32_t>(links_.size());
  links_.push_back(Link{a, b, config});
  auto insert = [this, id](NodeId n, NodeId neighbor) {
    auto& adj = adjacency_[static_cast<size_t>(n)];
    adj.insert(std::lower_bound(adj.begin(), adj.end(),
                                std::make_pair(neighbor, id)),
               {neighbor, id});
  };
  insert(a, b);
  insert(b, a);
  return Status::OK();
}

int Network::DirectedLink(NodeId from, NodeId to) const {
  const auto& adj = adjacency_[static_cast<size_t>(from)];
  auto it = std::lower_bound(adj.begin(), adj.end(), to,
                             [](const std::pair<NodeId, uint32_t>& e,
                                NodeId n) { return e.first < n; });
  if (it == adj.end() || it->first != to) return -1;
  return static_cast<int>(2 * it->second + (from < to ? 0 : 1));
}

bool Network::HasLink(NodeId a, NodeId b) const {
  const size_t n = adjacency_.size();
  if (a < 0 || static_cast<size_t>(a) >= n) return false;
  return DirectedLink(a, b) >= 0;
}

std::vector<NodeId> Network::Neighbors(NodeId n) const {
  std::vector<NodeId> out;
  if (n < 0 || static_cast<size_t>(n) >= adjacency_.size()) return out;
  for (const auto& [neighbor, id] : adjacency_[static_cast<size_t>(n)]) {
    out.push_back(neighbor);
  }
  return out;
}

std::vector<std::pair<NodeId, NodeId>> Network::Links() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(links_.size());
  for (const Link& l : links_) out.emplace_back(l.a, l.b);
  std::sort(out.begin(), out.end());
  return out;
}

void Network::SetReceiver(NodeId n, Receiver r) {
  receivers_[static_cast<size_t>(n)] = std::move(r);
}

void Network::Emit(NetEvent::Kind kind, NodeId from, NodeId to,
                   const Message& msg, const char* detail) {
  if (!hook_) return;
  NetEvent ev;
  ev.kind = kind;
  ev.t = sim_->Now();
  ev.from = from;
  ev.to = to;
  ev.msg = &msg;
  ev.detail = detail;
  hook_(ev);
}

void Network::OnPacket(Packet& packet) {
  const NodeId from = From(packet.link), to = To(packet.link);
  TrafficStats& r = stats_[static_cast<size_t>(to)];
  ++r.messages_received;
  r.bytes_received += packet.size;
  const Message& msg = packet.msg;
  Emit(NetEvent::Kind::kDeliver, from, to, msg, packet.detail);
  if (reliable_transport_ && (msg.seq != 0 || msg.table == kAckTable)) {
    // Sequenced data and acks belong to the channel: it suppresses
    // duplicates, reassembles FIFO order, and hands in-order data to the
    // runtime receiver.
    channel_->OnArrival(packet.link, msg);
    return;
  }
  Deliver(from, to, msg);
}

Status Network::Send(NodeId from, NodeId to, Message msg) {
  const size_t n = receivers_.size();
  if (from < 0 || to < 0 || static_cast<size_t>(from) >= n ||
      static_cast<size_t>(to) >= n) {
    return Status::InvalidArgument(
        StrFormat("send between node %d and node %d: no such node (%zu nodes)",
                  from, to, n));
  }
  if (from == to) {
    // Local delivery: no latency, no traffic accounting, no faults.
    if (receivers_[static_cast<size_t>(to)]) {
      sim_->Schedule(0.0, [this, from, to, m = std::move(msg)] {
        receivers_[static_cast<size_t>(to)](from, to, m);
      });
    }
    return Status::OK();
  }
  const int dlink = DirectedLink(from, to);
  if (dlink < 0) {
    return Status::InvalidArgument(
        StrFormat("no link between node %d and node %d", from, to));
  }
  msg.sent_s = sim_->Now();
  if (reliable_transport_ && msg.reliable) {
    // Real reliability: the channel sequences the message and calls back
    // into Transmit for the first transmission and every retransmission.
    channel_->Send(static_cast<uint32_t>(dlink), std::move(msg));
    return Status::OK();
  }
  const char* detail = msg.replay ? "replay" : "";
  Transmit(static_cast<uint32_t>(dlink), std::move(msg), detail);
  return Status::OK();
}

void Network::Transmit(uint32_t dlink, Message msg, const char* detail) {
  const NodeId from = From(dlink), to = To(dlink);
  const LinkConfig& cfg = links_[dlink >> 1].config;
  const auto size = static_cast<uint32_t>(msg.WireSize());
  double now = sim_->Now();
  TrafficStats& s = stats_[static_cast<size_t>(from)];
  ++s.messages_sent;
  s.bytes_sent += size;
  Emit(NetEvent::Kind::kSend, from, to, msg, detail);

  // Fault evaluation (one link-fault lookup per transmission). In legacy
  // mode, reliable reconciliation traffic is immune to drop faults and
  // reorder jitter — the orchestrated anti-entropy protocol depends on
  // in-order delivery — but still pays latency and serialization. With the
  // reliable transport enabled nothing is immune: sequenced packets are
  // dropped/duplicated/jittered like any datagram and the channel's
  // retransmission and reassembly recover. The draw order (loss,
  // fault-loss, jitter, dup) is fixed so identical plans consume the RNG
  // stream identically.
  const bool immune = msg.reliable && !reliable_transport_;
  const net::LinkFault* lf = fault_plan_.FindLink(from, to);
  const char* drop_reason = nullptr;
  bool severed = (lf != nullptr && lf->DownAt(now))
                     ? (drop_reason = "link_down", true)
                     : fault_plan_.PartitionedAt(from, to, now)
                           ? (drop_reason = "partition", true)
                           : false;
  if (severed && !immune) {
    ++s.messages_dropped;
    Emit(NetEvent::Kind::kDrop, from, to, msg, drop_reason);
    return;
  }
  if (cfg.drop_prob > 0 && rng_.Bernoulli(cfg.drop_prob)) {
    if (!immune) {
      ++s.messages_dropped;
      Emit(NetEvent::Kind::kDrop, from, to, msg, "loss");
      return;
    }
  }
  double fault_loss = lf == nullptr ? 0 : lf->LossAt(now);
  if (fault_loss > 0 && rng_.Bernoulli(fault_loss) && !immune) {
    ++s.messages_dropped;
    Emit(NetEvent::Kind::kDrop, from, to, msg, "loss");
    return;
  }
  double delay =
      cfg.latency_s + static_cast<double>(size) * 8.0 / cfg.bandwidth_bps;
  double jitter_cap = lf == nullptr ? 0 : lf->ReorderAt(now);
  if (jitter_cap > 0) {
    double jitter = rng_.UniformDouble(0, jitter_cap);
    if (!immune) delay += jitter;
  }
  double dup_prob = lf == nullptr ? 0 : lf->DupAt(now);
  bool duplicate = dup_prob > 0 && rng_.Bernoulli(dup_prob) && !immune;
  Message copy;
  if (duplicate) {
    // The copy follows the original at the same timestamp (FIFO tie-break),
    // so receivers observe a back-to-back duplicate. The duplicate pays
    // bandwidth like any other transmission.
    ++s.messages_sent;
    s.bytes_sent += size;
    Emit(NetEvent::Kind::kDup, from, to, msg, "");
    copy = msg;
  }
  sim_->ScheduleArrival(delay, this,
                        Packet{std::move(msg), dlink, size, detail});
  if (duplicate) {
    sim_->ScheduleArrival(delay, this,
                          Packet{std::move(copy), dlink, size, "dup"});
  }
}

void Network::ResetStats() {
  for (TrafficStats& s : stats_) s = TrafficStats{};
}

uint64_t Network::TotalDropped() const {
  uint64_t total = 0;
  for (const TrafficStats& s : stats_) total += s.messages_dropped;
  return total;
}

}  // namespace cologne::net
