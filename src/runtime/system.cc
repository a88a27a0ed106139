#include "runtime/system.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "net/reliable_channel.h"

namespace cologne::runtime {

System::System(const colog::CompiledProgram* program, size_t num_nodes,
               Options options)
    : program_(program), options_(options), net_(&sim_, options.seed) {
  // The program's knob or the runtime option turns on the reliable
  // transport; with it on, every engine-derived tuple is marked reliable and
  // survives loss without driver-level anti-entropy. The planner already
  // validated the knobs.
  colog::SystemKnobs knobs;
  (void)colog::SetKnobs(program_->knobs, nullptr, &knobs);
  net_reliable_ = options_.net_reliable || knobs.net_reliable;
  net_.SetReliableTransport(net_reliable_);
  obs_metrics_ = knobs.obs_metrics;
  if (obs_metrics_) {
    // Fixed buckets keep the histogram line stable across scenario sizes
    // (search-tree size per solve, in choice points).
    metrics_.DeclareHistogram("solve.nodes", {0, 10, 100, 1000, 10000});
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    NodeId id = net_.AddNode();
    nodes_.push_back(std::make_unique<Instance>(id, program_));
    nodes_.back()->set_template_cache(&templates_);
  }
  sent_log_.resize(num_nodes);
  rx_.resize(num_nodes);
  restart_pending_.assign(num_nodes, 0);
}

Status System::Init() {
  for (auto& node : nodes_) {
    COLOGNE_RETURN_IF_ERROR(node->Init());
    if (obs_metrics_) node->set_metrics(&metrics_);
    WireNode(node->id());
  }
  return Status::OK();
}

void System::SnapshotMetrics(uint64_t round) {
  if (!obs_metrics_) return;
  // Network totals are cumulative on the Network side; fold the delta into
  // the registry's monotone counters.
  auto sync = [this](const char* name, uint64_t total) {
    uint64_t cur = metrics_.counter(name);
    if (total > cur) metrics_.Add(name, total - cur);
  };
  uint64_t sent = 0, recv = 0, bytes_sent = 0, bytes_recv = 0;
  for (const auto& n : nodes_) {
    const net::TrafficStats& st = net_.StatsOf(n->id());
    sent += st.messages_sent;
    recv += st.messages_received;
    bytes_sent += st.bytes_sent;
    bytes_recv += st.bytes_received;
  }
  sync("net.msgs_sent", sent);
  sync("net.msgs_recv", recv);
  sync("net.bytes_sent", bytes_sent);
  sync("net.bytes_recv", bytes_recv);
  sync("net.dropped", net_.TotalDropped());
  if (net_reliable_) {
    const net::ChannelStats& ch = net_.channel().stats();
    sync("ch.data_sent", ch.data_sent);
    sync("ch.retransmits", ch.retransmits);
    sync("ch.fast_retransmits", ch.fast_retransmits);
    sync("ch.acks_sent", ch.acks_sent);
    sync("ch.dup_data", ch.dup_data);
    sync("ch.reordered", ch.reordered);
    sync("ch.gave_up", ch.gave_up);
  }
  metrics_.SetGauge("sim.executed", static_cast<int64_t>(sim_.executed()));
  metrics_.SetGauge("sim.pending", static_cast<int64_t>(sim_.pending()));
  if (trace_ != nullptr) trace_->Metrics(round, metrics_);
}

size_t System::TupleKeyHash::operator()(const TupleKey& k) const {
  return static_cast<size_t>(HashRow(k.second) ^
                             SplitMix64(static_cast<uint64_t>(k.first)));
}

void System::SendTuple(NodeId src, NodeId dst, datalog::TableId table,
                       const Row& row, int sign, bool reliable, bool replay) {
  net::Message msg;
  msg.table = node(src).engine().table_name(table);
  msg.row = row;
  msg.sign = sign;
  msg.epoch = node(src).epoch();
  msg.reliable = reliable;
  msg.replay = replay;
  Status s = net_.Send(src, dst, std::move(msg));
  if (!s.ok()) {
    COLOGNE_WARN(StrFormat("%s %d->%d: ", replay ? "send-log replay" : "send",
                           src, dst) +
                 s.ToString());
  }
}

void System::WireNode(NodeId id) {
  Instance& inst = node(id);
  // Outbound: engine-derived remote tuples enter the network, stamped with
  // the sender's incarnation epoch and journaled for anti-entropy replay.
  inst.engine().SetSender([this, id](NodeId dest, datalog::TableId table,
                                     const Row& row, int sign) {
    sent_log_[static_cast<size_t>(id)].push_back(
        SentRecord{dest, table, row, sign});
    SendTuple(id, dest, table, row, sign, net_reliable_, /*replay=*/false);
  });
  // Inbound: receiver-side fault policy (crash drop, epoch fence, duplicate
  // suppression), then apply the delta and run the local fixpoint.
  net_.SetReceiver(id, [this, id](NodeId from, NodeId,
                                  const net::Message& msg) {
    Instance& inst = this->node(id);
    if (inst.crashed()) {
      if (trace_ != nullptr) trace_->RxDrop(from, id, msg.table, "node_down");
      return;
    }
    datalog::Engine& engine = inst.engine();
    const datalog::TableId table = engine.FindTable(msg.table);
    if (table < 0) {
      COLOGNE_WARN("node " + std::to_string(id) +
                   " rx: unknown table: " + msg.table);
      return;
    }
    bool suppressed = false;
    if (from != id) {
      const Instance& src = this->node(from);
      if (msg.epoch != src.epoch()) {
        // A message from a previous incarnation of `from` (sent before its
        // crash, delivered after its restart) — fence it off.
        if (trace_ != nullptr) {
          trace_->RxDrop(from, id, msg.table, "stale_epoch");
        }
        return;
      }
      PeerState& ps = rx_[static_cast<size_t>(id)][from];
      if (!msg.replay && msg.sent_s <= ps.floor) {
        // In flight across a restart/resync: the send-log replay issued at
        // `floor` already carries this delta. Keyed on the replay flag, not
        // the reliable flag — under NET_RELIABLE every ordinary message is
        // reliable yet still superseded by a replay.
        if (trace_ != nullptr) {
          trace_->RxDrop(from, id, msg.table, "superseded");
        }
        return;
      }
      if (ps.epoch_seen != msg.epoch) {
        // First contact with a new incarnation outside the orchestrated
        // restart path (RestartNode rolls embedded into debt eagerly; this
        // covers direct Crash/Restart calls by tests).
        for (auto& [key, count] : ps.embedded) ps.debt[key] += count;
        ps.embedded.clear();
        ps.epoch_seen = msg.epoch;
      }
      TupleKey key(table, msg.row);
      if (msg.sign > 0) {
        if (!ps.debt.empty()) {
          auto it = ps.debt.find(key);
          if (it != ps.debt.end() && it->second > 0) {
            // Already embedded by the previous incarnation: pay off the
            // debt instead of inflating the derivation count.
            if (--it->second == 0) ps.debt.erase(it);
            suppressed = true;
          }
        }
        ++ps.embedded[std::move(key)];
      } else {
        auto it = ps.embedded.find(key);
        if (it != ps.embedded.end() && --it->second == 0) ps.embedded.erase(it);
      }
    }
    if (suppressed) {
      if (trace_ != nullptr) trace_->RxDrop(from, id, msg.table, "dedup");
      return;
    }
    Status s = engine.Apply(table, msg.row, msg.sign);
    if (s.ok()) s = engine.Flush();
    if (!s.ok()) {
      COLOGNE_WARN("node " + std::to_string(id) + " rx: " + s.ToString());
    }
  });
}

void System::ScheduleSolve(NodeId node_id, double delay_s,
                           std::function<void(const SolveOutput&)> on_done) {
  sim_.Schedule(delay_s, [this, node_id, on_done = std::move(on_done)] {
    Result<SolveOutput> r = node(node_id).Solve(SolveRequest{});
    if (!r.ok()) {
      COLOGNE_WARN("node " + std::to_string(node_id) +
                   " solve failed: " + r.status().ToString());
      return;
    }
    if (on_done) on_done(r.value());
  });
}

void System::SetTrace(TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    trace_->SetClock([this] { return sim_.Now(); });
  }
  for (auto& n : nodes_) n->set_trace(trace);
  net_.SetEventHook([this](const net::NetEvent& ev) {
    if (trace_ != nullptr) trace_->Net(ev);
  });
}

void System::ScheduleWindowMarkers(const net::FaultPlan& plan) {
  // Pure trace markers: they record window transitions but change no state,
  // so scheduling them unconditionally keeps traced and untraced runs on
  // the same event sequence.
  auto mark = [this](double t, const char* kind, std::string detail) {
    sim_.ScheduleAt(t, [this, kind, detail = std::move(detail)] {
      if (trace_ != nullptr) trace_->Fault(kind, detail);
    });
  };
  for (const net::LinkFault& f : plan.links) {
    std::string link = StrFormat("\"link\":\"%d-%d\"", f.a, f.b);
    for (const auto& w : f.down) {
      mark(w.t0, "link_down", link);
      mark(w.t1, "link_up", link);
    }
    for (const auto& w : f.loss) {
      mark(w.t0, "loss_on",
           link + StrFormat(",\"p\":%s", DoubleToShortestString(w.p).c_str()));
      mark(w.t1, "loss_off", link);
    }
    for (const auto& w : f.duplicate) {
      mark(w.t0, "dup_on",
           link + StrFormat(",\"p\":%s", DoubleToShortestString(w.p).c_str()));
      mark(w.t1, "dup_off", link);
    }
    for (const auto& w : f.reorder) {
      mark(w.t0, "reorder_on",
           link + StrFormat(",\"jitter\":%s",
                            DoubleToShortestString(w.p).c_str()));
      mark(w.t1, "reorder_off", link);
    }
  }
  for (const net::PartitionFault& part : plan.partitions) {
    std::string group = "\"group\":[";
    for (size_t i = 0; i < part.group.size(); ++i) {
      if (i) group += ',';
      group += StrFormat("%d", part.group[i]);
    }
    group += ']';
    mark(part.t0, "partition_on", group);
    mark(part.t1, "partition_off", group);
  }
}

Status System::ApplyFaultPlan(const net::FaultPlan& plan) {
  for (const net::CrashFault& c : plan.crashes) {
    if (c.node < 0 || static_cast<size_t>(c.node) >= nodes_.size()) {
      return Status::InvalidArgument(
          StrFormat("fault plan crashes unknown node %d", c.node));
    }
    if (c.restart_t >= 0 && c.restart_t < c.t) {
      return Status::InvalidArgument(
          StrFormat("fault plan restarts node %d before its crash", c.node));
    }
  }
  fault_plan_ = plan;
  net_.SetFaultPlan(plan);
  ScheduleWindowMarkers(plan);
  for (const net::CrashFault& c : plan.crashes) {
    sim_.ScheduleAt(c.t, [this, node = c.node] {
      Status s = CrashNode(node);
      if (!s.ok()) COLOGNE_WARN("crash injection: " + s.ToString());
    });
    if (c.restart_t >= 0) {
      restart_pending_[static_cast<size_t>(c.node)] = 1;
      sim_.ScheduleAt(c.restart_t,
                      [this, node = c.node, retain = c.retain_warm_start] {
        Status s = RestartNode(node, retain);
        if (!s.ok()) COLOGNE_WARN("restart injection: " + s.ToString());
      });
    }
  }
  return Status::OK();
}

Status System::CrashNode(NodeId id) {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) {
    return Status::InvalidArgument("unknown node");
  }
  Instance& inst = node(id);
  if (inst.crashed()) return Status::OK();
  if (trace_ != nullptr) {
    trace_->Fault("crash", StrFormat("\"node\":%d", id));
  }
  COLOGNE_RETURN_IF_ERROR(inst.Crash());
  // Everything this node had learned from peers is gone with its engine.
  rx_[static_cast<size_t>(id)].clear();
  return Status::OK();
}

Status System::RestartNode(NodeId id, bool retain_warm_start) {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) {
    return Status::InvalidArgument("unknown node");
  }
  Instance& inst = node(id);
  if (!inst.crashed()) return Status::OK();
  restart_pending_[static_cast<size_t>(id)] = 0;
  if (trace_ != nullptr) {
    trace_->Fault("restart",
                  StrFormat("\"node\":%d,\"retain_warm\":%d", id,
                            retain_warm_start ? 1 : 0));
  }
  // The new incarnation re-derives its contribution from scratch: roll every
  // peer's embedded view of this node into debt so re-sent tuples pay it
  // off instead of inflating counts.
  COLOGNE_RETURN_IF_ERROR(inst.Restart(retain_warm_start));
  double now = sim_.Now();
  for (size_t y = 0; y < nodes_.size(); ++y) {
    if (static_cast<NodeId>(y) == id) continue;
    auto it = rx_[y].find(id);
    if (it == rx_[y].end()) continue;
    PeerState& ps = it->second;
    for (auto& [key, count] : ps.embedded) ps.debt[key] += count;
    ps.embedded.clear();
    ps.epoch_seen = inst.epoch();
    ++ps.sync_gen;
  }
  // This node's send log described its previous incarnation's contribution;
  // the rebuild below regenerates the current one.
  sent_log_[static_cast<size_t>(id)].clear();
  WireNode(id);
  COLOGNE_RETURN_IF_ERROR(inst.ReplayBaseFacts());
  // Anti-entropy rejoin: every live peer replays what it ever shipped to
  // this node, chronologically, over the reliable channel. Ordinary
  // messages still in flight toward this node are superseded by the replay
  // and fenced via the floor timestamp.
  for (size_t y = 0; y < nodes_.size(); ++y) {
    NodeId peer = static_cast<NodeId>(y);
    if (peer == id || node(peer).crashed()) continue;
    PeerState& ps = rx_[static_cast<size_t>(id)][peer];
    ps.floor = now;
    ++ps.sync_gen;
    ReplaySentLog(peer, id, /*net_state=*/false);
  }
  // Reconciliation sweeps: once the re-derived and replayed sends have
  // landed, any debt still outstanding is state the sender no longer
  // stands behind.
  for (size_t y = 0; y < nodes_.size(); ++y) {
    NodeId peer = static_cast<NodeId>(y);
    if (peer == id) continue;
    ScheduleDebtReconcile(peer, id);  // peers' debt toward this node
    ScheduleDebtReconcile(id, peer);  // this node's debt toward peers
  }
  if (restart_hook_) restart_hook_(id);
  return Status::OK();
}

Status System::ResyncNode(NodeId id) {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) {
    return Status::InvalidArgument("unknown node");
  }
  if (node(id).crashed()) return Status::OK();
  double now = sim_.Now();
  for (size_t y = 0; y < nodes_.size(); ++y) {
    NodeId peer = static_cast<NodeId>(y);
    if (peer == id || node(peer).crashed()) continue;
    PeerState& ps = rx_[static_cast<size_t>(id)][peer];
    for (auto& [key, count] : ps.embedded) ps.debt[key] += count;
    ps.embedded.clear();
    ps.floor = now;
    ++ps.sync_gen;
    ReplaySentLog(peer, id, /*net_state=*/true);
    ScheduleDebtReconcile(id, peer);
  }
  return Status::OK();
}

void System::ReplaySentLog(NodeId src, NodeId dst, bool net_state) {
  auto send = [this, src, dst](datalog::TableId table, const Row& row,
                               int sign) {
    SendTuple(src, dst, table, row, sign, /*reliable=*/true, /*replay=*/true);
  };
  const auto& log = sent_log_[static_cast<size_t>(src)];
  if (!net_state) {
    for (const SentRecord& rec : log) {
      if (rec.dest == dst) send(rec.table, rec.row, rec.sign);
    }
    return;
  }
  // Net mode: per-row net counts plus the order of each row's latest
  // insertion, so keyed replacement at the receiver lands on the same
  // surviving row it did originally.
  std::map<TupleKey, int64_t> net;
  std::vector<TupleKey> inserts;  // may contain stale dups
  for (const SentRecord& rec : log) {
    if (rec.dest != dst) continue;
    TupleKey key(rec.table, rec.row);
    net[key] += rec.sign;
    if (rec.sign > 0) inserts.push_back(std::move(key));
  }
  // Keep only each row's last insertion, preserving relative order.
  std::set<TupleKey> seen;
  std::vector<const TupleKey*> order;
  for (auto it = inserts.rbegin(); it != inserts.rend(); ++it) {
    if (seen.insert(*it).second) order.push_back(&*it);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int64_t count = net[**it];
    for (int64_t k = 0; k < count; ++k) send((*it)->first, (*it)->second, +1);
  }
}

void System::ScheduleDebtReconcile(NodeId dst, NodeId src) {
  auto it = rx_[static_cast<size_t>(dst)].find(src);
  uint64_t gen = it == rx_[static_cast<size_t>(dst)].end()
                     ? 0
                     : it->second.sync_gen;
  sim_.Schedule(kReconcileDelayS, [this, dst, src, gen] {
    if (node(dst).crashed()) return;
    auto it = rx_[static_cast<size_t>(dst)].find(src);
    if (it == rx_[static_cast<size_t>(dst)].end()) return;
    PeerState& ps = it->second;
    // A newer restart/resync superseded this sweep; its own sweep follows.
    if (ps.sync_gen != gen || ps.debt.empty()) return;
    Instance& inst = node(dst);
    for (const auto& [key, count] : ps.debt) {
      for (int64_t k = 0; k < count; ++k) {
        Status s = inst.engine().Apply(key.first, key.second, -1);
        if (!s.ok()) COLOGNE_WARN("debt reconcile: " + s.ToString());
      }
      if (trace_ != nullptr) {
        trace_->RxDrop(src, dst, inst.engine().table_name(key.first),
                       "reconcile");
      }
    }
    ps.debt.clear();
    Status s = inst.engine().Flush();
    if (!s.ok()) COLOGNE_WARN("debt reconcile flush: " + s.ToString());
  });
}

bool System::NodePermanentlyDown(NodeId id) const {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return false;
  return nodes_[static_cast<size_t>(id)]->crashed() &&
         restart_pending_[static_cast<size_t>(id)] == 0;
}

bool System::AnyRestartPending() const {
  for (char pending : restart_pending_) {
    if (pending) return true;
  }
  return false;
}

}  // namespace cologne::runtime
