#include "apps/negotiation.h"

namespace cologne::apps {

namespace {

/// The paper's periodic negotiation timer.
constexpr double kRoundPeriodS = 5.0;

}  // namespace

Result<double> RunNegotiation(runtime::System* sys,
                              const NegotiationProtocol& protocol,
                              NegotiationStats* stats) {
  using LinkT = std::pair<NodeId, NodeId>;
  const std::vector<LinkT>& links = protocol.links;
  const CommonConfig& config = *protocol.config;
  const bool faulty =
      !protocol.fault_plan->empty() || config.link_loss_prob > 0;
  std::set<LinkT> pending(links.begin(), links.end());
  std::map<LinkT, int> fail_count;
  Status failure;  // first negotiation error, surfaced for fault-free runs
  auto N = [](NodeId x) { return Value::Node(x); };

  if (!protocol.fault_plan->empty()) {
    COLOGNE_RETURN_IF_ERROR(sys->ApplyFaultPlan(*protocol.fault_plan));
  }
  // A restarted node discards any half-open negotiation session and
  // re-negotiates each of its links: its in-memory decisions died with it.
  // Installed after the plan, which only schedules, so an invalid plan
  // leaves no hook behind; removed once the network drains.
  sys->SetRestartHook([sys, &protocol, &links, &pending](NodeId x) {
    if (protocol.on_restart) protocol.on_restart(x);
    runtime::Instance& inst = sys->node(x);
    datalog::Table* set_link = inst.engine().GetTable("setLink");
    if (set_link != nullptr) {
      // Rows() copies: DeleteFact changes the table.
      for (const Row& row : set_link->Rows()) {
        int guard = 0;
        while (set_link->Contains(row) && guard++ < 8) {
          (void)inst.DeleteFact("setLink", row);
        }
      }
    }
    for (const LinkT& link : links) {
      if (link.first == x || link.second == x) pending.insert(link);
    }
  });

  // Rounds whose negotiation fails (crashed endpoint, solve failure) are
  // retried until the cap.
  const int max_rounds =
      static_cast<int>(links.size()) * (3 + protocol.converge_sweeps) + 8;
  double now = 0;  // virtual time of the current round's start
  while (stats->rounds < max_rounds) {
    if (pending.empty() && !sys->AnyRestartPending()) {
      if (!protocol.on_pass_done || !protocol.on_pass_done()) break;
      pending.insert(links.begin(), links.end());
    }
    ++stats->rounds;
    // Greedy matching: classic mode pairs nodes one link per round; batched
    // mode lets an initiator claim all its pending incident links with free
    // peers and solve them as one batched model.
    std::vector<NegotiationBatch<NodeId>> batches = ClaimBatches(
        links, &pending, sys->num_nodes(), config.batch_links,
        config.max_link_batch, [sys, stats](const LinkT& l) {
          if (sys->NodePermanentlyDown(l.first) ||
              sys->NodePermanentlyDown(l.second)) {
            ++stats->abandoned_links;
            return LinkClaim::kDrop;
          }
          // A temporarily-down endpoint keeps the link pending for later.
          if (sys->node(l.first).crashed() || sys->node(l.second).crashed()) {
            return LinkClaim::kDefer;
          }
          return LinkClaim::kClaim;
        });
    for (const auto& [init, peers] : batches) {
      stats->max_batch =
          std::max(stats->max_batch, static_cast<int>(peers.size()));
      sys->sim().ScheduleAt(now + 0.1, [sys, &protocol, init, peers, N] {
        for (NodeId peer : peers) {
          (void)sys->InsertFact(init, "setLink", {N(init), N(peer)});
          if (protocol.peer_sets_link) {
            (void)sys->InsertFact(peer, "setLink", {N(peer), N(init)});
          }
        }
      });
      sys->sim().ScheduleAt(
          now + 2.0,
          [sys, &protocol, &config, stats, &failure, &pending, &fail_count,
           faulty, init, peers] {
            auto link_of = [init](NodeId peer) {
              return peer < init ? LinkT{peer, init} : LinkT{init, peer};
            };
            auto requeue_all = [&] {
              for (NodeId peer : peers) {
                LinkT link = link_of(peer);
                ++stats->failed_rounds;
                ++fail_count[link];
                if (sys->NodePermanentlyDown(link.first) ||
                    sys->NodePermanentlyDown(link.second)) {
                  ++stats->abandoned_links;
                } else {
                  pending.insert(link);
                }
              }
            };
            bool down = sys->node(init).crashed();
            for (NodeId peer : peers) down = down || sys->node(peer).crashed();
            if (down) {
              // An endpoint died between setup and solve: the whole batch
              // is retried (partial application would desynchronize the
              // peers' state-update rules).
              requeue_all();
              return;
            }
            runtime::Instance& inst = sys->node(init);
            // Read-modify-write so the knobs Init() applied survive.
            inst.set_solve_options(OverlaySolveOptions(
                config, inst.solve_options(), protocol.solve_ms));
            // Batched: one model covering every link of the batch, grouped
            // per (X, Y) link prefix of the decision key for per-link LNS
            // neighborhoods.
            runtime::SolveRequest req = MakeSolveRequest(config, 2);
            req.changed_tables = inst.touched_tables();
            auto out = inst.Solve(req);
            if (!out.ok()) {
              if (faulty) {
                requeue_all();
              } else if (failure.ok()) {
                failure = out.status();
              }
              return;
            }
            ++stats->solves;
            for (NodeId peer : peers) {
              if (auto fit = fail_count.find(link_of(peer));
                  fit != fail_count.end()) {
                ++stats->recovered_rounds;
                fail_count.erase(fit);  // one recovery per failure streak
              }
            }
            if (protocol.on_solved) {
              protocol.on_solved(init, peers, out.value());
            }
          });
      // Clear the negotiation before the next round begins.
      sys->sim().ScheduleAt(now + 4.0, [sys, &protocol, init, peers, N] {
        for (NodeId peer : peers) {
          (void)sys->node(init).DeleteFact("setLink", {N(init), N(peer)});
          if (protocol.peer_sets_link) {
            (void)sys->node(peer).DeleteFact("setLink", {N(peer), N(init)});
          }
        }
      });
    }
    now += kRoundPeriodS;
    sys->RunUntil(now);
    // Round-boundary metrics snapshot (no-op, and no trace line, unless the
    // observability knob is on).
    sys->SnapshotMetrics(static_cast<uint64_t>(stats->rounds));
    if (protocol.on_round_end) protocol.on_round_end(now);
  }
  stats->converge_time_s = now;
  stats->abandoned_links += static_cast<int>(pending.size());
  sys->RunToQuiescence();
  sys->SetRestartHook(nullptr);  // it refers to this frame
  COLOGNE_RETURN_IF_ERROR(failure);

  stats->messages_dropped = sys->network().TotalDropped();
  double bytes = 0;
  for (size_t x = 0; x < sys->num_nodes(); ++x) {
    runtime::Instance& inst = sys->node(static_cast<NodeId>(x));
    stats->crashes += static_cast<int>(inst.crash_count());
    bytes += static_cast<double>(
        sys->network().StatsOf(static_cast<NodeId>(x)).bytes_sent);
  }
  return bytes / static_cast<double>(sys->num_nodes()) / std::max(now, 1.0) /
         1024.0;
}

}  // namespace cologne::apps
