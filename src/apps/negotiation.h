// The per-link negotiation protocol shared by the Follow-the-Sun (paper
// Section 4.3) and distributed wireless (Section 3.2, Appendix A.3)
// drivers: greedy per-round matching plus the one round loop that opens a
// `setLink` session, runs invokeSolver at the initiator, and closes the
// session, with failed-round retry under churn.
//
// Classic mode pairs nodes one link each per round (paper footnote 1: the
// higher-id endpoint initiates). Batched mode lets an initiator claim
// every pending incident link whose peer is still free — one batched model
// solve per node per round — while a node never serves two negotiations at
// once (its capacity/channel state is a shared resource).
#ifndef COLOGNE_APPS_NEGOTIATION_H_
#define COLOGNE_APPS_NEGOTIATION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "apps/common_config.h"
#include "common/status.h"
#include "net/fault_plan.h"
#include "runtime/system.h"

namespace cologne::apps {

/// Driver verdict on a pending link before claiming.
enum class LinkClaim {
  kClaim,  ///< Negotiable this round.
  kDefer,  ///< Keep pending (e.g. an endpoint is temporarily crashed).
  kDrop,   ///< Remove from pending without negotiating (abandoned).
};

/// One initiator and the peers it negotiates this round (one solve).
template <typename Node>
struct NegotiationBatch {
  Node init;
  std::vector<Node> peers;
};

/// Greedy matching over `links` (pairs of node ids). Links absent from
/// `pending` are ignored; claimed and kDrop links are erased from it.
/// `classify(link)` supplies the driver-specific verdict. Batched mode
/// claims initiator-first (descending id, then peer ascending) so an
/// initiator gathers all its incident links before lower nodes consume its
/// peers; classic mode keeps the caller's link order, preserving the
/// historical round schedule. `max_link_batch` caps links per batch
/// (0 = unlimited; classic mode is implicitly 1). Returns batches in claim
/// order — deterministic, so round schedules trace-reproducibly.
template <typename Link, typename Classify>
std::vector<NegotiationBatch<typename Link::first_type>> ClaimBatches(
    const std::vector<Link>& links, std::set<Link>* pending,
    size_t num_nodes, bool batch_links, int max_link_batch,
    Classify&& classify) {
  using Node = typename Link::first_type;
  std::vector<Link> claim_order = links;
  if (batch_links) {
    std::sort(claim_order.begin(), claim_order.end(),
              [](const Link& x, const Link& y) {
                Node ix = std::max(x.first, x.second);
                Node iy = std::max(y.first, y.second);
                if (ix != iy) return ix > iy;
                Node nx = std::min(x.first, x.second);
                Node ny = std::min(y.first, y.second);
                if (nx != ny) return nx < ny;
                // Total order: the two orientations of one endpoint pair
                // compare equal on (initiator, peer) alone, and std::sort
                // would order them unspecified — the claim schedule (and
                // with it the trace) must not depend on that.
                return x.first < y.first;
              });
  }
  // Roles: 0 = free, 1 = initiating this round, 2 = peer in a negotiation.
  std::vector<char> role(num_nodes, 0);
  std::vector<NegotiationBatch<Node>> batches;
  std::map<Node, size_t> batch_of;
  for (const Link& l : claim_order) {
    if (!pending->count(l)) continue;
    switch (classify(l)) {
      case LinkClaim::kDrop:
        pending->erase(l);
        continue;
      case LinkClaim::kDefer:
        continue;
      case LinkClaim::kClaim:
        break;
    }
    Node init = std::max(l.first, l.second);
    Node peer = std::min(l.first, l.second);
    if (role[static_cast<size_t>(init)] == 2 ||
        role[static_cast<size_t>(peer)] != 0) {
      continue;
    }
    auto it = batch_of.find(init);
    if (it == batch_of.end()) {
      if (role[static_cast<size_t>(init)] != 0) continue;
      it = batch_of.emplace(init, batches.size()).first;
      batches.push_back({init, {}});
    } else {
      if (!batch_links) continue;  // one link per node per round
      if (max_link_batch > 0 &&
          static_cast<int>(batches[it->second].peers.size()) >=
              max_link_batch) {
        continue;
      }
    }
    role[static_cast<size_t>(init)] = 1;
    role[static_cast<size_t>(peer)] = 2;
    batches[it->second].peers.push_back(peer);
    pending->erase(l);
  }
  return batches;
}

/// Counters every negotiating driver reports; FtsResult and
/// ChannelAssignment derive from this.
struct NegotiationStats {
  int rounds = 0;
  double converge_time_s = 0;  ///< Virtual time of the last round boundary.
  int solves = 0;             ///< invokeSolver executions across the run.
  int max_batch = 0;          ///< Largest link batch covered by one solve.
  // --- Churn accounting ------------------------------------------------------
  int failed_rounds = 0;      ///< Negotiations that failed and were requeued.
  int recovered_rounds = 0;   ///< Previously-failed negotiations that later
                              ///< completed (post-restart recovery).
  int abandoned_links = 0;    ///< Links never negotiated (permanent crash /
                              ///< round cap).
  uint64_t messages_dropped = 0;  ///< In-flight losses across all nodes.
  int crashes = 0;                ///< Node crashes observed during the run.
};

/// A driver's links and the steps where the two case studies differ.
struct NegotiationProtocol {
  std::vector<std::pair<NodeId, NodeId>> links;  ///< (a < b), claim order.
  const CommonConfig* config = nullptr;
  const net::FaultPlan* fault_plan = nullptr;  ///< Empty = happy path.
  double solve_ms = 0;  ///< Wall-clock budget of each initiator solve.
  /// Both endpoints hold `setLink` in a session (Follow-the-Sun); else
  /// only the initiator does (wireless).
  bool peer_sets_link = false;
  int converge_sweeps = 0;  ///< Passes on_pass_done may add (round cap).
  /// A node restarted; runs before its sessions are discarded and its
  /// links requeued.
  std::function<void(NodeId)> on_restart;
  /// Every link is settled: true renegotiates all links, false ends.
  std::function<bool()> on_pass_done;
  std::function<void(NodeId init, const std::vector<NodeId>& peers,
                     const runtime::SolveOutput& out)>
      on_solved;
  std::function<void(double t_s)> on_round_end;  ///< After the snapshot.
};

/// \brief Runs negotiation rounds on `sys` until every link is settled (or
/// the round cap), then drains the network.
///
/// Each 5 s round claims links (ClaimBatches); per batch the session opens
/// at +0.1 s, the initiator solves at +2.0 s and the session closes at
/// +4.0 s. A batch with an endpoint down at solve time, or a failed solve
/// under faults, is requeued; links with a permanently down endpoint are
/// abandoned; a restarted node's links are requeued. Fills `stats` and
/// returns the per-node send rate in kB/s, or the first solve error of a
/// fault-free run.
Result<double> RunNegotiation(runtime::System* sys,
                              const NegotiationProtocol& protocol,
                              NegotiationStats* stats);

}  // namespace cologne::apps

#endif  // COLOGNE_APPS_NEGOTIATION_H_
