#include "apps/wireless.h"

#include <algorithm>
#include <queue>

#include "apps/programs.h"

namespace cologne::apps {

const char* WirelessProtocolName(WirelessProtocol p) {
  switch (p) {
    case WirelessProtocol::k1Interface: return "1-Interface";
    case WirelessProtocol::kIdenticalCh: return "Identical-Ch";
    case WirelessProtocol::kCentralized: return "Centralized";
    case WirelessProtocol::kDistributed: return "Distributed";
    case WirelessProtocol::kCrossLayer: return "Cross-layer";
  }
  return "?";
}

WirelessScenario::WirelessScenario(const WirelessConfig& config)
    : config_(config), rng_(config.seed) {
  int n = num_nodes();
  neighbors_.assign(static_cast<size_t>(n), {});
  auto id = [&](int x, int y) { return y * config_.grid_w + x; };
  for (int y = 0; y < config_.grid_h; ++y) {
    for (int x = 0; x < config_.grid_w; ++x) {
      if (x + 1 < config_.grid_w) {
        links_.push_back({id(x, y), id(x + 1, y)});
      }
      if (y + 1 < config_.grid_h) {
        links_.push_back({id(x, y), id(x, y + 1)});
      }
    }
  }
  incident_.assign(static_cast<size_t>(n), {});
  for (size_t i = 0; i < links_.size(); ++i) {
    const Link& l = links_[i];
    neighbors_[static_cast<size_t>(l.first)].push_back(l.second);
    neighbors_[static_cast<size_t>(l.second)].push_back(l.first);
    incident_[static_cast<size_t>(l.first)].push_back(i);
    incident_[static_cast<size_t>(l.second)].push_back(i);
  }
  // Primary users: block a fraction of the channel set per node.
  primary_.assign(static_cast<size_t>(n), {});
  int blocked =
      static_cast<int>(config_.restrict_frac * config_.num_channels + 0.5);
  for (int v = 0; v < n; ++v) {
    while (static_cast<int>(primary_[static_cast<size_t>(v)].size()) < blocked) {
      primary_[static_cast<size_t>(v)].insert(
          static_cast<int>(rng_.UniformInt(1, config_.num_channels)));
    }
  }
  // Deterministic flow set.
  for (int f = 0; f < config_.num_flows; ++f) {
    int s = static_cast<int>(rng_.UniformInt(0, n - 1));
    int d = static_cast<int>(rng_.UniformInt(0, n - 1));
    while (d == s) d = static_cast<int>(rng_.UniformInt(0, n - 1));
    flows_.push_back({s, d});
  }
}

bool WirelessScenario::Interferes(const Link& a, const Link& b) const {
  if (a == b) return false;
  auto touches = [](const Link& l, int v) {
    return l.first == v || l.second == v;
  };
  // 1-hop: links share an endpoint.
  if (touches(b, a.first) || touches(b, a.second)) return true;
  if (config_.interference_hops < 2) return false;
  // 2-hop: an endpoint of a is adjacent to an endpoint of b.
  for (int u : {a.first, a.second}) {
    for (int v : neighbors_[static_cast<size_t>(u)]) {
      if (touches(b, v)) return true;
    }
  }
  return false;
}

double WirelessScenario::InterferenceCost(
    const std::map<Link, int>& channel) const {
  // Only links with an endpoint at or next to one of link i's endpoints can
  // interfere with it: enumerate those through the per-node incident-link
  // lists and count each unordered pair once, at its lower index.
  const size_t n = links_.size();
  std::vector<const int*> ch(n, nullptr);
  for (size_t i = 0; i < n; ++i) {
    auto it = channel.find(links_[i]);
    if (it != channel.end()) ch[i] = &it->second;
  }
  std::vector<size_t> seen(n, n);  // seen[j] == i: j already tried for i
  int64_t pairs = 0;
  auto try_links_at = [&](size_t i, int v) {
    for (size_t j : incident_[static_cast<size_t>(v)]) {
      if (j <= i || seen[j] == i || ch[j] == nullptr) continue;
      seen[j] = i;
      if (Interferes(links_[i], links_[j]) &&
          std::abs(*ch[i] - *ch[j]) < config_.f_mindiff) {
        ++pairs;
      }
    }
  };
  for (size_t i = 0; i < n; ++i) {
    if (ch[i] == nullptr) continue;
    for (int u : {links_[i].first, links_[i].second}) {
      try_links_at(i, u);
      if (config_.interference_hops < 2) continue;
      for (int w : neighbors_[static_cast<size_t>(u)]) try_links_at(i, w);
    }
  }
  return static_cast<double>(pairs);
}

// --- Protocols ---------------------------------------------------------------

ChannelAssignment WirelessScenario::RunIdentical() {
  // Every node has the same two channels (1 and 1+2*f_mindiff); links pick
  // greedily whichever conflicts less with already-assigned neighbors.
  ChannelAssignment out;
  int ch_a = 1;
  int ch_b = std::min(config_.num_channels, 1 + 2 * config_.f_mindiff);
  for (const Link& l : links_) {
    int best = ch_a;
    double best_cost = 1e18;
    for (int c : {ch_a, ch_b}) {
      double cost = 0;
      for (const auto& [other, oc] : out.channel) {
        if (Interferes(l, other) &&
            std::abs(c - oc) < config_.f_mindiff) {
          cost += 1;
        }
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = c;
      }
    }
    out.channel[l] = best;
  }
  out.interference_cost = InterferenceCost(out.channel);
  return out;
}

Result<ChannelAssignment> WirelessScenario::RunCentralized() {
  auto compiled = CompileDriverProgram(
      WirelessCentralizedProgram(config_.interference_hops >= 2,
                                 config_.num_channels, config_.f_mindiff),
      config_);
  if (!compiled.ok()) return compiled.status();
  colog::CompiledProgram prog = std::move(compiled).value();
  runtime::Instance inst(0, &prog);
  COLOGNE_RETURN_IF_ERROR(inst.Init());
  datalog::Engine& eng = inst.engine();
  for (const Link& l : links_) {
    // Both directions (the symmetry constraint c2 links them).
    COLOGNE_RETURN_IF_ERROR(eng.Apply(
        "link", {Value::Int(l.first), Value::Int(l.second)}, +1));
    COLOGNE_RETURN_IF_ERROR(eng.Apply(
        "link", {Value::Int(l.second), Value::Int(l.first)}, +1));
  }
  for (int v = 0; v < num_nodes(); ++v) {
    for (int c : primary_[static_cast<size_t>(v)]) {
      COLOGNE_RETURN_IF_ERROR(
          eng.Apply("primaryUser", {Value::Int(v), Value::Int(c)}, +1));
    }
    COLOGNE_RETURN_IF_ERROR(eng.Apply(
        "numInterface", {Value::Int(v), Value::Int(config_.interfaces)}, +1));
  }
  COLOGNE_RETURN_IF_ERROR(eng.Flush());

  // Read-modify-write so the knobs Init() applied survive.
  inst.set_solve_options(OverlaySolveOptions(config_, inst.solve_options(),
                                             config_.solver_time_ms));
  COLOGNE_ASSIGN_OR_RETURN(out, inst.Solve(MakeSolveRequest(config_, 0)));
  if (!out.has_solution()) {
    return Status::SolverError("centralized channel selection infeasible");
  }
  ChannelAssignment result;
  result.total_solve_ms = out.stats.wall_ms;
  result.converge_time_s = out.stats.wall_ms / 1000.0;
  const datalog::Table* assign = eng.GetTable("assign");
  for (const Row& row : assign->View()) {
    int a = static_cast<int>(row[0].as_int());
    int b = static_cast<int>(row[1].as_int());
    Link l = a < b ? Link{a, b} : Link{b, a};
    result.channel[l] = static_cast<int>(row[2].as_int());
  }
  result.interference_cost = InterferenceCost(result.channel);
  return result;
}

Result<ChannelAssignment> WirelessScenario::RunDistributed() {
  auto compiled = CompileDriverProgram(
      WirelessDistributedProgram(config_.num_channels, config_.f_mindiff,
                                 config_.interference_hops >= 2,
                                 config_.batch_links),
      config_);
  if (!compiled.ok()) return compiled.status();
  colog::CompiledProgram prog = std::move(compiled).value();

  runtime::System sys(&prog, static_cast<size_t>(num_nodes()),
                      MakeSystemOptions(config_));
  COLOGNE_RETURN_IF_ERROR(sys.Init());
  if (config_.trace != nullptr) {
    config_.trace->Header("wireless_distributed", config_.seed,
                          config_.fault_plan);
    sys.SetTrace(config_.trace);
  }
  auto N = [](int v) { return Value::Node(v); };
  for (const Link& l : links_) {
    COLOGNE_RETURN_IF_ERROR(sys.AddLink(l.first, l.second));
    COLOGNE_RETURN_IF_ERROR(
        sys.InsertFact(l.first, "link", {N(l.first), N(l.second)}));
    COLOGNE_RETURN_IF_ERROR(
        sys.InsertFact(l.second, "link", {N(l.second), N(l.first)}));
  }
  for (int v = 0; v < num_nodes(); ++v) {
    for (int c : primary_[static_cast<size_t>(v)]) {
      COLOGNE_RETURN_IF_ERROR(
          sys.InsertFact(v, "primaryUser", {N(v), Value::Int(c)}));
    }
  }
  sys.RunToQuiescence();

  ChannelAssignment result;
  NegotiationProtocol protocol;
  protocol.links = links_;
  protocol.config = &config_;
  protocol.fault_plan = &config_.fault_plan;
  protocol.solve_ms = config_.link_solve_ms;
  protocol.on_solved = [&result](NodeId, const std::vector<NodeId>&,
                                 const runtime::SolveOutput& out) {
    result.total_solve_ms += out.stats.wall_ms;
  };
  COLOGNE_ASSIGN_OR_RETURN(kBps, RunNegotiation(&sys, protocol, &result));
  result.per_node_kBps = kBps;

  // Collect assignments from each initiator's materialized assign table.
  // Links that never got a channel (endpoint dead for good, round cap, or a
  // crashed initiator that lost its decisions) are the abandoned set; it
  // replaces the loop's count of links it gave up on.
  for (const Link& l : links_) {
    int init = std::max(l.first, l.second);
    const datalog::Table* assign = sys.node(init).engine().GetTable("assign");
    for (const Row& row : assign->View()) {
      if (row[0].as_node() == init &&
          row[1].as_node() == std::min(l.first, l.second)) {
        result.channel[l] = static_cast<int>(row[2].as_int());
      }
    }
  }
  result.abandoned_links =
      static_cast<int>(links_.size() - result.channel.size());
  result.interference_cost = InterferenceCost(result.channel);
  return result;
}

Result<ChannelAssignment> WirelessScenario::AssignChannels(
    WirelessProtocol protocol) {
  switch (protocol) {
    case WirelessProtocol::k1Interface: {
      ChannelAssignment out;
      for (const Link& l : links_) out.channel[l] = 1;
      out.interference_cost = InterferenceCost(out.channel);
      return out;
    }
    case WirelessProtocol::kIdenticalCh:
      return RunIdentical();
    case WirelessProtocol::kCentralized:
      return RunCentralized();
    case WirelessProtocol::kDistributed:
    case WirelessProtocol::kCrossLayer:
      return RunDistributed();
  }
  return Status::InvalidArgument("unknown protocol");
}

// --- Throughput model ---------------------------------------------------------

std::vector<int> WirelessScenario::RoutePath(
    int src, int dst, const std::map<Link, int>& channel,
    bool interference_aware) const {
  // Dijkstra; weight 1 per hop, plus the link's conflict count when routing
  // is interference-aware (the cross-layer protocol).
  int n = num_nodes();
  std::vector<double> dist(static_cast<size_t>(n), 1e18);
  std::vector<int> prev(static_cast<size_t>(n), -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> q;
  dist[static_cast<size_t>(src)] = 0;
  q.push({0, src});
  auto link_of = [](int a, int b) {
    return a < b ? Link{a, b} : Link{b, a};
  };
  while (!q.empty()) {
    auto [d, u] = q.top();
    q.pop();
    if (d > dist[static_cast<size_t>(u)]) continue;
    if (u == dst) break;
    for (int v : neighbors_[static_cast<size_t>(u)]) {
      double w = 1.0;
      if (interference_aware) {
        Link l = link_of(u, v);
        auto it = channel.find(l);
        if (it != channel.end()) {
          double conflicts = 0;
          for (const auto& [other, oc] : channel) {
            if (Interferes(l, other) &&
                std::abs(it->second - oc) < config_.f_mindiff) {
              conflicts += 1;
            }
          }
          w += 0.25 * conflicts;
        }
      }
      if (dist[static_cast<size_t>(u)] + w < dist[static_cast<size_t>(v)]) {
        dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + w;
        prev[static_cast<size_t>(v)] = u;
        q.push({dist[static_cast<size_t>(v)], v});
      }
    }
  }
  std::vector<int> path;
  if (prev[static_cast<size_t>(dst)] < 0 && src != dst) return path;
  for (int v = dst; v != -1; v = prev[static_cast<size_t>(v)]) {
    path.push_back(v);
    if (v == src) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double WirelessScenario::AggregateThroughput(
    const ChannelAssignment& assignment, double rate_mbps,
    bool interference_aware_routing) const {
  auto link_of = [](int a, int b) {
    return a < b ? Link{a, b} : Link{b, a};
  };
  // Route all flows; count flows per link.
  std::map<Link, int> flows_on;
  std::vector<std::vector<Link>> paths;
  for (const auto& [s, d] : flows_) {
    std::vector<int> nodes =
        RoutePath(s, d, assignment.channel, interference_aware_routing);
    std::vector<Link> path;
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      Link l = link_of(nodes[i], nodes[i + 1]);
      path.push_back(l);
      flows_on[l] += 1;
    }
    paths.push_back(std::move(path));
  }
  // Effective capacity: nominal rate shared with interfering *active* links
  // on conflicting channels.
  std::map<Link, double> eff;
  for (const auto& [l, cnt] : flows_on) {
    auto cl = assignment.channel.find(l);
    int ch = cl == assignment.channel.end() ? 1 : cl->second;
    int interferers = 0;
    for (const auto& [m, cnt2] : flows_on) {
      if (m == l) continue;
      auto cm = assignment.channel.find(m);
      int ch2 = cm == assignment.channel.end() ? 1 : cm->second;
      if (Interferes(l, m) && std::abs(ch - ch2) < config_.f_mindiff) {
        ++interferers;
      }
    }
    eff[l] = config_.link_capacity_mbps / (1.0 + interferers);
  }
  // Flow throughput: offered rate capped by its bottleneck share.
  double total = 0;
  for (const auto& path : paths) {
    if (path.empty()) continue;
    double share = 1e18;
    for (const Link& l : path) {
      share = std::min(share, eff[l] / flows_on[l]);
    }
    total += std::min(rate_mbps, share);
  }
  return total;
}

}  // namespace cologne::apps
