// Scenario-driver tests at miniature scale: trace determinism, ACloud policy
// ordering, Follow-the-Sun convergence, wireless assignment validity.
#include <gtest/gtest.h>

#include "apps/acloud.h"
#include "apps/followsun.h"
#include "apps/negotiation.h"
#include "apps/programs.h"
#include "apps/trace.h"
#include "apps/wireless.h"
#include "colog/planner.h"
#include "common/stats.h"

namespace cologne::apps {
namespace {

TEST(TraceTest, DeterministicAndBounded) {
  TraceConfig cfg;
  cfg.num_customers = 20;
  cfg.num_pps = 60;
  DataCenterTrace a(cfg), b(cfg);
  for (int c = 0; c < cfg.num_customers; ++c) {
    EXPECT_GE(a.PpsOf(c), 1);
    for (double t : {0.0, 300.0, 3600.0, 86000.0}) {
      double cpu = a.CustomerCpu(c, t);
      EXPECT_GE(cpu, 0.0);
      EXPECT_LE(cpu, 100.0);
      EXPECT_EQ(cpu, b.CustomerCpu(c, t)) << "trace must be deterministic";
      double mem = a.CustomerMem(c, t);
      EXPECT_GE(mem, 0.0);
      EXPECT_LE(mem, 100.0);
    }
  }
}

TEST(TraceTest, DiurnalVariation) {
  TraceConfig cfg;
  cfg.num_customers = 10;
  cfg.num_pps = 30;
  DataCenterTrace t(cfg);
  // Over a day, load must actually move (amplitude >= 10%).
  RunningStats s;
  for (int i = 0; i < 288; ++i) s.Add(t.CustomerCpu(3, i * 300.0));
  EXPECT_GT(s.max() - s.min(), 10.0);
}

TEST(ProgramsTest, AllProgramsCompile) {
  for (const std::string& src :
       {ACloudProgram(false), ACloudProgram(true, 3),
        FollowTheSunDistributedProgram(false),
        FollowTheSunDistributedProgram(true),
        FollowTheSunCentralizedProgram(), WirelessCentralizedProgram(false),
        WirelessCentralizedProgram(true), WirelessDistributedProgram()}) {
    auto r = colog::CompileColog(src);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nprogram:\n" << src;
  }
}

TEST(ProgramsTest, DistributedFlagsMatch) {
  auto acloud = colog::CompileColog(ACloudProgram(false));
  ASSERT_TRUE(acloud.ok());
  EXPECT_FALSE(acloud.value().distributed);
  auto fts = colog::CompileColog(FollowTheSunDistributedProgram(false));
  ASSERT_TRUE(fts.ok());
  EXPECT_TRUE(fts.value().distributed);
}

ACloudConfig SmallACloud() {
  ACloudConfig cfg;
  cfg.num_dcs = 2;
  cfg.hosts_per_dc = 3;
  cfg.vms_per_host = 4;
  cfg.duration_hours = 0.5;
  cfg.interval_s = 600;
  cfg.solver_time_ms = 300;
  cfg.trace.num_customers = 16;
  cfg.trace.num_pps = 40;
  return cfg;
}

TEST(ACloudScenarioTest, PoliciesRunAndACloudBeatsDefault) {
  ACloudScenario scenario(SmallACloud());
  auto def = scenario.Run(ACloudPolicy::kDefault);
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  auto colog_run = scenario.Run(ACloudPolicy::kACloud);
  ASSERT_TRUE(colog_run.ok()) << colog_run.status().ToString();
  ASSERT_EQ(def.value().size(), colog_run.value().size());
  double def_avg = 0, acloud_avg = 0;
  int migrations = 0;
  for (size_t i = 0; i < def.value().size(); ++i) {
    def_avg += def.value()[i].avg_cpu_stdev;
    acloud_avg += colog_run.value()[i].avg_cpu_stdev;
    migrations += colog_run.value()[i].migrations;
  }
  EXPECT_LT(acloud_avg, def_avg) << "optimization must reduce imbalance";
  EXPECT_EQ([&] {
    int m = 0;
    for (const auto& iv : def.value()) m += iv.migrations;
    return m;
  }(), 0) << "Default never migrates";
  EXPECT_GT(migrations, 0) << "ACloud migrates to balance";
}

TEST(ACloudScenarioTest, MigrationLimitRespected) {
  ACloudConfig cfg = SmallACloud();
  cfg.max_migrates = 1;
  ACloudScenario scenario(cfg);
  auto limited = scenario.Run(ACloudPolicy::kACloudM);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  for (const auto& iv : limited.value()) {
    EXPECT_LE(iv.migrations, cfg.max_migrates * cfg.num_dcs)
        << "at t=" << iv.t_hours;
  }
}

// Regression: the ACloud driver refreshes vm/origin every interval. Held
// rows must not be re-inserted: tables count derivations, so each repeat
// would raise the row's count and the single retraction when the VM drops
// under the CPU filter would leave it (and its variables) in later models.
TEST(ACloudScenarioTest, FactSyncRetractsVmThatLeavesTheFilter) {
  auto prog = colog::CompileColog(ACloudProgram(false));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  runtime::Instance inst(0, &prog.value());
  ASSERT_TRUE(inst.Init().ok());
  auto vm = [](int64_t id, int64_t cpu) {
    return Row{Value::Int(id), Value::Int(cpu), Value::Int(2)};
  };
  const std::set<Row> both{vm(1, 40), vm(2, 60)};
  for (int interval = 0; interval < 3; ++interval) {
    ASSERT_TRUE(SyncKeyedFacts(&inst, "vm", both).ok());
    ASSERT_TRUE(inst.Flush().ok());
  }
  // VM 2's load changed (keyed replacement); VM 1 left the filter.
  ASSERT_TRUE(SyncKeyedFacts(&inst, "vm", {vm(2, 70)}).ok());
  ASSERT_TRUE(inst.Flush().ok());
  auto expect_only_vm2 = [&](const char* when) {
    const datalog::Table* table = inst.engine().GetTable("vm");
    EXPECT_FALSE(table->Contains(vm(1, 40))) << when << ": VM 1 leaked";
    EXPECT_TRUE(table->Contains(vm(2, 70))) << when;
    EXPECT_EQ(table->Rows().size(), 1u) << when;
  };
  expect_only_vm2("live");
  // The durable journal rebuilds the same table after a crash.
  ASSERT_TRUE(inst.Crash().ok());
  ASSERT_TRUE(inst.Restart(/*retain_warm_start=*/false).ok());
  ASSERT_TRUE(inst.ReplayBaseFacts().ok());
  expect_only_vm2("replayed");
}

TEST(FollowTheSunTest, CostDecreasesAndConverges) {
  FtsConfig cfg;
  cfg.num_dcs = 4;
  cfg.solver_time_ms = 300;
  FollowTheSunScenario scenario(cfg);
  auto r = scenario.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const FtsResult& res = r.value();
  EXPECT_GT(res.initial_cost, 0);
  EXPECT_LE(res.final_cost, res.initial_cost)
      << "optimization must not increase total cost";
  EXPECT_GT(res.reduction_pct, 0) << "some reduction expected";
  EXPECT_GT(res.rounds, 0);
  EXPECT_GT(res.avg_per_node_kBps, 0) << "negotiation uses the network";
  // Normalized series starts at 100 and is (weakly) decreasing.
  ASSERT_GE(res.series.size(), 2u);
  EXPECT_DOUBLE_EQ(res.series[0].normalized, 100.0);
  for (size_t i = 1; i < res.series.size(); ++i) {
    EXPECT_LE(res.series[i].normalized, res.series[i - 1].normalized + 1e-9);
  }
}

TEST(WirelessTest, BaselinesAssignEveryLink) {
  WirelessConfig cfg;
  cfg.grid_w = 3;
  cfg.grid_h = 3;
  cfg.num_flows = 4;
  WirelessScenario scenario(cfg);
  for (WirelessProtocol p :
       {WirelessProtocol::k1Interface, WirelessProtocol::kIdenticalCh}) {
    auto r = scenario.AssignChannels(p);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().channel.size(), scenario.links().size());
  }
}

TEST(WirelessTest, CentralizedReducesInterferenceVsBaselines) {
  WirelessConfig cfg;
  cfg.grid_w = 3;
  cfg.grid_h = 3;
  cfg.num_flows = 4;
  cfg.solver_time_ms = 1500;
  WirelessScenario scenario(cfg);
  auto one = scenario.AssignChannels(WirelessProtocol::k1Interface);
  auto cen = scenario.AssignChannels(WirelessProtocol::kCentralized);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(cen.ok()) << cen.status().ToString();
  EXPECT_EQ(cen.value().channel.size(), scenario.links().size());
  EXPECT_LT(cen.value().interference_cost, one.value().interference_cost);
  // Primary-user constraint holds trivially (no restrictions configured).
  // Channels in range.
  for (const auto& [l, c] : cen.value().channel) {
    EXPECT_GE(c, 1);
    EXPECT_LE(c, cfg.num_channels);
  }
}

TEST(WirelessTest, DistributedAssignsAllLinksAndRespectsPrimaryUsers) {
  WirelessConfig cfg;
  cfg.grid_w = 3;
  cfg.grid_h = 2;
  cfg.num_flows = 3;
  cfg.restrict_frac = 0.25;  // two blocked channels per node
  cfg.link_solve_ms = 150;
  WirelessScenario scenario(cfg);
  auto r = scenario.AssignChannels(WirelessProtocol::kDistributed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChannelAssignment& a = r.value();
  EXPECT_EQ(a.channel.size(), scenario.links().size());
  for (const auto& [l, c] : a.channel) {
    EXPECT_FALSE(scenario.primary_channels(l.first).count(c))
        << "link (" << l.first << "," << l.second << ") uses channel " << c
        << " blocked at node " << l.first;
    EXPECT_FALSE(scenario.primary_channels(l.second).count(c));
  }
  EXPECT_GT(a.per_node_kBps, 0);
}

TEST(WirelessTest, ThroughputOrderingMatchesFigure6) {
  WirelessConfig cfg;
  cfg.grid_w = 4;
  cfg.grid_h = 3;
  cfg.num_flows = 8;
  cfg.solver_time_ms = 2000;
  cfg.link_solve_ms = 150;
  WirelessScenario scenario(cfg);
  auto one = scenario.AssignChannels(WirelessProtocol::k1Interface);
  auto dist = scenario.AssignChannels(WirelessProtocol::kDistributed);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  double rate = 8.0;
  double t_one = scenario.AggregateThroughput(one.value(), rate, false);
  double t_dist = scenario.AggregateThroughput(dist.value(), rate, false);
  double t_cross = scenario.AggregateThroughput(dist.value(), rate, true);
  EXPECT_GT(t_dist, t_one) << "channel diversity must beat one channel";
  EXPECT_GE(t_cross, t_dist * 0.99)
      << "cross-layer routing should not hurt throughput";
}

// InterferenceCost enumerates candidate pairs through per-node link lists;
// it must count exactly the pairs a scan over every pair of links counts.
// The reference re-derives the interference relation from links() alone:
// two distinct links interfere when they share an endpoint or (2-hop model)
// an endpoint of one is adjacent to an endpoint of the other.
double BruteForceInterference(const WirelessScenario& scenario, int hops,
                              int f_mindiff,
                              const std::map<Link, int>& channel) {
  const std::vector<Link>& links = scenario.links();
  std::set<Link> adjacent;
  for (const Link& l : links) {
    adjacent.insert(l);
    adjacent.insert({l.second, l.first});
  }
  auto near = [&](int u, int v) {
    return u == v || (hops >= 2 && adjacent.count({u, v}) > 0);
  };
  double cost = 0;
  for (size_t i = 0; i < links.size(); ++i) {
    for (size_t j = i + 1; j < links.size(); ++j) {
      auto ci = channel.find(links[i]);
      auto cj = channel.find(links[j]);
      if (ci == channel.end() || cj == channel.end()) continue;
      bool interferes = false;
      for (int u : {links[i].first, links[i].second}) {
        for (int v : {links[j].first, links[j].second}) {
          interferes = interferes || near(u, v);
        }
      }
      if (interferes && std::abs(ci->second - cj->second) < f_mindiff) {
        cost += 1;
      }
    }
  }
  return cost;
}

TEST(WirelessTest, InterferenceCostMatchesBruteForce) {
  for (int hops : {1, 2}) {
    WirelessConfig cfg;
    cfg.grid_w = 7;
    cfg.grid_h = 5;
    cfg.interference_hops = hops;
    WirelessScenario scenario(cfg);
    Rng rng(11 + static_cast<uint64_t>(hops));
    for (int trial = 0; trial < 20; ++trial) {
      // Every few trials leave some links unassigned.
      std::map<Link, int> channel;
      for (const Link& l : scenario.links()) {
        if (trial % 4 == 3 && rng.UniformInt(0, 4) == 0) continue;
        channel[l] =
            static_cast<int>(rng.UniformInt(1, cfg.num_channels));
      }
      EXPECT_EQ(scenario.InterferenceCost(channel),
                BruteForceInterference(scenario, hops, cfg.f_mindiff, channel))
          << "hops " << hops << ", trial " << trial;
    }
  }
}

// --- ClaimBatches (apps/negotiation.h) ---------------------------------------

using TestLink = std::pair<int, int>;

std::vector<NegotiationBatch<int>> Claim(std::vector<TestLink> links,
                                         size_t num_nodes, bool batch_links,
                                         int max_link_batch,
                                         std::set<TestLink>* pending_out =
                                             nullptr) {
  std::set<TestLink> pending(links.begin(), links.end());
  auto batches =
      ClaimBatches(links, &pending, num_nodes, batch_links, max_link_batch,
                   [](const TestLink&) { return LinkClaim::kClaim; });
  if (pending_out != nullptr) *pending_out = pending;
  return batches;
}

std::string Render(const std::vector<NegotiationBatch<int>>& batches) {
  std::string out;
  for (const auto& b : batches) {
    out += std::to_string(b.init) + ":";
    for (int p : b.peers) out += std::to_string(p) + ",";
    out += ";";
  }
  return out;
}

TEST(NegotiationTest, BatchedScheduleIndependentOfLinkSpelling) {
  // The same endpoint set spelled (a,b), spelled (b,a), and permuted must
  // claim identically: the schedule (and with it the trace) depends only on
  // the link set. The both-orientations input is the regression case — the
  // two spellings of one pair compare equal on (initiator, peer), so the
  // sort needs the orientation tie-break to stay a total order.
  const std::vector<TestLink> links = {{0, 3}, {3, 1}, {2, 3}, {1, 2}, {0, 1}};
  const std::string base = Render(Claim(links, 4, true, 0));
  std::vector<TestLink> flipped;
  for (const TestLink& l : links) flipped.push_back({l.second, l.first});
  EXPECT_EQ(Render(Claim(flipped, 4, true, 0)), base);
  std::vector<TestLink> permuted = {{1, 2}, {0, 1}, {2, 3}, {0, 3}, {3, 1}};
  EXPECT_EQ(Render(Claim(permuted, 4, true, 0)), base);
  std::vector<TestLink> both = links;
  for (const TestLink& l : flipped) both.push_back(l);
  EXPECT_EQ(Render(Claim(both, 4, true, 0)), base);
}

TEST(NegotiationTest, BatchedInitiatorGathersPeersAscending) {
  // Highest id initiates first and gathers every free peer, low id first.
  const std::vector<TestLink> links = {{1, 3}, {0, 3}, {2, 3}};
  EXPECT_EQ(Render(Claim(links, 4, true, 0)), "3:0,1,2,;");
}

TEST(NegotiationTest, MaxLinkBatchCapsClaimsAndKeepsRestPending) {
  std::set<TestLink> pending;
  const std::vector<TestLink> links = {{0, 3}, {1, 3}, {2, 3}};
  auto batches = Claim(links, 4, true, 2, &pending);
  EXPECT_EQ(Render(batches), "3:0,1,;");
  // The capped-out link stays pending for a later round.
  EXPECT_EQ(pending, std::set<TestLink>({{2, 3}}));
}

TEST(NegotiationTest, ClassicModePairsOneLinkPerNode) {
  // Classic mode keeps the caller's order and one link per node per round.
  std::set<TestLink> pending;
  const std::vector<TestLink> links = {{0, 1}, {2, 3}, {0, 2}, {1, 3}};
  auto batches = Claim(links, 4, false, 0, &pending);
  EXPECT_EQ(Render(batches), "1:0,;3:2,;");
  EXPECT_EQ(pending, std::set<TestLink>({{0, 2}, {1, 3}}));
}

}  // namespace
}  // namespace cologne::apps
