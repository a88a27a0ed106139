// Tests for the discrete-event simulator and the message network.
#include <gtest/gtest.h>

#include "net/fault_plan.h"
#include "net/network.h"
#include "net/simulator.h"

namespace cologne::net {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<double> times;
  sim.Schedule(1.0, [&] {
    times.push_back(sim.Now());
    sim.Schedule(0.5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(1.0, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnly) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(5.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PendingAndExecutedCounters) {
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 2u);
}

// --- Simulator edge cases (ISSUE 3 satellite) --------------------------------

TEST(SimulatorEdgeTest, CancelOfAlreadyFiredEventIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(1.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
  sim.Cancel(id);  // already fired: must not underflow pending
  EXPECT_EQ(sim.pending(), 0u);
  // A later event is unaffected by the stale cancel.
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorEdgeTest, DoubleCancelDecrementsPendingOnce) {
  Simulator sim;
  EventId id = sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(id);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorEdgeTest, CancelSelfFromCallbackIsNoOp) {
  Simulator sim;
  EventId id = 0;
  int fired = 0;
  id = sim.Schedule(1.0, [&] {
    ++fired;
    sim.Cancel(id);  // cancelling the event currently executing
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorEdgeTest, ScheduleAtPastTimeClampsToNow) {
  Simulator sim;
  sim.Schedule(5.0, [] {});
  sim.Run();
  ASSERT_DOUBLE_EQ(sim.Now(), 5.0);
  double fired_at = -1;
  sim.ScheduleAt(2.0, [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0) << "past-dated events fire at Now()";
  // Negative relative delays clamp the same way.
  fired_at = -1;
  sim.Schedule(-3.0, [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SimulatorEdgeTest, EqualTimestampFifoAcrossNestedScheduling) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] {
    order.push_back(0);
    // Nested zero-delay events land at the same timestamp but after every
    // previously scheduled t=1 event (strict FIFO by sequence number).
    sim.Schedule(0.0, [&] { order.push_back(3); });
    sim.Schedule(0.0, [&] { order.push_back(4); });
  });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(1.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorEdgeTest, RunUntilDeliversEventsScheduledExactlyAtT) {
  Simulator sim;
  std::vector<int> fired;
  sim.Schedule(2.0, [&] {
    fired.push_back(0);
    // Scheduled *during* RunUntil(2.0) at exactly t=2: still delivered.
    sim.Schedule(0.0, [&] { fired.push_back(1); });
  });
  sim.Schedule(2.0 + 1e-9, [&] { fired.push_back(2); });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorEdgeTest, RunUntilNeverMovesClockBackwards) {
  Simulator sim;
  sim.Schedule(5.0, [] {});
  sim.Run();
  sim.RunUntil(2.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(SimulatorEdgeTest, CancelledEventsAreSkippedByRunUntil) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Cancel(id);
  sim.RunUntil(1.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

// --- Pooled events: slot reuse, tombstones, generations --------------------

TEST(SimulatorPoolTest, StaleCancelLeavesTheSlotsNextEventAlone) {
  Simulator sim;
  int first = 0, second = 0;
  EventId old_id = sim.Schedule(1.0, [&] { ++first; });
  sim.Run();
  // The fired event's slot is free again: the next event reuses it.
  EventId new_id = sim.Schedule(1.0, [&] { ++second; });
  EXPECT_NE(new_id, old_id);
  EXPECT_EQ(static_cast<uint32_t>(new_id), static_cast<uint32_t>(old_id))
      << "the test needs the slot to be reused";
  sim.Cancel(old_id);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1) << "a stale handle must not cancel the slot's new event";
}

TEST(SimulatorPoolTest, CancellingTheRunningEventSparesWhatItScheduled) {
  Simulator sim;
  EventId running = 0;
  int follow_up = 0;
  running = sim.Schedule(1.0, [&] {
    // Scheduled from inside the running event: it takes the running
    // event's (already released) slot.
    EventId next = sim.Schedule(1.0, [&] { ++follow_up; });
    EXPECT_EQ(static_cast<uint32_t>(next), static_cast<uint32_t>(running));
    sim.Cancel(running);
    EXPECT_EQ(sim.pending(), 1u);
  });
  sim.Run();
  EXPECT_EQ(follow_up, 1);
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorPoolTest, PendingStaysExactWithTombstones) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(sim.Schedule(1.0 + i, [] {}));
  sim.Cancel(ids[0]);
  sim.Cancel(ids[2]);
  sim.Cancel(ids[5]);
  sim.Cancel(ids[5]);  // twice: still one event
  EXPECT_EQ(sim.pending(), 3u);
  // New events reuse the cancelled slots while their tombstones are still
  // in the heap.
  sim.Schedule(0.5, [] {});
  sim.Schedule(10.0, [] {});
  EXPECT_EQ(sim.pending(), 5u);
  sim.RunUntil(2.5);  // fires t=0.5 and t=2, skipping the t=1 tombstone
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_EQ(sim.pending(), 3u);
  sim.Run();
  EXPECT_EQ(sim.executed(), 5u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorPoolTest, EqualTimesStayFifoAcrossSlotReuse) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sim.Schedule(1.0, [&order, i] { order.push_back(i); }));
  }
  sim.Cancel(ids[1]);
  sim.Cancel(ids[2]);
  // These take the freed (lower) slots, yet were scheduled last: they must
  // fire last, in scheduling order.
  for (int i = 4; i < 6; ++i) {
    sim.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 4, 5}));
}

// --- Fault plans -------------------------------------------------------------

TEST(FaultPlanTest, WindowsAndPartitions) {
  FaultPlan plan;
  LinkFault f;
  f.a = 0;
  f.b = 1;
  f.down.push_back({2.0, 4.0, 0});
  f.loss.push_back({1.0, 5.0, 0.25});
  plan.links.push_back(f);
  PartitionFault part;
  part.group = {2};
  part.t0 = 3.0;
  part.t1 = 6.0;
  plan.partitions.push_back(part);

  const char* reason = nullptr;
  EXPECT_FALSE(plan.SeveredAt(0, 1, 1.9));
  EXPECT_TRUE(plan.SeveredAt(0, 1, 2.0, &reason));
  EXPECT_STREQ(reason, "link_down");
  EXPECT_TRUE(plan.SeveredAt(1, 0, 3.9)) << "endpoints are unordered";
  EXPECT_FALSE(plan.SeveredAt(0, 1, 4.0)) << "window is half-open";
  EXPECT_DOUBLE_EQ(plan.LossProbAt(0, 1, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(plan.LossProbAt(0, 1, 5.0), 0.0);
  // Partition separates node 2 from everyone; 0-1 stays connected.
  EXPECT_TRUE(plan.SeveredAt(0, 2, 3.5, &reason));
  EXPECT_STREQ(reason, "partition");
  EXPECT_TRUE(plan.SeveredAt(2, 1, 3.5));
  EXPECT_FALSE(plan.SeveredAt(0, 1, 4.5))
      << "partition excludes links inside one side";
  EXPECT_FALSE(plan.SeveredAt(0, 2, 6.0));
}

TEST(FaultPlanTest, JsonRoundTrip) {
  FaultPlan plan;
  plan.seed = 42;
  LinkFault f;
  f.a = 0;
  f.b = 3;
  f.down.push_back({1.25, 3.5, 0});
  f.loss.push_back({0.5, 10.0, 0.125});
  f.duplicate.push_back({2.0, 4.0, 0.0625});
  f.reorder.push_back({1.0, 9.0, 0.015625});
  plan.links.push_back(f);
  PartitionFault part;
  part.group = {1, 2};
  part.t0 = 5.5;
  part.t1 = 7.75;
  plan.partitions.push_back(part);
  CrashFault c;
  c.node = 2;
  c.t = 6.125;
  c.restart_t = 12.5;
  c.retain_warm_start = true;
  plan.crashes.push_back(c);

  std::string json = plan.ToJson();
  auto parsed = FaultPlan::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToJson(), json) << "canonical round trip";
  EXPECT_EQ(parsed.value().seed, 42u);
  ASSERT_EQ(parsed.value().crashes.size(), 1u);
  EXPECT_TRUE(parsed.value().crashes[0].retain_warm_start);
  EXPECT_DOUBLE_EQ(parsed.value().crashes[0].restart_t, 12.5);
}

TEST(FaultPlanTest, JsonAcceptsHandEditedPlans) {
  // Whitespace, any member order, unknown keys, and retain_warm as a bool.
  auto parsed = FaultPlan::FromJson(
      "{ \"crashes\": [ {\"retain_warm\": true, \"t\": 2, \"node\": 4,"
      " \"note\": \"x\"} ],\n  \"seed\": 5, \"extra\": [1, {}] }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().seed, 5u);
  ASSERT_EQ(parsed.value().crashes.size(), 1u);
  EXPECT_EQ(parsed.value().crashes[0].node, 4);
  EXPECT_TRUE(parsed.value().crashes[0].retain_warm_start);
}

TEST(FaultPlanTest, JsonRejectsTrailingContent) {
  auto parsed = FaultPlan::FromJson("{\"seed\":3}garbage{");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("trailing"), std::string::npos)
      << parsed.status().message();
}

TEST(FaultPlanTest, JsonRejectsWrongTypedField) {
  auto parsed = FaultPlan::FromJson("{\"crashes\":[{\"node\":\"7\",\"t\":1}]}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("node:"), std::string::npos)
      << parsed.status().message();
}

TEST(FaultPlanTest, JsonRejectsOutOfRangeNumbers) {
  auto node = FaultPlan::FromJson("{\"crashes\":[{\"node\":1e300,\"t\":1}]}");
  ASSERT_FALSE(node.ok());
  EXPECT_EQ(node.status().code(), StatusCode::kParseError);
  EXPECT_NE(node.status().message().find("node:"), std::string::npos)
      << node.status().message();
  auto seed = FaultPlan::FromJson("{\"seed\":-1,\"crashes\":[{\"node\":1,\"t\":1}]}");
  ASSERT_FALSE(seed.ok());
  EXPECT_EQ(seed.status().code(), StatusCode::kParseError);
  EXPECT_NE(seed.status().message().find("seed"), std::string::npos)
      << seed.status().message();
  // In range for int64 but not for a 32-bit node id.
  auto wide = FaultPlan::FromJson("{\"links\":[{\"a\":0,\"b\":4294967296}]}");
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.status().message().find("b:"), std::string::npos)
      << wide.status().message();
}

TEST(FaultPlanTest, RandomIsDeterministic) {
  std::vector<std::pair<NodeId, NodeId>> links{{0, 1}, {1, 2}, {0, 2}};
  FaultPlan a = FaultPlan::Random(7, 3, links);
  FaultPlan b = FaultPlan::Random(7, 3, links);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  FaultPlan c = FaultPlan::Random(8, 3, links);
  EXPECT_NE(a.ToJson(), c.ToJson()) << "different seeds, different plans";
}

TEST(NetworkFaultTest, DownWindowDropsAndCounts) {
  Simulator sim;
  Network net(&sim);
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  ASSERT_TRUE(net.AddLink(a, b).ok());
  FaultPlan plan;
  LinkFault f;
  f.a = a;
  f.b = b;
  f.down.push_back({0.0, 10.0, 0});
  plan.links.push_back(f);
  net.SetFaultPlan(plan);
  int got = 0;
  net.SetReceiver(b, [&](NodeId, NodeId, const Message&) { ++got; });
  Message m;
  m.table = "t";
  ASSERT_TRUE(net.Send(a, b, m).ok());
  sim.Run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.StatsOf(a).messages_dropped, 1u);
  EXPECT_EQ(net.TotalDropped(), 1u);
  // After the window, delivery resumes.
  sim.Schedule(11.0, [] {});
  sim.Run();
  ASSERT_TRUE(net.Send(a, b, m).ok());
  sim.Run();
  EXPECT_EQ(got, 1);
}

TEST(NetworkFaultTest, ReliableMessagesBypassDrops) {
  Simulator sim;
  Network net(&sim);
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  ASSERT_TRUE(net.AddLink(a, b).ok());
  FaultPlan plan;
  LinkFault f;
  f.a = a;
  f.b = b;
  f.down.push_back({0.0, 10.0, 0});
  f.loss.push_back({0.0, 10.0, 1.0});
  plan.links.push_back(f);
  net.SetFaultPlan(plan);
  int got = 0;
  net.SetReceiver(b, [&](NodeId, NodeId, const Message&) { ++got; });
  Message m;
  m.table = "t";
  m.reliable = true;
  ASSERT_TRUE(net.Send(a, b, m).ok());
  sim.Run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.TotalDropped(), 0u);
}

TEST(NetworkFaultTest, DuplicationDeliversTwiceInOrder) {
  Simulator sim;
  Network net(&sim);
  NodeId a = net.AddNode();
  NodeId b = net.AddNode();
  ASSERT_TRUE(net.AddLink(a, b).ok());
  FaultPlan plan;
  LinkFault f;
  f.a = a;
  f.b = b;
  f.duplicate.push_back({0.0, 10.0, 1.0});
  plan.links.push_back(f);
  net.SetFaultPlan(plan);
  int got = 0;
  net.SetReceiver(b, [&](NodeId, NodeId, const Message&) { ++got; });
  Message m;
  m.table = "t";
  ASSERT_TRUE(net.Send(a, b, m).ok());
  sim.Run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(net.StatsOf(b).messages_received, 2u);
}

TEST(MessageTest, WireSize) {
  Message m;
  m.table = "curVm";  // 5 chars
  m.row = {Value::Node(1), Value::Int(3), Value::Int(4)};
  // 20 header + 5 name + 1 sign + 5 + 9 + 9 payload.
  EXPECT_EQ(m.WireSize(), 20u + 5u + 1u + 5u + 9u + 9u);
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&sim_) {
    a_ = net_.AddNode();
    b_ = net_.AddNode();
    c_ = net_.AddNode();
    EXPECT_TRUE(net_.AddLink(a_, b_).ok());
  }
  Simulator sim_;
  Network net_;
  NodeId a_, b_, c_;
};

TEST_F(NetworkTest, DeliversAlongLink) {
  Message got;
  net_.SetReceiver(b_, [&](NodeId, NodeId, const Message& m) { got = m; });
  Message m;
  m.table = "t";
  m.row = {Value::Int(7)};
  ASSERT_TRUE(net_.Send(a_, b_, m).ok());
  sim_.Run();
  EXPECT_EQ(got.table, "t");
  ASSERT_EQ(got.row.size(), 1u);
  EXPECT_EQ(got.row[0].as_int(), 7);
}

TEST_F(NetworkTest, NoLinkRejected) {
  Message m;
  m.table = "t";
  Status s = net_.Send(a_, c_, m);
  EXPECT_FALSE(s.ok());
}

TEST_F(NetworkTest, SendToMissingNodeRejected) {
  Message m;
  m.table = "t";
  const NodeId missing = static_cast<NodeId>(net_.num_nodes());
  EXPECT_EQ(net_.Send(a_, missing, m).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(net_.Send(missing, a_, m).code(), StatusCode::kInvalidArgument);
  // A self-send checks its endpoint too.
  EXPECT_EQ(net_.Send(missing, missing, m).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net_.Send(-1, -1, m).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sim_.pending(), 0u) << "a rejected send schedules nothing";
}

TEST_F(NetworkTest, SelfSendDeliversLocally) {
  int got = 0;
  net_.SetReceiver(a_, [&](NodeId, NodeId, const Message&) { ++got; });
  Message m;
  m.table = "t";
  ASSERT_TRUE(net_.Send(a_, a_, m).ok());
  sim_.Run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net_.StatsOf(a_).messages_sent, 0u)
      << "self-delivery is not network traffic";
}

TEST_F(NetworkTest, LatencyAndSerializationDelay) {
  LinkConfig cfg;
  cfg.latency_s = 0.010;
  cfg.bandwidth_bps = 8000;  // 1000 bytes/s
  ASSERT_TRUE(net_.AddLink(a_, c_, cfg).ok());
  double delivered_at = -1;
  net_.SetReceiver(c_, [&](NodeId, NodeId, const Message&) {
    delivered_at = sim_.Now();
  });
  Message m;
  m.table = "xy";  // wire size 20 + 2 + 1 + 9 = 32 bytes -> 0.032 s at 1 kB/s
  m.row = {Value::Int(1)};
  ASSERT_TRUE(net_.Send(a_, c_, m).ok());
  sim_.Run();
  EXPECT_NEAR(delivered_at, 0.010 + 0.032, 1e-9);
}

TEST_F(NetworkTest, TrafficAccounting) {
  net_.SetReceiver(b_, [](NodeId, NodeId, const Message&) {});
  Message m;
  m.table = "t";
  m.row = {Value::Int(1)};
  size_t size = m.WireSize();
  ASSERT_TRUE(net_.Send(a_, b_, m).ok());
  ASSERT_TRUE(net_.Send(a_, b_, m).ok());
  sim_.Run();
  EXPECT_EQ(net_.StatsOf(a_).messages_sent, 2u);
  EXPECT_EQ(net_.StatsOf(a_).bytes_sent, 2 * size);
  EXPECT_EQ(net_.StatsOf(b_).messages_received, 2u);
  EXPECT_EQ(net_.StatsOf(b_).bytes_received, 2 * size);
  net_.ResetStats();
  EXPECT_EQ(net_.StatsOf(a_).bytes_sent, 0u);
}

TEST_F(NetworkTest, DropProbabilityLosesMessages) {
  LinkConfig cfg;
  cfg.drop_prob = 1.0;
  ASSERT_TRUE(net_.AddLink(a_, c_, cfg).ok());
  int got = 0;
  net_.SetReceiver(c_, [&](NodeId, NodeId, const Message&) { ++got; });
  Message m;
  m.table = "t";
  ASSERT_TRUE(net_.Send(a_, c_, m).ok());
  sim_.Run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net_.StatsOf(a_).messages_sent, 1u) << "sender still pays";
}

TEST_F(NetworkTest, NeighborsAndLinks) {
  ASSERT_TRUE(net_.AddLink(b_, c_).ok());
  EXPECT_EQ(net_.Neighbors(b_), (std::vector<NodeId>{a_, c_}));
  EXPECT_TRUE(net_.HasLink(b_, a_));
  EXPECT_FALSE(net_.HasLink(a_, c_));
  EXPECT_EQ(net_.Links().size(), 2u);
  EXPECT_FALSE(net_.AddLink(a_, a_).ok());
  EXPECT_FALSE(net_.AddLink(a_, 99).ok());
}

}  // namespace
}  // namespace cologne::net
