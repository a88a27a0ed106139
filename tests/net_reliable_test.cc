// Reliable FIFO transport tests (ISSUE 4): retransmission across down
// windows, dup-ack fast retransmit, reorder-window FIFO reassembly,
// duplicate suppression, give-up bounding, and byte-identical traces with
// the reliable transport enabled.
#include <gtest/gtest.h>

#include <vector>

#include "apps/followsun.h"
#include "colog/planner.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "net/reliable_channel.h"
#include "net/simulator.h"
#include "runtime/system.h"
#include "runtime/trace_replay.h"

namespace cologne::net {
namespace {

// Two nodes, one 1 ms link, reliable transport on. Sends integer-tagged
// rows and records the receiver-side arrival order.
class ReliablePairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(&sim_, /*seed=*/7);
    net_->SetReliableTransport(true);
    a_ = net_->AddNode();
    b_ = net_->AddNode();
    ASSERT_TRUE(net_->AddLink(a_, b_, link_).ok());
    net_->SetReceiver(b_, [this](NodeId, NodeId, const Message& msg) {
      received_.push_back(msg.row[0].as_int());
    });
  }

  void SendTagged(int64_t tag) {
    Message msg;
    msg.table = "m";
    msg.row = {Value::Int(tag)};
    msg.reliable = true;
    ASSERT_TRUE(net_->Send(a_, b_, std::move(msg)).ok());
  }

  std::vector<int64_t> Ascending(int64_t n) {
    std::vector<int64_t> out;
    for (int64_t i = 1; i <= n; ++i) out.push_back(i);
    return out;
  }

  Simulator sim_;
  LinkConfig link_;  // 1 ms latency, no loss by default
  std::unique_ptr<Network> net_;
  NodeId a_ = 0, b_ = 0;
  std::vector<int64_t> received_;
};

TEST_F(ReliablePairTest, FifoReassemblyUnderReorderJitter) {
  // A reorder window adds up to 80 ms of uniform extra delay per packet —
  // wildly out-of-order wire arrivals — yet the application must observe
  // the exact send order.
  FaultPlan plan;
  LinkFault lf;
  lf.a = a_;
  lf.b = b_;
  lf.reorder.push_back({0.0, 10.0, 0.08});
  plan.links.push_back(lf);
  net_->SetFaultPlan(plan);

  for (int64_t i = 1; i <= 25; ++i) SendTagged(i);
  sim_.Run();
  EXPECT_EQ(received_, Ascending(25)) << "FIFO order violated";
  EXPECT_GT(net_->channel().stats().reordered, 0u)
      << "jitter should actually have reordered something";
  EXPECT_EQ(net_->channel().StateOf(a_, b_).reorder_buffered, 0u);
}

TEST_F(ReliablePairTest, RetransmitAfterDownWindow) {
  // The link is dead for the first second; a send during the window is
  // dropped on the wire and must be recovered by RTO retransmission once
  // the window lifts.
  FaultPlan plan;
  LinkFault lf;
  lf.a = a_;
  lf.b = b_;
  lf.down.push_back({0.0, 1.0, 0});
  plan.links.push_back(lf);
  net_->SetFaultPlan(plan);

  sim_.Schedule(0.5, [this] { SendTagged(1); });
  sim_.Run();
  EXPECT_EQ(received_, Ascending(1));
  EXPECT_GT(net_->channel().stats().retransmits, 0u);
  EXPECT_GT(net_->StatsOf(a_).messages_dropped, 0u)
      << "the in-window transmissions were real wire losses";
  EXPECT_GE(sim_.Now(), 1.0) << "delivery cannot precede the window end";
  ReliableChannel::LinkState st = net_->channel().StateOf(a_, b_);
  EXPECT_EQ(st.in_flight, 0u) << "delivered packet must be acked";
  EXPECT_EQ(st.acked, 1u);
}

TEST_F(ReliablePairTest, DupAcksTriggerFastRetransmit) {
  // Kill exactly the first packet (total loss window around t=0), then send
  // four more after the window. Their out-of-order arrivals emit duplicate
  // cumulative acks, and the third dup ack must fast-retransmit the missing
  // packet well before the RTO timer fires.
  FaultPlan plan;
  LinkFault lf;
  lf.a = a_;
  lf.b = b_;
  lf.loss.push_back({0.0, 0.005, 1.0});
  plan.links.push_back(lf);
  net_->SetFaultPlan(plan);

  SendTagged(1);  // dropped on the wire
  sim_.Schedule(0.01, [this] {
    for (int64_t i = 2; i <= 5; ++i) SendTagged(i);
  });
  sim_.Run();
  EXPECT_EQ(received_, Ascending(5));
  const ChannelStats& st = net_->channel().stats();
  EXPECT_GE(st.fast_retransmits, 1u) << "dup acks must fast-retransmit";
  EXPECT_EQ(st.retransmits, 0u)
      << "fast retransmit should beat the RTO timer entirely";
  EXPECT_GE(st.reordered, 3u) << "packets 2..5 arrived ahead of the gap";
}

TEST_F(ReliablePairTest, DuplicatedDataIsSuppressedOnce) {
  // Every transmission is duplicated by the fault plan; the application
  // must still see each message exactly once, in order.
  FaultPlan plan;
  LinkFault lf;
  lf.a = a_;
  lf.b = b_;
  lf.duplicate.push_back({0.0, 10.0, 1.0});
  plan.links.push_back(lf);
  net_->SetFaultPlan(plan);

  for (int64_t i = 1; i <= 10; ++i) SendTagged(i);
  sim_.Run();
  EXPECT_EQ(received_, Ascending(10));
  EXPECT_GE(net_->channel().stats().dup_data, 10u);
}

TEST_F(ReliablePairTest, SustainedLossIsFullyRecovered) {
  // 30% uniform loss on data and acks alike: everything still arrives,
  // exactly once, in order.
  link_.drop_prob = 0.3;
  ASSERT_TRUE(net_->AddLink(a_, b_, link_).ok());  // re-add with loss
  for (int64_t i = 1; i <= 50; ++i) SendTagged(i);
  sim_.Run();
  EXPECT_EQ(received_, Ascending(50));
  EXPECT_GT(net_->channel().stats().retransmits +
                net_->channel().stats().fast_retransmits,
            0u);
}

TEST_F(ReliablePairTest, GiveUpBoundsRetriesOnBlackhole) {
  // A permanent blackhole (drop_prob 1) must not hang the simulation: the
  // attempt cap abandons the packet and the run terminates.
  ReliableConfig rc;
  rc.max_attempts = 3;
  rc.rto_initial_s = 0.01;
  net_->SetReliableConfig(rc);
  link_.drop_prob = 1.0;
  ASSERT_TRUE(net_->AddLink(a_, b_, link_).ok());
  SendTagged(1);
  sim_.Run();  // must terminate
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_->channel().stats().gave_up, 1u);
  EXPECT_EQ(net_->channel().StateOf(a_, b_).in_flight, 0u);
}

TEST_F(ReliablePairTest, AbandonedPayloadSkipsInsteadOfWedging) {
  // A payload abandoned inside a long down-window must not wedge the FIFO
  // stream: its sequence slot degrades into a retransmitted @skip marker,
  // so once the window lifts the receiver advances past the hole and later
  // messages flow again.
  ReliableConfig rc;
  rc.max_attempts = 3;
  rc.rto_initial_s = 0.02;
  rc.rto_max_s = 0.1;
  net_->SetReliableConfig(rc);
  FaultPlan plan;
  LinkFault lf;
  lf.a = a_;
  lf.b = b_;
  lf.down.push_back({0.0, 0.3, 0});
  plan.links.push_back(lf);
  net_->SetFaultPlan(plan);

  SendTagged(1);  // exhausts its 3 attempts inside the window
  sim_.Schedule(0.6, [this] { SendTagged(2); });
  sim_.Run();
  EXPECT_EQ(received_, std::vector<int64_t>{2})
      << "payload 1 is lost, but the stream must keep delivering";
  EXPECT_EQ(net_->channel().stats().gave_up, 1u);
  ReliableChannel::LinkState st = net_->channel().StateOf(a_, b_);
  EXPECT_EQ(st.delivered, 2u)
      << "the skip marker must advance the receiver past the hole";
  EXPECT_EQ(st.in_flight, 0u);
}

TEST_F(ReliablePairTest, CumulativeAckSlidesPastSkipAtWindowHead) {
  // Payload 1 is abandoned inside a down window, so the head of the
  // sender's window is its @skip marker. Payload 2, sent once the link is
  // back, overtakes the marker and waits in the reorder buffer; when the
  // marker lands, one cumulative ack covers both and must slide the
  // window past the marker and the payload behind it.
  ReliableConfig rc;
  rc.max_attempts = 3;
  rc.rto_initial_s = 0.02;
  rc.rto_max_s = 0.1;
  rc.rto_jitter_frac = 0;  // timers at 0.02, 0.06, 0.14, 0.24, 0.34
  rc.fast_retx_dup_acks = 100;
  net_->SetReliableConfig(rc);
  FaultPlan plan;
  LinkFault lf;
  lf.a = a_;
  lf.b = b_;
  lf.down.push_back({0.0, 0.3, 0});
  plan.links.push_back(lf);
  net_->SetFaultPlan(plan);

  SendTagged(1);
  sim_.Schedule(0.31, [this] { SendTagged(2); });
  sim_.RunUntil(0.33);
  ReliableChannel::LinkState mid = net_->channel().StateOf(a_, b_);
  EXPECT_EQ(net_->channel().stats().gave_up, 1u);
  EXPECT_EQ(mid.in_flight, 2u) << "the skip marker and payload 2";
  EXPECT_EQ(mid.reorder_buffered, 1u) << "payload 2 waits for seq 1";
  EXPECT_EQ(mid.delivered, 0u);
  EXPECT_EQ(mid.acked, 0u);
  sim_.Run();
  EXPECT_EQ(received_, std::vector<int64_t>{2});
  ReliableChannel::LinkState done = net_->channel().StateOf(a_, b_);
  EXPECT_EQ(done.acked, 2u);
  EXPECT_EQ(done.in_flight, 0u);
  EXPECT_EQ(done.delivered, 2u);
  EXPECT_EQ(done.reorder_buffered, 0u);
}

TEST_F(ReliablePairTest, StateOfCountsWindowAndReorderBuffer) {
  // Lose packet 1 on the wire; 2..5 arrive and wait behind the gap until
  // the RTO (>= 50 ms) resends 1. Fast retransmit is out of reach.
  ReliableConfig rc;
  rc.fast_retx_dup_acks = 100;
  net_->SetReliableConfig(rc);
  FaultPlan plan;
  LinkFault lf;
  lf.a = a_;
  lf.b = b_;
  lf.loss.push_back({0.0, 0.005, 1.0});
  plan.links.push_back(lf);
  net_->SetFaultPlan(plan);

  SendTagged(1);
  sim_.Schedule(0.01, [this] {
    for (int64_t i = 2; i <= 5; ++i) SendTagged(i);
  });
  sim_.RunUntil(0.03);
  ReliableChannel::LinkState mid = net_->channel().StateOf(a_, b_);
  EXPECT_EQ(mid.next_seq, 6u);
  EXPECT_EQ(mid.acked, 0u);
  EXPECT_EQ(mid.in_flight, 5u);
  EXPECT_EQ(mid.delivered, 0u);
  EXPECT_EQ(mid.reorder_buffered, 4u);
  // The reverse direction carried only acks: no stream state there.
  ReliableChannel::LinkState back = net_->channel().StateOf(b_, a_);
  EXPECT_EQ(back.next_seq, 1u);
  EXPECT_EQ(back.in_flight, 0u);
  EXPECT_EQ(back.delivered, 0u);
  sim_.Run();
  EXPECT_EQ(received_, Ascending(5));
  ReliableChannel::LinkState done = net_->channel().StateOf(a_, b_);
  EXPECT_EQ(done.acked, 5u);
  EXPECT_EQ(done.in_flight, 0u);
  EXPECT_EQ(done.delivered, 5u);
  EXPECT_EQ(done.reorder_buffered, 0u);
}

TEST(ReliableMessageTest, SequencedWireSizeAndAckTable) {
  Message plain;
  plain.table = "m";
  Message sequenced = plain;
  sequenced.seq = 9;
  EXPECT_EQ(sequenced.WireSize(), plain.WireSize() + 8)
      << "sequence numbers cost 8 bytes on the wire";
  EXPECT_EQ(std::string(kAckTable), "@ack");
}

// The Colog `param NET_RELIABLE = 1` knob must reach the transport: every
// engine-derived tuple rides the channel (sequenced data + acks on the
// wire), end to end from program text to Network.
TEST(NetReliableKnobTest, ProgramKnobEnablesTransport) {
  auto compiled = colog::CompileColog(
      "param NET_RELIABLE = 1.\n"
      "table stock(X,I) keys(X,I).\n"
      "r1 mirror(@Y,X,I) <- link(@X,Y), stock(@X,I).\n");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  colog::CompiledProgram prog = std::move(compiled).value();
  runtime::System sys(&prog, 2);
  ASSERT_TRUE(sys.Init().ok());
  ASSERT_TRUE(sys.AddLink(0, 1).ok());
  EXPECT_TRUE(sys.net_reliable());
  EXPECT_TRUE(sys.network().reliable_transport());
  auto N = [](NodeId n) { return Value::Node(n); };
  ASSERT_TRUE(sys.InsertFact(0, "link", {N(0), N(1)}).ok());
  ASSERT_TRUE(sys.InsertFact(0, "stock", {N(0), Value::Int(7)}).ok());
  sys.RunToQuiescence();
  EXPECT_EQ(sys.node(1).engine().GetTable("mirror")->size(), 1u);
  const ChannelStats& st = sys.network().channel().stats();
  EXPECT_GT(st.data_sent, 0u) << "tuples must have been sequenced";
  EXPECT_GT(st.acks_sent, 0u) << "deliveries must have been acknowledged";
}

// Determinism: identical (program, seed, loss, reliability) must be
// byte-identical — the RTO jitter and retransmission schedule are seeded.
TEST(ReliableTraceTest, ReliableRunsAreByteIdentical) {
  runtime::TraceRecorder ta, tb;
  for (runtime::TraceRecorder* t : {&ta, &tb}) {
    apps::FtsConfig cfg;
    cfg.num_dcs = 3;
    cfg.capacity = 20;
    cfg.demand_hi = 5;
    cfg.solver_time_ms = 5000;
    cfg.seed = 19;
    cfg.knobs["NET_RELIABLE"] = Value::Int(1);
    cfg.link_loss_prob = 0.2;
    cfg.batch_links = true;
    cfg.trace = t;
    apps::FollowTheSunScenario scenario(cfg);
    auto r = scenario.Run();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_GT(ta.lines().size(), 10u);
  EXPECT_EQ(runtime::DiffTraces(ta.lines(), tb.lines()), "");
}

}  // namespace
}  // namespace cologne::net
