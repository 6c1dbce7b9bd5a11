// Unit tests for the interconnect: torus routing and bandwidth accounting,
// broadcast-tree total ordering, fault filters, and recovery epochs.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/broadcast_tree.hpp"
#include "net/message.hpp"
#include "net/torus.hpp"
#include "sim/simulator.hpp"

namespace dvmc {
namespace {

class Recorder final : public NetworkEndpoint {
 public:
  void onMessage(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

/// Records the cycle at which each message arrives.
class ArrivalClock final : public NetworkEndpoint {
 public:
  explicit ArrivalClock(const Simulator& sim) : sim_(sim) {}
  void onMessage(const Message&) override { arrivals.push_back(sim_.now()); }
  std::vector<Cycle> arrivals;

 private:
  const Simulator& sim_;
};

struct TorusFixture : ::testing::Test {
  TorusFixture() : net(sim, 8) {
    for (NodeId n = 0; n < 8; ++n) net.attach(n, &eps[n]);
  }
  Message makeMsg(NodeId src, NodeId dest, MsgType t = MsgType::kGetS) {
    Message m;
    m.type = t;
    m.src = src;
    m.dest = dest;
    m.addr = 0x1000;
    return m;
  }
  Simulator sim;
  TorusNetwork net;
  Recorder eps[8];
};

TEST_F(TorusFixture, DeliversToDestination) {
  net.send(makeMsg(0, 5));
  sim.run();
  EXPECT_EQ(eps[5].received.size(), 1u);
  for (NodeId n = 0; n < 8; ++n) {
    if (n != 5) {
      EXPECT_TRUE(eps[n].received.empty());
    }
  }
}

TEST_F(TorusFixture, LocalDeliveryIsFast) {
  net.send(makeMsg(3, 3));
  sim.run();
  ASSERT_EQ(eps[3].received.size(), 1u);
  EXPECT_LE(sim.now(), 2u);
  EXPECT_EQ(net.totalBytes(), 0u);  // no link traversed
}

TEST_F(TorusFixture, AllPairsDeliver) {
  int expected = 0;
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId d = 0; d < 8; ++d) {
      net.send(makeMsg(s, d));
      ++expected;
    }
  }
  sim.run();
  int got = 0;
  for (auto& ep : eps) got += static_cast<int>(ep.received.size());
  EXPECT_EQ(got, expected);
}

TEST_F(TorusFixture, BandwidthAccounting) {
  Message m = makeMsg(0, 1, MsgType::kData);
  m.hasData = true;
  net.send(m);
  sim.run();
  // One hop for adjacent nodes: bytes on exactly one link.
  EXPECT_EQ(net.totalBytes(), m.sizeBytes());
  EXPECT_EQ(net.maxLinkBytes(), m.sizeBytes());
}

TEST_F(TorusFixture, SerializationDelaysBackToBackMessages) {
  // Two data messages over the same link: the second serializes behind the
  // first (72 bytes at 1.25 B/cycle ~ 58 cycles each).
  Message a = makeMsg(0, 1, MsgType::kData);
  a.hasData = true;
  net.send(a);
  net.send(a);
  sim.run();
  ASSERT_EQ(eps[1].received.size(), 2u);
  EXPECT_GT(sim.now(), 100u);
}

TEST_F(TorusFixture, ResetStatsClearsCounters) {
  net.send(makeMsg(0, 2));
  sim.run();
  EXPECT_GT(net.totalBytes(), 0u);
  net.resetStats();
  EXPECT_EQ(net.totalBytes(), 0u);
  EXPECT_EQ(net.messagesSent(), 0u);
}

TEST_F(TorusFixture, FaultFilterDrop) {
  net.setFaultFilter([](Message&) { return NetFaultAction::kDrop; });
  net.send(makeMsg(0, 4));
  sim.run();
  EXPECT_TRUE(eps[4].received.empty());
}

TEST_F(TorusFixture, FaultFilterDuplicate) {
  bool once = false;
  net.setFaultFilter([&once](Message&) {
    if (once) return NetFaultAction::kDeliver;
    once = true;
    return NetFaultAction::kDuplicate;
  });
  net.send(makeMsg(0, 4));
  sim.run();
  EXPECT_EQ(eps[4].received.size(), 2u);
}

TEST_F(TorusFixture, FaultFilterMisroute) {
  net.setFaultFilter([](Message& m) {
    m.dest = 6;
    return NetFaultAction::kDeliver;
  });
  net.send(makeMsg(0, 4));
  sim.run();
  EXPECT_TRUE(eps[4].received.empty());
  EXPECT_EQ(eps[6].received.size(), 1u);
}

TEST_F(TorusFixture, EpochBumpSquashesInFlight) {
  net.send(makeMsg(0, 7));
  sim.step();  // let the message start traversing
  net.bumpEpoch();
  sim.run();
  EXPECT_TRUE(eps[7].received.empty());
  // New messages after the bump still deliver.
  net.send(makeMsg(0, 7));
  sim.run();
  EXPECT_EQ(eps[7].received.size(), 1u);
}

TEST(TorusRecovery, FreshMessageAfterABumpSeesAnIdleNetwork) {
  // A data message from 0 to 6 crosses three links. Its latency behind a
  // squashed backlog of 20 on the same route must be its latency alone:
  // the bump releases the links, and no squashed message reserves one
  // further down the route.
  auto latency = [](int backlog) {
    Simulator sim;
    TorusNetwork net(sim, 8);
    std::vector<ArrivalClock> clocks(8, ArrivalClock(sim));
    for (NodeId n = 0; n < 8; ++n) net.attach(n, &clocks[n]);
    Message m;
    m.type = MsgType::kData;
    m.hasData = true;
    m.src = 0;
    m.dest = 6;
    for (int i = 0; i < backlog; ++i) net.send(m);
    sim.run(100);
    net.bumpEpoch();
    const Cycle sent = sim.now();
    net.send(m);
    sim.run();
    EXPECT_EQ(clocks[6].arrivals.size(), 1u) << "backlog " << backlog;
    return clocks[6].arrivals.back() - sent;
  };
  EXPECT_EQ(latency(20), latency(0));
}

TEST(TorusSizes, SingleNodeWorks) {
  Simulator sim;
  TorusNetwork net(sim, 1);
  Recorder ep;
  net.attach(0, &ep);
  Message m;
  m.src = 0;
  m.dest = 0;
  net.send(m);
  sim.run();
  EXPECT_EQ(ep.received.size(), 1u);
}

class TorusAllSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TorusAllSizes, AllPairsConnectivity) {
  const std::size_t n = GetParam();
  Simulator sim;
  TorusNetwork net(sim, n);
  std::vector<Recorder> eps(n);
  for (NodeId i = 0; i < n; ++i) net.attach(i, &eps[i]);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      Message m;
      m.src = s;
      m.dest = d;
      net.send(m);
    }
  }
  sim.run();
  for (NodeId d = 0; d < n; ++d) {
    EXPECT_EQ(eps[d].received.size(), n) << "dest " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TorusAllSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16));

// ---------------------------------------------------------------------------
// Broadcast tree
// ---------------------------------------------------------------------------

struct TreeFixture : ::testing::Test {
  TreeFixture() : tree(sim, 4, TorusConfig{}.bytesPerCycle) {
    for (NodeId n = 0; n < 4; ++n) tree.attach(n, &eps[n]);
  }
  Simulator sim;
  BroadcastTree tree;
  Recorder eps[4];
};

TEST_F(TreeFixture, BroadcastReachesEveryNode) {
  Message m;
  m.type = MsgType::kSnpGetS;
  m.src = 2;
  m.addr = 0x40;
  tree.broadcast(m);
  sim.run();
  for (auto& ep : eps) {
    ASSERT_EQ(ep.received.size(), 1u);
    EXPECT_EQ(ep.received[0].src, 2u);
  }
}

TEST_F(TreeFixture, TotalOrderIsIdenticalEverywhere) {
  for (int i = 0; i < 20; ++i) {
    Message m;
    m.type = MsgType::kSnpGetM;
    m.src = static_cast<NodeId>(i % 4);
    m.addr = static_cast<Addr>(i) * kBlockSizeBytes;
    tree.broadcast(m);
  }
  sim.run();
  for (auto& ep : eps) {
    ASSERT_EQ(ep.received.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(ep.received[i].snoopOrder, static_cast<std::uint64_t>(i));
      EXPECT_EQ(ep.received[i].addr, eps[0].received[i].addr);
    }
  }
}

TEST_F(TreeFixture, OrderAssignedByArbitrationNotIssueOrder) {
  // Two broadcasts in the same cycle: ranks are consecutive and stable.
  Message a, b;
  a.type = b.type = MsgType::kSnpGetS;
  a.src = 0;
  b.src = 1;
  a.addr = 0x40;
  b.addr = 0x80;
  tree.broadcast(a);
  tree.broadcast(b);
  sim.run();
  ASSERT_EQ(eps[2].received.size(), 2u);
  EXPECT_EQ(eps[2].received[0].addr, 0x40u);
  EXPECT_EQ(eps[2].received[1].addr, 0x80u);
}

TEST_F(TreeFixture, EpochBumpSquashesBroadcast) {
  Message m;
  m.type = MsgType::kSnpGetS;
  m.src = 0;
  tree.broadcast(m);
  tree.bumpEpoch();
  sim.run();
  for (auto& ep : eps) EXPECT_TRUE(ep.received.empty());
}

TEST(TreeRecovery, FreshBroadcastAfterABumpSeesAnIdleRoot) {
  // A broadcast after the bump is not arbitrated behind the squashed ones.
  auto latency = [](int backlog) {
    Simulator sim;
    BroadcastTree tree(sim, 4, TorusConfig{}.bytesPerCycle);
    std::vector<ArrivalClock> clocks(4, ArrivalClock(sim));
    for (NodeId n = 0; n < 4; ++n) tree.attach(n, &clocks[n]);
    Message m;
    m.type = MsgType::kSnpGetM;
    m.src = 1;
    for (int i = 0; i < backlog; ++i) tree.broadcast(m);
    sim.run(5);
    tree.bumpEpoch();
    const Cycle sent = sim.now();
    tree.broadcast(m);
    sim.run();
    EXPECT_EQ(clocks[2].arrivals.size(), 1u) << "backlog " << backlog;
    return clocks[2].arrivals.back() - sent;
  };
  EXPECT_EQ(latency(50), latency(0));
}

TEST_F(TreeFixture, DelayFaultKeepsSlotButDeliversLate) {
  // The reordering fault: a delayed broadcast keeps its rank but arrives
  // after a later-ranked broadcast.
  bool armed = true;
  tree.setFaultFilter([&armed](Message&) {
    if (!armed) return NetFaultAction::kDeliver;
    armed = false;
    return NetFaultAction::kDelay;
  });
  Message first, second;
  first.type = second.type = MsgType::kSnpGetM;
  first.src = 0;
  first.addr = 0x40;
  second.src = 1;
  second.addr = 0x80;
  tree.broadcast(first);   // delayed, rank 0
  tree.broadcast(second);  // rank 1, arrives first
  sim.run();
  ASSERT_EQ(eps[3].received.size(), 2u);
  EXPECT_EQ(eps[3].received[0].snoopOrder, 1u);  // arrival inverted
  EXPECT_EQ(eps[3].received[1].snoopOrder, 0u);
}

// ---------------------------------------------------------------------------
// Message sizes
// ---------------------------------------------------------------------------

TEST(MessageSize, ControlVsData) {
  Message ctrl;
  ctrl.type = MsgType::kGetS;
  Message data;
  data.type = MsgType::kData;
  data.hasData = true;
  EXPECT_EQ(ctrl.sizeBytes(), 8u);
  EXPECT_EQ(data.sizeBytes(), 8u + kBlockSizeBytes);
}

TEST(MessageSize, InformSizes) {
  Message full;
  full.type = MsgType::kInformEpoch;
  Message open;
  open.type = MsgType::kInformOpenEpoch;
  Message closed;
  closed.type = MsgType::kInformClosedEpoch;
  EXPECT_EQ(full.sizeBytes(), 16u);
  EXPECT_EQ(open.sizeBytes(), 12u);
  EXPECT_EQ(closed.sizeBytes(), 10u);
}

TEST(MessageSize, CarriesDataClassification) {
  EXPECT_TRUE(msgCarriesData(MsgType::kData));
  EXPECT_TRUE(msgCarriesData(MsgType::kPutM));
  EXPECT_FALSE(msgCarriesData(MsgType::kGetS));
  EXPECT_FALSE(msgCarriesData(MsgType::kInformEpoch));
}


TEST_F(TorusFixture, CheckerTrafficYieldsWhenEnabled) {
  // With yielding on, an inform injected while the first link is busy
  // waits; a coherence message injected later overtakes it.
  Simulator sim2;
  TorusConfig cfg;
  cfg.yieldCheckerTraffic = true;
  TorusNetwork net2(sim2, 4, cfg);
  std::vector<Recorder> eps2(4);
  for (NodeId n = 0; n < 4; ++n) net2.attach(n, &eps2[n]);

  // Occupy node 0's eastward link with a data burst.
  Message burst;
  burst.type = MsgType::kData;
  burst.hasData = true;
  burst.src = 0;
  burst.dest = 1;
  net2.send(burst);

  Message inform;
  inform.type = MsgType::kInformEpoch;
  inform.src = 0;
  inform.dest = 1;
  net2.send(inform);  // link busy: held at the source

  Message getS;
  getS.type = MsgType::kGetS;
  getS.src = 0;
  getS.dest = 1;
  net2.send(getS);

  sim2.run();
  ASSERT_EQ(eps2[1].received.size(), 3u);
  EXPECT_EQ(eps2[1].received[0].type, MsgType::kData);
  // The coherence request overtook the yielded inform.
  EXPECT_EQ(eps2[1].received[1].type, MsgType::kGetS);
  EXPECT_EQ(eps2[1].received[2].type, MsgType::kInformEpoch);
}

TEST_F(TorusFixture, CheckerTrafficNotYieldedByDefault) {
  Message burst;
  burst.type = MsgType::kData;
  burst.hasData = true;
  burst.src = 0;
  burst.dest = 1;
  net.send(burst);
  Message inform;
  inform.type = MsgType::kInformEpoch;
  inform.src = 0;
  inform.dest = 1;
  net.send(inform);
  Message getS;
  getS.type = MsgType::kGetS;
  getS.src = 0;
  getS.dest = 1;
  net.send(getS);
  sim.run();
  ASSERT_EQ(eps[1].received.size(), 3u);
  EXPECT_EQ(eps[1].received[1].type, MsgType::kInformEpoch);  // FIFO
  EXPECT_EQ(eps[1].received[2].type, MsgType::kGetS);
}

}  // namespace
}  // namespace dvmc
