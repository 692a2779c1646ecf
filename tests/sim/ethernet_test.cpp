// Shared-Ethernet model: broadcast, serialization at bandwidth, frame-size
// limit, loss injection, partitions, crash semantics.
#include <gtest/gtest.h>

#include "sim/ethernet.hpp"

namespace eternal::sim {
namespace {

using util::Bytes;
using util::Duration;
using util::NodeId;

struct Recorder : Station {
  std::vector<std::pair<NodeId, Bytes>> frames;
  std::vector<util::TimePoint> times;
  Simulator* sim = nullptr;
  void on_frame(NodeId from, const util::SharedBytes& payload) override {
    frames.emplace_back(from, Bytes(payload.begin(), payload.end()));
    if (sim != nullptr) times.push_back(sim->now());
  }
};

struct EthernetTest : ::testing::Test {
  Simulator sim;
  Ethernet ether{sim, EthernetConfig{}};
  Recorder a, b, c;

  void SetUp() override {
    a.sim = b.sim = c.sim = &sim;
    ether.attach(NodeId{1}, &a);
    ether.attach(NodeId{2}, &b);
    ether.attach(NodeId{3}, &c);
  }
};

TEST_F(EthernetTest, BroadcastReachesAllOthersNotSender) {
  ether.broadcast(NodeId{1}, Bytes{1, 2, 3});
  sim.run();
  EXPECT_TRUE(a.frames.empty());
  ASSERT_EQ(b.frames.size(), 1u);
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(b.frames[0].second, (Bytes{1, 2, 3}));
  EXPECT_EQ(b.frames[0].first, NodeId{1});
}

TEST_F(EthernetTest, OversizedPayloadRejected) {
  EXPECT_THROW(ether.broadcast(NodeId{1}, Bytes(ether.max_payload() + 1, 0)), std::length_error);
}

TEST_F(EthernetTest, MaxPayloadFitsFrame) {
  ether.broadcast(NodeId{1}, Bytes(ether.max_payload(), 0x7E));
  sim.run();
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(b.frames[0].second.size(), ether.max_payload());
}

TEST_F(EthernetTest, MediumSerializesFrames) {
  // Two back-to-back max frames: second arrives one tx-time later.
  ether.broadcast(NodeId{1}, Bytes(1000, 1));
  ether.broadcast(NodeId{2}, Bytes(1000, 2));
  sim.run();
  ASSERT_EQ(c.times.size(), 2u);
  const Duration gap = c.times[1] - c.times[0];
  EXPECT_EQ(gap, ether.frame_tx_time(1000));
}

TEST_F(EthernetTest, BandwidthMatches100Mbps) {
  // 1000 payload + 18 header + 20 gap = 1038 bytes = 8304 bits @ 100 Mbps.
  const Duration tx = ether.frame_tx_time(1000);
  EXPECT_NEAR(static_cast<double>(tx.count()), 8304.0 / 100e6 * 1e9, 1.0);
}

TEST_F(EthernetTest, DetachedStationGetsNothingAndCannotSend) {
  ether.detach(NodeId{2});
  ether.broadcast(NodeId{1}, Bytes{5});
  ether.broadcast(NodeId{2}, Bytes{6});  // crashed node transmits nothing
  sim.run();
  EXPECT_TRUE(b.frames.empty());
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].second, (Bytes{5}));
}

TEST_F(EthernetTest, CrashMidFlightDropsDelivery) {
  ether.broadcast(NodeId{1}, Bytes{9});
  ether.detach(NodeId{2});  // before the arrival event fires
  sim.run();
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST_F(EthernetTest, PartitionSplitsDelivery) {
  ether.set_partition({NodeId{3}}, 1);
  ether.broadcast(NodeId{1}, Bytes{1});
  sim.run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(c.frames.empty());

  ether.heal_partition();
  ether.broadcast(NodeId{1}, Bytes{2});
  sim.run();
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST_F(EthernetTest, LossInjectionDropsSomeFrames) {
  ether.set_loss_probability(0.5);
  for (int i = 0; i < 200; ++i) ether.broadcast(NodeId{1}, Bytes{static_cast<uint8_t>(i)});
  sim.run();
  // Per-receiver independent loss: roughly half arrive.
  EXPECT_GT(b.frames.size(), 50u);
  EXPECT_LT(b.frames.size(), 150u);
  EXPECT_GT(ether.stats().frames_dropped, 0u);
}

TEST_F(EthernetTest, StatsAccumulate) {
  ether.broadcast(NodeId{1}, Bytes(100, 0));
  sim.run();
  EXPECT_EQ(ether.stats().frames_sent, 1u);
  EXPECT_EQ(ether.stats().payload_bytes, 100u);
  EXPECT_GT(ether.stats().bytes_sent, 100u);  // framing overhead counted
}

TEST_F(EthernetTest, ReattachAfterCrashReceivesAgain) {
  ether.detach(NodeId{2});
  ether.broadcast(NodeId{1}, Bytes{1});
  sim.run();
  EXPECT_TRUE(b.frames.empty());
  ether.attach(NodeId{2}, &b);
  ether.broadcast(NodeId{1}, Bytes{2});
  sim.run();
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(b.frames[0].second, (Bytes{2}));
}

}  // namespace
}  // namespace eternal::sim
