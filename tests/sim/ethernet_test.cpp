// Shared-Ethernet model: broadcast, serialization at bandwidth, frame-size
// limit, loss injection, partitions, crash semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
#include <string>

#include "sim/ethernet.hpp"
#include "util/rng.hpp"

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

// ---------------------------------------------------------------------------
// One delivery event per broadcast. The event hands the frame to each
// receiver in the order fixed at send time; these tests pin that it behaves
// as one event per receiver at the same instant did.

/// A station on a segment of `n`, logging (receiver, payload byte) to a
/// log shared by the whole segment, and running `then` (if set) afterwards.
struct Logged : Station {
  NodeId id;
  std::vector<std::pair<NodeId, std::uint8_t>>* log = nullptr;
  std::function<void()> then;
  void on_frame(NodeId, const util::SharedBytes& payload) override {
    log->emplace_back(id, payload[0]);
    if (then) then();
  }
};

struct Segment {
  explicit Segment(std::size_t n, std::uint64_t loss_seed = 0x5eed)
      : ether(sim, EthernetConfig{}, loss_seed), stations(n) {
    for (std::size_t i = 0; i < n; ++i) {
      stations[i].id = NodeId{static_cast<std::uint32_t>(i + 1)};
      stations[i].log = &log;
      ether.attach(stations[i].id, &stations[i]);
    }
  }
  /// Receivers of the frame whose payload byte is `tag`, in delivery order.
  std::vector<NodeId> order_of(std::uint8_t tag) const {
    std::vector<NodeId> out;
    for (const auto& [node, t] : log) {
      if (t == tag) out.push_back(node);
    }
    return out;
  }

  Simulator sim;
  Ethernet ether;
  std::deque<Logged> stations;
  std::vector<std::pair<NodeId, std::uint8_t>> log;
};

TEST(EthernetBatch, OneEventDeliversEveryReceiverAtOneInstant) {
  Segment seg(16);  // 15 receivers: the inline list
  std::vector<util::TimePoint> at;
  for (Logged& st : seg.stations) st.then = [&] { at.push_back(seg.sim.now()); };
  seg.ether.broadcast(NodeId{1}, Bytes{7});
  seg.sim.run();
  EXPECT_EQ(seg.sim.events_executed(), 1u);
  EXPECT_EQ(seg.ether.stats().deliveries_coalesced, 14u);
  ASSERT_EQ(seg.log.size(), 15u);
  std::set<NodeId> seen;
  for (const auto& [node, tag] : seg.log) seen.insert(node);
  EXPECT_EQ(seen.size(), 15u);
  EXPECT_EQ(seen.count(NodeId{1}), 0u);
  EXPECT_EQ(std::set<util::TimePoint>(at.begin(), at.end()).size(), 1u);
}

TEST(EthernetBatch, OrderIsFixedAtSendTime) {
  // Every broadcast from one sender over one membership walks its
  // receivers in the same order, whatever joins or leaves in flight.
  Segment seg(6);
  seg.ether.broadcast(NodeId{1}, Bytes{1});
  seg.sim.run();
  const std::vector<NodeId> order = seg.order_of(1);
  ASSERT_EQ(order.size(), 5u);

  Logged late;
  late.id = NodeId{9};
  late.log = &seg.log;
  seg.ether.broadcast(NodeId{1}, Bytes{2});
  seg.ether.attach(late.id, &late);  // joined after the send: gets nothing
  seg.ether.detach(order[2]);        // crashed before arrival: skipped
  seg.sim.run();
  std::vector<NodeId> expected = order;
  expected.erase(expected.begin() + 2);
  EXPECT_EQ(seg.order_of(2), expected);
  EXPECT_EQ(seg.ether.stats().deliveries_coalesced, 4u + 4u);  // detached still counted
}

TEST(EthernetBatch, DetachOrReattachMidBatchActsOnLaterReceivers) {
  Segment seg(6);
  seg.ether.broadcast(NodeId{1}, Bytes{1});
  seg.sim.run();
  const std::vector<NodeId> order = seg.order_of(1);
  ASSERT_EQ(order.size(), 5u);
  auto station = [&](NodeId n) -> Logged& { return seg.stations[n.value - 1]; };

  // The second receiver crashes the fourth and the first; only the later
  // one misses the frame. The third swaps in a new station for the fifth,
  // which receives it, as it would have from its own event.
  Logged replacement;
  replacement.id = order[4];
  replacement.log = &seg.log;
  station(order[1]).then = [&] {
    seg.ether.detach(order[3]);
    seg.ether.detach(order[0]);
  };
  station(order[2]).then = [&] { seg.ether.attach(order[4], &replacement); };
  seg.log.clear();
  seg.ether.broadcast(NodeId{1}, Bytes{2});
  seg.sim.run();
  EXPECT_EQ(seg.order_of(2), (std::vector<NodeId>{order[0], order[1], order[2], order[4]}));
}

TEST(EthernetBatch, PartitionsAndLossAreDecidedAtSendTime) {
  Segment seg(8);
  seg.ether.set_partition({NodeId{5}, NodeId{6}, NodeId{7}, NodeId{8}}, 1);
  seg.ether.broadcast(NodeId{1}, Bytes{1});
  seg.ether.heal_partition();  // in flight: the frame stays in its component
  seg.sim.run();
  std::vector<NodeId> got = seg.order_of(1);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{NodeId{2}, NodeId{3}, NodeId{4}}));

  // Loss is drawn per receiver at the send, in receiver order: the drops
  // are counted before anything arrives, and raising the loss rate in
  // flight loses nothing more.
  seg.ether.set_loss_probability(0.5);
  for (std::uint8_t i = 0; i < 40; ++i) {
    seg.ether.broadcast(NodeId{1}, Bytes{static_cast<std::uint8_t>(10 + i)});
  }
  const std::uint64_t dropped = seg.ether.stats().frames_dropped;
  EXPECT_GT(dropped, 0u);
  seg.ether.set_loss_probability(1.0);
  seg.sim.run();
  EXPECT_EQ(seg.ether.stats().frames_dropped, dropped);
  EXPECT_EQ(seg.log.size() - 3, 40u * 7u - dropped);
}

TEST(EthernetBatch, LossIsDrawnInDeliveryOrder) {
  // One loss draw per receiver, in the order the frame is then handed
  // out: replaying the segment's RNG over the full delivery order
  // predicts exactly who receives each frame.
  constexpr std::uint64_t kSeed = 0xC0FFEE;
  Segment seg(40, kSeed);  // 39 receivers: the spilled list
  seg.ether.broadcast(NodeId{1}, Bytes{0});
  seg.sim.run();
  const std::vector<NodeId> order = seg.order_of(0);
  ASSERT_EQ(order.size(), 39u);

  seg.ether.set_loss_probability(0.3);
  util::Rng replay(kSeed);
  for (std::uint8_t f = 1; f <= 20; ++f) {
    seg.ether.broadcast(NodeId{1}, Bytes{f});
    seg.sim.run();
    std::vector<NodeId> expected;
    for (NodeId n : order) {
      if (!replay.chance(0.3)) expected.push_back(n);
    }
    EXPECT_EQ(seg.order_of(f), expected) << "frame " << int{f};
  }
}

TEST(EthernetBatch, ReceiversPastTheInlineListSpillInOrder) {
  // 39 receivers overflow the event's inline list. The spilled list keeps
  // the send-time order: the receivers it shares with a 15-receiver
  // (inline) broadcast come in the same relative order.
  Segment seg(40);
  seg.ether.broadcast(NodeId{1}, Bytes{1});
  seg.sim.run();
  const std::vector<NodeId> all = seg.order_of(1);
  ASSERT_EQ(all.size(), 39u);
  EXPECT_EQ(std::set<NodeId>(all.begin(), all.end()).size(), 39u);
  EXPECT_EQ(seg.sim.events_executed(), 1u);
  EXPECT_EQ(seg.ether.stats().deliveries_coalesced, 38u);

  std::vector<NodeId> far;
  for (std::uint32_t n = 17; n <= 40; ++n) far.push_back(NodeId{n});
  seg.ether.set_partition(far, 1);
  seg.ether.broadcast(NodeId{1}, Bytes{2});
  seg.sim.run();
  std::vector<NodeId> near;
  for (NodeId n : all) {
    if (n.value <= 16) near.push_back(n);
  }
  EXPECT_EQ(seg.order_of(2), near);
  EXPECT_EQ(seg.sim.events_executed(), 2u);
}

TEST(EthernetBatch, ZeroDelayFollowUpsFireAfterTheWholeBatch) {
  // What a receiver schedules for the arrival instant runs after every
  // receiver has the frame, as it would after the last per-receiver event.
  Segment seg(5);
  std::vector<std::string> trail;
  for (Logged& st : seg.stations) {
    st.then = [&, id = st.id] {
      trail.push_back("rx" + std::to_string(id.value));
      seg.sim.defer([&, id] { trail.push_back("then" + std::to_string(id.value)); });
    };
  }
  seg.ether.broadcast(NodeId{1}, Bytes{1});
  seg.sim.run();
  const std::vector<NodeId> order = seg.order_of(1);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::string> expected;
  for (NodeId n : order) expected.push_back("rx" + std::to_string(n.value));
  for (NodeId n : order) expected.push_back("then" + std::to_string(n.value));
  EXPECT_EQ(trail, expected);
  EXPECT_EQ(seg.sim.events_executed(), 1u + 4u);
}

}  // namespace
}  // namespace eternal::sim
