// The mini-ORB over the plain TCP fabric (no Eternal anywhere): invocation
// round trips, per-connection request_id behaviour, reply matching and
// discard, the vendor handshake, code-set selection, POA serialization,
// exceptions, oneways.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "orb/orb.hpp"
#include "orb/sync_servant.hpp"
#include "orb/transport.hpp"
#include "sim/simulator.hpp"

namespace eternal::orb {
namespace {

using util::Bytes;
using util::Duration;
using util::NodeId;

class EchoServant : public SyncServant {
 public:
  explicit EchoServant(sim::Simulator& sim, Duration exec = Duration(100'000))
      : SyncServant(sim), exec_(exec) {}
  int calls = 0;

 protected:
  Bytes serve(const std::string& operation, util::BytesView args) override {
    ++calls;
    if (operation == "fail") throw UserException{"IDL:Test/Boom:1.0"};
    return Bytes(args.begin(), args.end());
  }
  Duration execution_time(const std::string&) const override { return exec_; }

 private:
  Duration exec_;
};

struct OrbPair {
  explicit OrbPair(OrbConfig client_cfg = OrbConfig{}, OrbConfig server_cfg = OrbConfig{})
      : client(sim, NodeId{1}, client_cfg), server(sim, NodeId{2}, server_cfg) {
    client.plug_transport(net.bind(client.local_endpoint(), client));
    server.plug_transport(net.bind(server.local_endpoint(), server));
    servant = std::make_shared<EchoServant>(sim);
    ior = server.root_poa().activate("echo", servant, "IDL:Echo:1.0");
    ref = client.resolve(ior);
  }

  ReplyOutcome call(const std::string& op, Bytes args) {
    ReplyOutcome out;
    bool done = false;
    ref.invoke(op, std::move(args), [&](const ReplyOutcome& o) {
      out = o;
      done = true;
    });
    sim.run_until(sim.now() + Duration(1'000'000'000));
    EXPECT_TRUE(done);
    return out;
  }

  sim::Simulator sim;
  TcpNetwork net{sim};
  Orb client;
  Orb server;
  std::shared_ptr<EchoServant> servant;
  giop::Ior ior;
  ObjectRef ref;
};

TEST(Orb, TwoWayInvocationRoundTrip) {
  OrbPair pair;
  const ReplyOutcome out = pair.call("echo", util::bytes_of("payload"));
  EXPECT_EQ(out.status, giop::ReplyStatus::kNoException);
  EXPECT_EQ(util::text_of(out.body), "payload");
  EXPECT_EQ(pair.servant->calls, 1);
}

TEST(Orb, UserExceptionPropagates) {
  OrbPair pair;
  const ReplyOutcome out = pair.call("fail", Bytes{1});
  EXPECT_EQ(out.status, giop::ReplyStatus::kUserException);
}

TEST(Orb, UnknownObjectYieldsSystemException) {
  OrbPair pair;
  giop::Ior bogus = pair.ior;
  bogus.object_key = util::bytes_of("no-such-object");
  ObjectRef ref = pair.client.resolve(bogus);
  ReplyOutcome out;
  bool done = false;
  ref.invoke("echo", Bytes{}, [&](const ReplyOutcome& o) {
    out = o;
    done = true;
  });
  pair.sim.run_until(pair.sim.now() + Duration(1'000'000'000));
  ASSERT_TRUE(done);
  EXPECT_EQ(out.status, giop::ReplyStatus::kSystemException);
}

TEST(Orb, OnewayDeliversWithoutReply) {
  OrbPair pair;
  pair.ref.oneway("note", util::bytes_of("x"));
  pair.sim.run_until(pair.sim.now() + Duration(10'000'000));
  EXPECT_EQ(pair.servant->calls, 1);
  EXPECT_EQ(pair.client.stats().oneways_sent, 1u);
  EXPECT_EQ(pair.client.outstanding_requests(), 0u);
}

TEST(Orb, RequestIdsIncrementPerConnection) {
  OrbPair pair;
  for (int i = 0; i < 5; ++i) pair.call("echo", Bytes{1});
  auto next = testing::OrbProbe::next_request_id(pair.client,
                                                 Endpoint{NodeId{2}, 2809});
  ASSERT_TRUE(next.has_value());
  // Same-vendor ORBs handshake first (consuming id 0), then 5 requests.
  EXPECT_EQ(*next, 6u);
}

TEST(Orb, MismatchedReplyIsDiscarded) {
  // The §4.2.1 behaviour in isolation: a reply whose request_id matches no
  // outstanding request must be dropped by the client ORB.
  sim::Simulator sim;
  Orb client(sim, NodeId{1}, OrbConfig{});
  TcpNetwork net{sim};
  client.plug_transport(net.bind(client.local_endpoint(), client));

  // Forge a connection by invoking a never-answering endpoint.
  giop::Ior ior;
  ior.type_id = "IDL:Void:1.0";
  ior.host = NodeId{9};
  ior.port = 2809;
  ior.object_key = util::bytes_of("void");
  ior.orb_vendor = 0;  // different vendor: no handshake
  bool replied = false;
  client.resolve(ior).invoke("op", Bytes{}, [&](const ReplyOutcome&) { replied = true; });
  sim.run_until(sim.now() + Duration(1'000'000));

  giop::Reply bogus;
  bogus.request_id = 12345;  // nothing outstanding with this id
  client.on_message(Endpoint{NodeId{9}, 2809}, giop::encode(bogus));
  sim.run_until(sim.now() + Duration(1'000'000));

  EXPECT_FALSE(replied);
  EXPECT_EQ(client.stats().replies_discarded_request_id, 1u);
  EXPECT_EQ(client.outstanding_requests(), 1u);  // still waiting (forever)
}

TEST(Orb, SameVendorNegotiatesShortKey) {
  OrbPair pair;
  pair.call("echo", Bytes{1});
  const Endpoint server_ep{NodeId{2}, 2809};
  auto key = testing::OrbProbe::negotiated_short_key(pair.client, server_ep);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ((*key)[0], 0xFE);  // short-key prefix
  EXPECT_EQ(pair.client.stats().handshakes_initiated, 1u);
  EXPECT_EQ(pair.server.stats().handshakes_served, 1u);
  EXPECT_TRUE(testing::OrbProbe::server_handshaken(pair.server, Endpoint{NodeId{1}, 2809}));
}

TEST(Orb, DifferentVendorSkipsHandshake) {
  OrbConfig server_cfg;
  server_cfg.vendor_id = 0x12345678;
  OrbPair pair(OrbConfig{}, server_cfg);
  const ReplyOutcome out = pair.call("echo", util::bytes_of("interop"));
  EXPECT_EQ(out.status, giop::ReplyStatus::kNoException);
  EXPECT_EQ(pair.client.stats().handshakes_initiated, 0u);
  EXPECT_FALSE(testing::OrbProbe::negotiated_short_key(pair.client, Endpoint{NodeId{2}, 2809})
                   .has_value());
}

TEST(Orb, ShortcutsDisabledByConfig) {
  OrbConfig client_cfg;
  client_cfg.vendor_shortcuts = false;
  OrbPair pair(client_cfg);
  const ReplyOutcome out = pair.call("echo", Bytes{1});
  EXPECT_EQ(out.status, giop::ReplyStatus::kNoException);
  EXPECT_EQ(pair.client.stats().handshakes_initiated, 0u);
}

TEST(Orb, UnknownShortKeyDiscarded) {
  // A short-key request on a connection the server never handshook (§4.2.2).
  OrbPair pair;
  giop::Request req;
  req.request_id = 7;
  req.object_key = Bytes{0xFE, 0, 0, 0, 1};
  req.operation = "echo";
  pair.server.on_message(Endpoint{NodeId{77}, 2809}, giop::encode(req));
  pair.sim.run_until(pair.sim.now() + Duration(1'000'000));
  EXPECT_EQ(pair.server.stats().requests_discarded_unknown_key, 1u);
  EXPECT_EQ(pair.servant->calls, 0);
}

TEST(Orb, CodeSetChosenFromIorComponent) {
  // Client prefers its native char set when the server's IOR advertises it.
  OrbConfig client_cfg;
  client_cfg.code_sets.native_char = giop::CodeSet::kUtf8;
  OrbConfig server_cfg;
  server_cfg.vendor_id = 0x12345678;  // different vendor: pure IOR-driven path
  server_cfg.code_sets.native_char = giop::CodeSet::kUtf8;
  OrbPair pair(client_cfg, server_cfg);
  pair.call("echo", Bytes{1});
  auto cs = testing::OrbProbe::client_char_code_set(pair.client, Endpoint{NodeId{2}, 2809});
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(*cs, giop::CodeSet::kUtf8);
}

TEST(Orb, CodeSetFallsBackToIso) {
  OrbConfig client_cfg;
  client_cfg.code_sets.native_char = giop::CodeSet::kUtf8;
  OrbConfig server_cfg;
  server_cfg.vendor_id = 0x12345678;
  server_cfg.code_sets.native_char = giop::CodeSet::kEbcdic;  // no overlap with client
  OrbPair pair(client_cfg, server_cfg);
  pair.call("echo", Bytes{1});
  auto cs = testing::OrbProbe::client_char_code_set(pair.client, Endpoint{NodeId{2}, 2809});
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(*cs, giop::CodeSet::kIso8859_1);
}

TEST(Orb, PoaSerializesConcurrentRequests) {
  OrbPair pair;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    pair.ref.invoke("echo", Bytes{static_cast<std::uint8_t>(i)},
                    [&](const ReplyOutcome&) { ++done; });
  }
  // Single-threaded POA: ~3 x 100 us execution, serialized.
  pair.sim.run_until(pair.sim.now() + Duration(150'000));
  EXPECT_LT(pair.servant->calls, 3);
  pair.sim.run_until(pair.sim.now() + Duration(2'000'000'000));
  EXPECT_EQ(done, 3);
  EXPECT_EQ(pair.servant->calls, 3);
}

TEST(Orb, DeactivatedObjectStopsServing) {
  OrbPair pair;
  pair.call("echo", Bytes{1});
  pair.server.root_poa().deactivate("echo");
  EXPECT_FALSE(pair.server.root_poa().is_active("echo"));
  const ReplyOutcome out = pair.call("echo", Bytes{2});
  EXPECT_EQ(out.status, giop::ReplyStatus::kSystemException);
}

TEST(Orb, ReservedObjectIdRejected) {
  OrbPair pair;
  EXPECT_THROW(pair.server.root_poa().activate("\xFEkey", pair.servant, "IDL:X:1.0"),
               std::invalid_argument);
  EXPECT_THROW(pair.server.root_poa().activate("\xFDkey", pair.servant, "IDL:X:1.0"),
               std::invalid_argument);
}

TEST(Orb, ResetConnectionsDropsOrbState) {
  OrbPair pair;
  pair.call("echo", Bytes{1});
  const Endpoint server_ep{NodeId{2}, 2809};
  ASSERT_TRUE(testing::OrbProbe::next_request_id(pair.client, server_ep).has_value());
  pair.client.reset_connections();
  EXPECT_FALSE(testing::OrbProbe::next_request_id(pair.client, server_ep).has_value());
  // A fresh "process" renegotiates from scratch and counts from zero again.
  pair.call("echo", Bytes{2});
  auto next = testing::OrbProbe::next_request_id(pair.client, server_ep);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 2u);  // handshake (0) + one request (1)
  EXPECT_EQ(pair.client.stats().handshakes_initiated, 2u);
}

TEST(Orb, InvokeOnNilReferenceThrows) {
  ObjectRef nil;
  EXPECT_THROW(nil.invoke("op", Bytes{}, nullptr), std::logic_error);
  EXPECT_THROW(nil.oneway("op", Bytes{}), std::logic_error);
}

TEST(Orb, MalformedInboundCountsDecodeError) {
  OrbPair pair;
  pair.server.on_message(Endpoint{NodeId{1}, 2809}, util::bytes_of("garbage"));
  pair.sim.run_until(pair.sim.now() + Duration(1'000'000));
  EXPECT_EQ(pair.server.stats().decode_errors, 1u);
}

// ---------------------------------------------------------------------------
// A dispatch resolves its object key once; its completion and execution
// gate then reach the object by handle. These pin that the handle finds
// what a lookup by key would find at that moment: nothing after a
// deactivation, the new object after a re-activation under the same key.

/// Holds every request until the test completes it through the POA's
/// execution gate.
class HeldServant : public Servant {
 public:
  std::vector<ServerRequestPtr> held;
  void invoke(ServerRequestPtr request) override { held.push_back(std::move(request)); }
  void finish(std::size_t i, std::uint8_t value) {
    ServerRequestPtr r = held.at(i);
    r->run_when_clear([r, value] { r->reply(Bytes{value}); });
  }
};

struct HeldPair : OrbPair {
  HeldPair() {
    held_ior = server.root_poa().activate("held", first, "IDL:Held:1.0");
    held_ref = client.resolve(held_ior);
  }
  /// Invokes on "held"; the outcome lands in `replies[tag]`.
  void invoke(std::uint8_t tag) {
    held_ref.invoke("op", Bytes{tag}, [this, tag](const ReplyOutcome& o) { replies[tag] = o; });
  }
  void settle() { sim.run_until(sim.now() + Duration(50'000'000)); }

  std::shared_ptr<HeldServant> first = std::make_shared<HeldServant>();
  giop::Ior held_ior;
  ObjectRef held_ref;
  std::map<std::uint8_t, ReplyOutcome> replies;
};

TEST(Orb, DeactivationMidDispatchLeavesTheDispatchWithoutAnObject) {
  HeldPair p;
  p.invoke(1);
  p.invoke(2);  // queued behind 1 (single-threaded POA)
  p.settle();
  ASSERT_EQ(p.first->held.size(), 1u);
  EXPECT_EQ(p.server.root_poa().busy_objects(), 1u);

  p.server.root_poa().deactivate("held");
  EXPECT_FALSE(p.server.root_poa().is_active("held"));
  EXPECT_EQ(p.server.root_poa().busy_objects(), 0u);
  // The in-flight body finds no object to order against and runs; its
  // reply still goes out. The queued request died with the object.
  p.first->finish(0, 41);
  p.settle();
  ASSERT_EQ(p.replies.count(1), 1u);
  EXPECT_EQ(p.replies[1].status, giop::ReplyStatus::kNoException);
  EXPECT_EQ(p.replies[1].body, (Bytes{41}));
  EXPECT_EQ(p.replies.count(2), 0u);
  EXPECT_EQ(p.first->held.size(), 1u);
  EXPECT_EQ(p.client.outstanding_requests(), 1u);

  p.invoke(3);
  p.settle();
  ASSERT_EQ(p.replies.count(3), 1u);
  EXPECT_EQ(p.replies[3].status, giop::ReplyStatus::kSystemException);
}

TEST(Orb, ReactivationUnderSameKeyReachesTheNewObject) {
  HeldPair p;
  p.invoke(1);
  p.settle();
  ASSERT_EQ(p.first->held.size(), 1u);

  auto second = std::make_shared<HeldServant>();
  p.server.root_poa().deactivate("held");
  p.server.root_poa().activate("held", second, "IDL:Held:1.0");
  EXPECT_TRUE(p.server.root_poa().is_active("held"));
  p.invoke(2);
  p.settle();
  EXPECT_EQ(p.first->held.size(), 1u);
  ASSERT_EQ(second->held.size(), 1u);

  // The old dispatch's gate and completion reach the object now active
  // under its key — the new one. Its ticket 0 passes the new object's gate
  // and its completion frees the new object's slot and advances its gate,
  // so the new object's own ticket 0 parks behind a gate already past it.
  p.first->finish(0, 41);
  p.settle();
  ASSERT_EQ(p.replies.count(1), 1u);
  EXPECT_EQ(p.replies[1].body, (Bytes{41}));
  EXPECT_EQ(p.server.root_poa().busy_objects(), 0u);
  second->finish(0, 42);
  p.settle();
  EXPECT_EQ(p.replies.count(2), 0u);

  // Later dispatches on the new object run normally.
  p.invoke(3);
  p.settle();
  ASSERT_EQ(second->held.size(), 2u);
  second->finish(1, 43);
  p.settle();
  ASSERT_EQ(p.replies.count(3), 1u);
  EXPECT_EQ(p.replies[3].body, (Bytes{43}));
  EXPECT_EQ(p.replies.count(2), 0u);
}

}  // namespace
}  // namespace eternal::orb
