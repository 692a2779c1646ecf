// GIOP object-location and connection-management messages.
#include <gtest/gtest.h>

#include "orb/orb.hpp"
#include "orb/sync_servant.hpp"
#include "orb/transport.hpp"

namespace eternal::orb {
namespace {

using util::Bytes;
using util::Duration;
using util::NodeId;

class Echo : public SyncServant {
 public:
  using SyncServant::SyncServant;

 protected:
  Bytes serve(const std::string&, util::BytesView args) override {
    return Bytes(args.begin(), args.end());
  }
};

struct LocateRig {
  sim::Simulator sim;
  TcpNetwork net{sim};
  Orb client{sim, NodeId{1}, OrbConfig{}};
  Orb server{sim, NodeId{2}, OrbConfig{}};
  std::vector<giop::LocateReply> locate_replies;

  struct Catcher : MessageSink {
    LocateRig* rig;
    void on_message(const Endpoint&, const util::SharedBytes& iiop) override {
      auto msg = giop::decode(iiop);
      if (msg && msg->type() == giop::MsgType::kLocateReply) {
        rig->locate_replies.push_back(std::get<giop::LocateReply>(msg->body));
      }
    }
  } catcher;

  Transport* raw = nullptr;

  LocateRig() {
    catcher.rig = this;
    client.plug_transport(net.bind(client.local_endpoint(), client));
    server.plug_transport(net.bind(server.local_endpoint(), server));
    raw = &net.bind(Endpoint{NodeId{9}, 9000}, catcher);
    server.root_poa().activate("present", std::make_shared<Echo>(sim), "IDL:E:1.0");
  }

  void locate(const std::string& key, std::uint32_t rid) {
    giop::LocateRequest req;
    req.request_id = rid;
    req.object_key = util::bytes_of(key);
    raw->send(Endpoint{NodeId{2}, 2809}, giop::encode(req));
    sim.run_until(sim.now() + Duration(5'000'000));
  }
};

TEST(OrbLocate, ObjectHereForActiveObject) {
  LocateRig rig;
  rig.locate("present", 31);
  ASSERT_EQ(rig.locate_replies.size(), 1u);
  EXPECT_EQ(rig.locate_replies[0].request_id, 31u);
  EXPECT_EQ(rig.locate_replies[0].locate_status, 1u);  // OBJECT_HERE
}

TEST(OrbLocate, UnknownObjectForMissingKey) {
  LocateRig rig;
  rig.locate("absent", 32);
  ASSERT_EQ(rig.locate_replies.size(), 1u);
  EXPECT_EQ(rig.locate_replies[0].locate_status, 0u);  // UNKNOWN_OBJECT
}

TEST(OrbLocate, DeactivationFlipsAnswer) {
  LocateRig rig;
  rig.locate("present", 1);
  rig.server.root_poa().deactivate("present");
  rig.locate("present", 2);
  ASSERT_EQ(rig.locate_replies.size(), 2u);
  EXPECT_EQ(rig.locate_replies[0].locate_status, 1u);
  EXPECT_EQ(rig.locate_replies[1].locate_status, 0u);
}

TEST(OrbLocate, CloseConnectionAndCancelTolerated) {
  LocateRig rig;
  rig.raw->send(Endpoint{NodeId{2}, 2809}, giop::encode(giop::CloseConnection{}));
  rig.raw->send(Endpoint{NodeId{2}, 2809}, giop::encode(giop::CancelRequest{5}));
  rig.raw->send(Endpoint{NodeId{2}, 2809}, giop::encode(giop::MessageError{}));
  rig.sim.run_until(rig.sim.now() + Duration(5'000'000));
  EXPECT_EQ(rig.server.stats().decode_errors, 0u);
  // The ORB still serves afterwards.
  rig.locate("present", 3);
  ASSERT_EQ(rig.locate_replies.size(), 1u);
}

}  // namespace
}  // namespace eternal::orb
