// Wire identity: representative encodings pinned to recorded hex.
//
// The GIOP, envelope and Totem encoders are on the per-message hot path and
// get tuned for host speed (exact-size buffers, in-place patches). None of
// that may change a single byte on the wire. This suite encodes one
// representative of every message shape — GIOP Request/Reply with and
// without service contexts in both byte orders (plus the header-only GIOP
// types), one envelope per EnvelopeKind, and every Totem frame kind — and
// compares the hex with the goldens in tests/data/wire_identity.txt. It
// also checks that each encoder allocated its buffer exactly once at the
// final size (capacity() == size()).
//
// The goldens change only with a deliberate wire-format change:
//
//   ETERNAL_WIRE_UPDATE=1 ./tests/wire_identity_test
//
// (run from the build tree; it rewrites the golden file in the source tree)
// and the reason goes into CHANGES.md.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/envelope.hpp"
#include "giop/giop.hpp"
#include "totem/frames.hpp"
#include "util/bytes.hpp"

#ifndef ETERNAL_TEST_DATA_DIR
#error "ETERNAL_TEST_DATA_DIR must name tests/data"
#endif

namespace eternal {
namespace {

using util::Bytes;
using util::ByteOrder;
using util::NodeId;

const std::string kGoldenPath = std::string(ETERNAL_TEST_DATA_DIR) + "/wire_identity.txt";

struct Sample {
  std::string name;
  Bytes wire;  ///< exactly as the encoder returned it (never copied)
};

const char* order_name(ByteOrder o) { return o == ByteOrder::kLittle ? "le" : "be"; }

giop::ServiceContextList two_contexts() {
  giop::ServiceContextList out;
  out.push_back(giop::ServiceContext{giop::kCodeSetsContextId, Bytes{1, 0, 0, 0, 1, 0, 1, 5, 1}});
  out.push_back(giop::ServiceContext{giop::kTraceContextId, Bytes{8, 7, 6, 5, 4, 3, 2, 1}});
  return out;
}

void add_giop(std::vector<Sample>& out) {
  for (ByteOrder order : {ByteOrder::kLittle, ByteOrder::kBig}) {
    const std::string o = order_name(order);
    for (bool ctx : {false, true}) {
      const std::string c = ctx ? "_ctx" : "";
      giop::Request req;
      if (ctx) req.service_context = two_contexts();
      req.request_id = 0x01020304;
      req.response_expected = true;
      req.object_key = util::bytes_of("bank/account-7");
      req.operation = "deposit";
      req.body = Bytes{0, 0, 0, 0, 0x10, 0x27, 0, 0, 0xAB};
      out.push_back(Sample{"giop_request" + c + "_" + o, giop::encode(req, order)});

      giop::Reply rep;
      if (ctx) rep.service_context = two_contexts();
      rep.request_id = 0xA0B0C0D0;
      rep.reply_status = ctx ? giop::ReplyStatus::kUserException : giop::ReplyStatus::kNoException;
      rep.body = Bytes{1, 0, 0, 0, 0x2A, 0, 0};
      out.push_back(Sample{"giop_reply" + c + "_" + o, giop::encode(rep, order)});
    }
    giop::Request oneway;
    oneway.request_id = 9;
    oneway.response_expected = false;
    oneway.object_key = Bytes{0xE7, 0, 0, 0, 3};
    oneway.operation = "_negotiate_session";
    out.push_back(Sample{"giop_request_oneway_" + o, giop::encode(oneway, order)});
    out.push_back(Sample{"giop_cancel_" + o, giop::encode(giop::CancelRequest{77}, order)});
    out.push_back(Sample{"giop_locate_request_" + o,
                         giop::encode(giop::LocateRequest{78, util::bytes_of("obj")}, order)});
    out.push_back(Sample{"giop_locate_reply_" + o, giop::encode(giop::LocateReply{79, 1}, order)});
    out.push_back(Sample{"giop_close_" + o, giop::encode(giop::CloseConnection{}, order)});
    out.push_back(Sample{"giop_error_" + o, giop::encode(giop::MessageError{}, order)});
  }
}

core::Envelope base_envelope(core::EnvelopeKind kind) {
  core::Envelope e;
  e.kind = kind;
  e.ring = 1;
  e.client_group = util::GroupId{11};
  e.target_group = util::GroupId{12};
  e.op_seq = 0x1122334455667788ULL;
  e.subject = util::ReplicaId{0x99};
  e.subject_node = NodeId{3};
  e.control_op = core::ControlOp::kAddReplica;
  e.delta_base = 5;
  return e;
}

void add_envelopes(std::vector<Sample>& out) {
  using K = core::EnvelopeKind;
  {
    core::Envelope e = base_envelope(K::kRequest);
    e.payload = Bytes{'G', 'I', 'O', 'P', 1, 0, 1, 0, 0, 0, 0, 0};
    out.push_back(Sample{"env_request", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kReply);
    e.payload = Bytes{'G', 'I', 'O', 'P', 1, 0, 1, 1, 0, 0, 0, 0, 7};
    out.push_back(Sample{"env_reply", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kGetState);
    out.push_back(Sample{"env_get_state", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kSetState);
    e.payload = Bytes(21, 0x5A);
    e.orb_state = Bytes{1, 2, 3};
    e.infra_state = Bytes{4, 5, 6, 7, 8};
    out.push_back(Sample{"env_set_state", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kCheckpoint);
    e.payload = Bytes(6, 0x33);
    e.orb_state = Bytes{9};
    e.infra_state = Bytes{10, 11};
    out.push_back(Sample{"env_checkpoint", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kControl);
    e.control_op = core::ControlOp::kCreateGroup;
    e.payload = core::encode_initial_members({{util::ReplicaId{1}, NodeId{1}},
                                              {util::ReplicaId{2}, NodeId{2}}});
    e.control_data = Bytes{0xC0, 0xDE};
    out.push_back(Sample{"env_control", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kStateChunk);
    e.chunk_index = 2;
    e.chunk_count = 5;
    e.payload = Bytes(17, 0xC4);
    out.push_back(Sample{"env_state_chunk", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kStateBulkDescriptor);
    e.chunk_count = 3;
    e.transfer_id = 0xBEEF;
    e.total_bytes = 2500;
    e.extent_bytes = 1024;
    e.extent_digests = {0x0102030405060708ULL, 0x1112131415161718ULL, 0x2122232425262728ULL};
    out.push_back(Sample{"env_bulk_descriptor", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kStateBulkComplete);
    e.chunk_count = 3;
    e.transfer_id = 0xBEEF;
    e.total_bytes = 2500;
    e.extent_bytes = 1024;
    out.push_back(Sample{"env_bulk_complete", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kBulkExtent);
    e.chunk_index = 2;
    e.chunk_count = 3;
    e.transfer_id = 0xBEEF;
    e.total_bytes = 2500;
    e.extent_bytes = 1024;
    e.payload = Bytes(452, 0xEE);
    out.push_back(Sample{"env_bulk_extent", core::encode_envelope(e)});
  }
  {
    core::Envelope e = base_envelope(K::kBulkAck);
    e.chunk_index = 1;
    e.chunk_count = 3;
    e.transfer_id = 0xBEEF;
    out.push_back(Sample{"env_bulk_ack", core::encode_envelope(e)});
  }
}

void add_frames(std::vector<Sample>& out) {
  const NodeId sender{4};
  {
    totem::DataFrame f;
    f.view = util::ViewId{3};
    f.ring_id = 0xFEEDFACE;
    f.origin = NodeId{2};
    f.seq = 1001;
    f.msg_id = 77;
    f.frag_index = 1;
    f.frag_count = 3;
    f.retransmission = true;
    f.authoritative = true;
    f.payload = Bytes{1, 2, 3, 4, 5, 6, 7};
    out.push_back(Sample{"frame_data", totem::encode_frame(sender, f)});
  }
  {
    totem::DataFrame f;
    f.view = util::ViewId{3};
    f.ring_id = 0xFEEDFACE;
    f.origin = NodeId{2};
    f.seq = 1002;
    f.msg_id = 78;
    f.batch_count = 2;
    f.payload = totem::pack_batch(std::vector<Bytes>{Bytes{9, 8, 7}, Bytes{6, 5}});
    out.push_back(Sample{"frame_data_batch", totem::encode_frame(sender, f)});
  }
  {
    totem::TokenFrame f;
    f.view = util::ViewId{3};
    f.ring_id = 0xFEEDFACE;
    f.target = NodeId{1};
    f.round = 400;
    f.next_seq = 1003;
    f.aru = 990;
    f.aru_setter = NodeId{2};
    f.flow_budget = 2;
    f.flow_setter = NodeId{3};
    f.rtr = {991, 995};
    out.push_back(Sample{"frame_token", totem::encode_frame(sender, f)});
  }
  {
    totem::JoinFrame f;
    f.alive = {NodeId{1}, NodeId{2}, NodeId{4}};
    f.highest_seq = 1002;
    f.highest_view = 3;
    f.ring_id = 0xFEEDFACE;
    out.push_back(Sample{"frame_join", totem::encode_frame(sender, f)});
  }
  {
    totem::CommitFrame f;
    f.new_view = util::ViewId{4};
    f.members = {NodeId{1}, NodeId{2}, NodeId{4}};
    f.base_seq = 1002;
    f.surviving_ring = 0xFEEDFACE;
    f.surviving_ancestors = {0xAAAA, 0xBBBB};
    out.push_back(Sample{"frame_commit", totem::encode_frame(sender, f)});
  }
  {
    totem::ReadyFrame f;
    f.new_view = util::ViewId{4};
    f.missing = {1000};
    f.held_seqs = {1001, 1002};
    f.held_digests = {0x1234, 0x5678};
    out.push_back(Sample{"frame_ready", totem::encode_frame(sender, f)});
  }
  {
    totem::InstallFrame f;
    f.new_view = util::ViewId{4};
    f.members = {NodeId{1}, NodeId{2}, NodeId{4}};
    f.next_seq = 1003;
    out.push_back(Sample{"frame_install", totem::encode_frame(sender, f)});
  }
  out.push_back(Sample{"frame_join_request", totem::encode_frame(sender, totem::JoinRequestFrame{})});
}

std::vector<Sample> samples() {
  std::vector<Sample> out;
  add_giop(out);
  add_envelopes(out);
  add_frames(out);
  return out;
}

std::string hex_of(const Bytes& b) { return util::to_hex(b, b.size()); }

std::map<std::string, std::string> load_goldens() {
  std::map<std::string, std::string> out;
  std::ifstream in(kGoldenPath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, hex;
    ls >> name >> hex;
    out[name] = hex;
  }
  return out;
}

TEST(WireIdentity, EncodingsMatchGoldens) {
  const std::vector<Sample> all = samples();
  if (std::getenv("ETERNAL_WIRE_UPDATE") != nullptr) {
    std::ofstream out(kGoldenPath);
    out << "# name hex — see tests/wire/wire_identity_test.cpp\n";
    for (const Sample& s : all) out << s.name << " " << hex_of(s.wire) << "\n";
    GTEST_SKIP() << "goldens rewritten: " << kGoldenPath;
  }
  const auto goldens = load_goldens();
  ASSERT_FALSE(goldens.empty()) << "no goldens at " << kGoldenPath;
  EXPECT_EQ(goldens.size(), all.size()) << "sample set and golden file disagree";
  for (const Sample& s : all) {
    auto it = goldens.find(s.name);
    ASSERT_NE(it, goldens.end()) << "no golden for " << s.name;
    EXPECT_EQ(hex_of(s.wire), it->second) << s.name << " changed on the wire";
  }
}

TEST(WireIdentity, EncodersAllocateExactly) {
  for (const Sample& s : samples()) {
    EXPECT_EQ(s.wire.capacity(), s.wire.size()) << s.name;
  }
}

TEST(WireIdentity, EverySampleDecodes) {
  // The goldens are only worth pinning if they are valid messages.
  for (const Sample& s : samples()) {
    if (s.name.rfind("giop_", 0) == 0) {
      EXPECT_TRUE(giop::decode(s.wire).has_value()) << s.name;
    } else if (s.name.rfind("env_", 0) == 0) {
      EXPECT_TRUE(core::decode_envelope(s.wire).has_value()) << s.name;
    } else {
      EXPECT_TRUE(totem::decode_frame(s.wire).has_value()) << s.name;
    }
  }
}

}  // namespace
}  // namespace eternal
