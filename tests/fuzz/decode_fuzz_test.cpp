// Decoder robustness sweeps: every wire decoder in the system must reject
// arbitrary byte soup (and mutated valid messages) without crashing,
// throwing through, or over-reading — these parsers sit directly on the
// (simulated) network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "core/envelope.hpp"
#include "core/group_table.hpp"
#include "core/stable_storage.hpp"
#include "core/state_snapshots.hpp"
#include "giop/giop.hpp"
#include "giop/ior.hpp"
#include "totem/frames.hpp"
#include "util/any.hpp"
#include "util/rng.hpp"

namespace eternal {
namespace {

using util::Bytes;
using util::Rng;

// Iteration budget for every fuzz sweep: ETERNAL_FUZZ_ITERS overrides the
// default so CI tiers can bound the work (and soak runs can raise it)
// without recompiling.
int fuzz_iters() {
  static const int iters = [] {
    if (const char* env = std::getenv("ETERNAL_FUZZ_ITERS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<int>(v);
    }
    return 500;
  }();
  return iters;
}

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class DecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// The trace id a decoded context list carries (the reference for
/// Inspection::trace_id): the first 8-byte kTraceContextId entry, read
/// little-endian, or 0.
std::uint64_t trace_id_of(const giop::ServiceContextList& contexts) {
  for (const auto& sc : contexts) {
    if (sc.context_id != giop::kTraceContextId || sc.data.size() != 8) continue;
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < 8; ++i) id |= std::uint64_t{sc.data[i]} << (8 * i);
    return id;
  }
  return 0;
}

/// giop::inspect is the header-only half of giop::decode: it must accept
/// exactly the inputs decode accepts and report the same header fields.
void expect_inspect_matches_decode(const Bytes& wire) {
  const std::optional<giop::Message> decoded = giop::decode(wire);
  const std::optional<giop::Inspection> info = giop::inspect(wire);
  ASSERT_EQ(info.has_value(), decoded.has_value()) << util::to_hex(wire);
  if (!decoded) return;
  EXPECT_EQ(info->type, decoded->type());
  EXPECT_EQ(info->order, decoded->order);
  const auto view_bytes = [](util::BytesView v) { return Bytes(v.begin(), v.end()); };
  const Bytes body = view_bytes(util::BytesView(wire).subspan(info->body_offset));
  switch (decoded->type()) {
    case giop::MsgType::kRequest: {
      const giop::Request& m = decoded->as_request();
      EXPECT_EQ(info->request_id, m.request_id);
      EXPECT_EQ(info->response_expected, m.response_expected);
      EXPECT_EQ(view_bytes(info->object_key), m.object_key);
      EXPECT_EQ(std::string(info->operation), m.operation);
      EXPECT_EQ(info->service_context(), m.service_context);
      EXPECT_EQ(info->trace_id(), trace_id_of(m.service_context));
      EXPECT_EQ(body, m.body);
      break;
    }
    case giop::MsgType::kReply: {
      const giop::Reply& m = decoded->as_reply();
      EXPECT_EQ(info->request_id, m.request_id);
      EXPECT_EQ(info->status, static_cast<std::uint32_t>(m.reply_status));
      EXPECT_EQ(info->service_context(), m.service_context);
      EXPECT_EQ(info->trace_id(), trace_id_of(m.service_context));
      EXPECT_EQ(body, m.body);
      break;
    }
    case giop::MsgType::kCancelRequest:
      EXPECT_EQ(info->request_id, std::get<giop::CancelRequest>(decoded->body).request_id);
      break;
    case giop::MsgType::kLocateRequest: {
      const auto& m = std::get<giop::LocateRequest>(decoded->body);
      EXPECT_EQ(info->request_id, m.request_id);
      EXPECT_EQ(view_bytes(info->object_key), m.object_key);
      break;
    }
    case giop::MsgType::kLocateReply: {
      const auto& m = std::get<giop::LocateReply>(decoded->body);
      EXPECT_EQ(info->request_id, m.request_id);
      EXPECT_EQ(info->status, m.locate_status);
      break;
    }
    default:
      break;
  }
}

/// A random message of every GIOP type, as giop::encode writes it.
Bytes random_giop(Rng& rng) {
  const auto order = rng.chance(0.5) ? util::ByteOrder::kLittle : util::ByteOrder::kBig;
  const auto contexts = [&] {
    giop::ServiceContextList out(rng.below(4));
    for (auto& sc : out) {
      // Mostly the trace context, so trace_id() sees hits and misfits.
      sc.context_id = rng.chance(0.5) ? giop::kTraceContextId : static_cast<std::uint32_t>(rng.next());
      sc.data = random_bytes(rng, rng.chance(0.5) ? 8 : 13);
    }
    return out;
  };
  const auto text = [&] {
    std::string out(rng.below(20), 'a');
    for (char& c : out) c = static_cast<char>('a' + rng.below(26));
    return out;
  };
  switch (rng.below(7)) {
    case 0: {
      giop::Request m;
      m.service_context = contexts();
      m.request_id = static_cast<std::uint32_t>(rng.next());
      m.response_expected = rng.chance(0.8);
      m.object_key = random_bytes(rng, 20);
      m.operation = text();
      m.body = random_bytes(rng, 40);
      return giop::encode(m, order);
    }
    case 1: {
      giop::Reply m;
      m.service_context = contexts();
      m.request_id = static_cast<std::uint32_t>(rng.next());
      m.reply_status = static_cast<giop::ReplyStatus>(rng.below(4));
      m.body = random_bytes(rng, 40);
      return giop::encode(m, order);
    }
    case 2: return giop::encode(giop::CancelRequest{static_cast<std::uint32_t>(rng.next())}, order);
    case 3:
      return giop::encode(giop::LocateRequest{static_cast<std::uint32_t>(rng.next()), random_bytes(rng, 20)},
                          order);
    case 4:
      return giop::encode(giop::LocateReply{static_cast<std::uint32_t>(rng.next()),
                                            static_cast<std::uint32_t>(rng.below(3))},
                          order);
    case 5: return giop::encode(giop::CloseConnection{}, order);
    default: return giop::encode(giop::MessageError{}, order);
  }
}

TEST_P(DecodeFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int i = 0; i < fuzz_iters(); ++i) {
    const Bytes junk = random_bytes(rng, 256);
    expect_inspect_matches_decode(junk);
    (void)giop::is_giop(junk);
    (void)giop::decode_ior(junk);
    (void)totem::decode_frame(junk);
    (void)core::decode_envelope(junk);
    (void)core::decode_descriptor(junk);
    (void)core::decode_orb_state(junk);
    (void)core::decode_infra_state(junk);
    (void)core::decode_initial_members(junk);
    try {
      (void)util::Any::from_bytes(junk);
    } catch (const util::CdrError&) {
      // the documented failure mode
    }
  }
}

TEST_P(DecodeFuzz, MutatedValidGiopNeverCrashes) {
  Rng rng(GetParam() ^ 0xFACE);
  giop::Request req;
  req.request_id = 7;
  req.object_key = util::bytes_of("object-key");
  req.operation = "operation_name";
  req.service_context.push_back(giop::ServiceContext{1, Bytes{1, 2, 3, 4}});
  req.body = Bytes(64, 0x5A);
  const Bytes valid = giop::encode(req);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = giop::decode(mutated);
    if (decoded && decoded->type() == giop::MsgType::kRequest) {
      // If it still decodes, the fields must at least be self-consistent
      // enough to re-encode without throwing.
      (void)giop::encode(decoded->as_request());
    }
    expect_inspect_matches_decode(mutated);
  }
}

TEST_P(DecodeFuzz, InspectAcceptsExactlyWhatDecodeAccepts) {
  Rng rng(GetParam() ^ 0x1D5EC7);
  for (int i = 0; i < fuzz_iters(); ++i) {
    const Bytes valid = random_giop(rng);
    expect_inspect_matches_decode(valid);
    ASSERT_TRUE(giop::inspect(valid).has_value());
    // Flipped bytes (the size, counts, lengths, status and NUL checks all
    // get hit) and truncations at every cut point.
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    expect_inspect_matches_decode(mutated);
    const Bytes cut(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(rng.below(valid.size())));
    expect_inspect_matches_decode(cut);
  }
}

TEST_P(DecodeFuzz, PatchedRequestIdEqualsDecodeReencode) {
  // The in-place request-id patch must produce exactly the bytes of
  // decode → set request_id → encode, for every message giop::encode
  // produces; for other types it refuses and leaves the bytes alone.
  Rng rng(GetParam() ^ 0xBA7C4);
  for (int i = 0; i < fuzz_iters() * 4; ++i) {
    const Bytes wire = random_giop(rng);
    const std::uint32_t rid = static_cast<std::uint32_t>(rng.next());
    Bytes patched = wire;
    const bool ok = giop::patch_request_id(patched, rid);
    std::optional<giop::Message> msg = giop::decode(wire);
    ASSERT_TRUE(msg.has_value());
    if (auto* req = std::get_if<giop::Request>(&msg->body)) {
      ASSERT_TRUE(ok);
      req->request_id = rid;
      EXPECT_EQ(patched, giop::encode(*req, msg->order));
    } else if (auto* rep = std::get_if<giop::Reply>(&msg->body)) {
      ASSERT_TRUE(ok);
      rep->request_id = rid;
      EXPECT_EQ(patched, giop::encode(*rep, msg->order));
    } else {
      EXPECT_FALSE(ok);
      EXPECT_EQ(patched, wire);
    }
  }
}

TEST_P(DecodeFuzz, MutatedValidTotemFramesNeverCrash) {
  Rng rng(GetParam() ^ 0x70CE);
  totem::DataFrame data;
  data.view = util::ViewId{3};
  data.seq = 99;
  data.payload = Bytes(48, 0xAB);
  const Bytes valid = totem::encode_frame(util::NodeId{2}, data);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    (void)totem::decode_frame(mutated);
  }
}

TEST_P(DecodeFuzz, MutatedValidBatchedFramesNeverCrash) {
  Rng rng(GetParam() ^ 0xBA7C);
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < 6; ++i) msgs.push_back(random_bytes(rng, 64));
  totem::DataFrame data;
  data.view = util::ViewId{3};
  data.seq = 99;
  data.batch_count = static_cast<std::uint32_t>(msgs.size());
  data.payload = totem::pack_batch(msgs);
  const Bytes valid = totem::encode_frame(util::NodeId{2}, data);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = totem::decode_frame(mutated);
    if (!decoded || decoded->type() != totem::FrameType::kData) continue;
    // A frame that survives decode must unpack cleanly or be rejected —
    // never crash or over-read (this is the deliver path's exact sequence).
    const auto& d = std::get<totem::DataFrame>(decoded->body);
    if (d.batch_count >= 2) (void)totem::unpack_batch(d.payload, d.batch_count);
  }
}

TEST_P(DecodeFuzz, RandomBlobsNeverCrashBatchUnpack) {
  Rng rng(GetParam() ^ 0xB10B);
  for (int i = 0; i < fuzz_iters(); ++i) {
    const Bytes blob = random_bytes(rng, 256);
    (void)totem::unpack_batch(blob, static_cast<std::uint32_t>(rng.below(300)));
    (void)totem::unpack_batch(blob, static_cast<std::uint32_t>(rng.next()));
  }
}

TEST_P(DecodeFuzz, MutatedValidEnvelopesNeverCrash) {
  Rng rng(GetParam() ^ 0xE7E4);
  core::Envelope env;
  env.kind = core::EnvelopeKind::kSetState;
  env.payload = Bytes(128, 1);
  env.orb_state = Bytes(32, 2);
  env.infra_state = Bytes(16, 3);
  const Bytes valid = core::encode_envelope(env);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    (void)core::decode_envelope(mutated);
  }
}

// The ring field rides every envelope (multi-ring routing, core/placement):
// delivery indexes per-ring endpoint tables with it, so any envelope that
// survives decode must carry ring < kMaxRings — in-range values round-trip
// exactly, out-of-range ones are rejected whole.
TEST_P(DecodeFuzz, RingFieldRoundTripsAndStaysBounded) {
  Rng rng(GetParam() ^ 0x4174);
  core::Envelope env;
  env.kind = core::EnvelopeKind::kRequest;
  env.client_group = util::GroupId{3};
  env.target_group = util::GroupId{9};
  env.op_seq = 12;
  env.payload = Bytes(64, 0x5A);

  for (std::uint32_t ring = 0; ring < core::kMaxRings; ++ring) {
    env.ring = ring;
    auto decoded = core::decode_envelope(core::encode_envelope(env));
    ASSERT_TRUE(decoded.has_value()) << "ring " << ring;
    EXPECT_EQ(decoded->ring, ring);
  }

  env.ring = core::kMaxRings;
  EXPECT_FALSE(core::decode_envelope(core::encode_envelope(env)).has_value());
  for (int i = 0; i < fuzz_iters(); ++i) {
    env.ring = core::kMaxRings + static_cast<std::uint32_t>(rng.next());
    if (env.ring < core::kMaxRings) continue;  // wrapped back in range
    EXPECT_FALSE(core::decode_envelope(core::encode_envelope(env)).has_value())
        << "ring " << env.ring;
  }

  // Byte-soup sweep: whatever mutation does to the wire image, a surviving
  // envelope never smuggles an out-of-range ring id through.
  env.ring = 1;
  const Bytes valid = core::encode_envelope(env);
  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    if (auto decoded = core::decode_envelope(mutated)) {
      ASSERT_LT(decoded->ring, core::kMaxRings);
    }
  }
}

TEST_P(DecodeFuzz, MutatedChunkEnvelopesNeverCrash) {
  Rng rng(GetParam() ^ 0xC4A4);
  core::Envelope chunk;
  chunk.kind = core::EnvelopeKind::kStateChunk;
  chunk.op_seq = 40;
  chunk.delta_base = 7;
  chunk.chunk_index = 3;
  chunk.chunk_count = 9;
  chunk.payload = Bytes(96, 0xC4);
  const Bytes valid = core::encode_envelope(chunk);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = core::decode_envelope(mutated);
    // A surviving chunk must carry a consistent geometry — the reassembly
    // path indexes parts[chunk_index] of a chunk_count-sized vector.
    if (decoded && decoded->kind == core::EnvelopeKind::kStateChunk) {
      ASSERT_GT(decoded->chunk_count, 0u);
      ASSERT_LT(decoded->chunk_index, decoded->chunk_count);
    }
  }
}

// Invariants the bulk-transfer machinery relies on for any envelope that
// survives decode — the reassembly path sizes vectors from chunk_count,
// indexes parts[chunk_index], and slices the image by extent geometry, so a
// decoder that let an inconsistent frame through would be an out-of-bounds
// write waiting on a hostile (or corrupted) lane message.
void assert_bulk_geometry(const core::Envelope& e) {
  ASSERT_LE(static_cast<std::uint8_t>(e.kind),
            static_cast<std::uint8_t>(core::EnvelopeKind::kBulkAck));
  if (e.kind != core::EnvelopeKind::kStateBulkDescriptor &&
      e.kind != core::EnvelopeKind::kStateBulkComplete &&
      e.kind != core::EnvelopeKind::kBulkExtent &&
      e.kind != core::EnvelopeKind::kBulkAck) {
    return;
  }
  ASSERT_NE(e.transfer_id, 0u);
  ASSERT_GE(e.chunk_count, 1u);
  if (e.kind != core::EnvelopeKind::kBulkAck) {
    ASSERT_GE(e.extent_bytes, 1u);
    ASSERT_GE(e.total_bytes, 1u);
    // The byte count must fill the extent grid: more would overflow the
    // last extent, fewer would leave whole extents empty.
    const std::uint64_t grid =
        static_cast<std::uint64_t>(e.chunk_count) * e.extent_bytes;
    const std::uint64_t prefix =
        static_cast<std::uint64_t>(e.chunk_count - 1) * e.extent_bytes;
    ASSERT_LE(e.total_bytes, grid);
    ASSERT_GT(e.total_bytes, prefix);
  }
  if (e.kind == core::EnvelopeKind::kStateBulkDescriptor) {
    ASSERT_EQ(e.extent_digests.size(), e.chunk_count);
  }
  if (e.kind == core::EnvelopeKind::kBulkExtent ||
      e.kind == core::EnvelopeKind::kBulkAck) {
    ASSERT_LT(e.chunk_index, e.chunk_count);
  }
  if (e.kind == core::EnvelopeKind::kBulkExtent) {
    const std::uint64_t expect =
        std::min<std::uint64_t>(e.extent_bytes,
                                e.total_bytes -
                                    static_cast<std::uint64_t>(e.chunk_index) *
                                        e.extent_bytes);
    ASSERT_EQ(e.payload.size(), expect);
  }
}

TEST_P(DecodeFuzz, MutatedBulkDescriptorsNeverCrash) {
  Rng rng(GetParam() ^ 0xB01D);
  core::Envelope desc;
  desc.kind = core::EnvelopeKind::kStateBulkDescriptor;
  desc.op_seq = 40;
  desc.transfer_id = (7ull << 32) | 3;
  desc.total_bytes = 5000;
  desc.extent_bytes = 1024;
  desc.chunk_count = 5;
  for (std::uint32_t i = 0; i < desc.chunk_count; ++i) {
    desc.extent_digests.push_back(0x1234'5678'9abc'def0ull + i);
  }
  const Bytes valid = core::encode_envelope(desc);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = core::decode_envelope(mutated);
    if (decoded) assert_bulk_geometry(*decoded);
  }
  // Truncations sweep the digest list specifically: a count that promises
  // more digests than the frame carries must be rejected, not over-read.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    auto decoded = core::decode_envelope(
        Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)));
    if (decoded) assert_bulk_geometry(*decoded);
  }
}

TEST_P(DecodeFuzz, MutatedBulkExtentFramesNeverCrash) {
  Rng rng(GetParam() ^ 0xB0EF);
  core::Envelope extent;
  extent.kind = core::EnvelopeKind::kBulkExtent;
  extent.op_seq = 40;
  extent.transfer_id = (7ull << 32) | 3;
  extent.total_bytes = 5000;
  extent.extent_bytes = 1024;
  extent.chunk_index = 4;  // the short tail extent: 5000 - 4*1024 = 904 bytes
  extent.chunk_count = 5;
  extent.payload = Bytes(904, 0xEE);
  const Bytes valid = core::encode_envelope(extent);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = core::decode_envelope(mutated);
    if (decoded) assert_bulk_geometry(*decoded);
  }
}

TEST_P(DecodeFuzz, MutatedBulkAcksAndMarkersNeverCrash) {
  Rng rng(GetParam() ^ 0xB0AC);
  core::Envelope ack;
  ack.kind = core::EnvelopeKind::kBulkAck;
  ack.transfer_id = (2ull << 32) | 9;
  ack.chunk_index = 2;
  ack.chunk_count = 5;
  core::Envelope marker;
  marker.kind = core::EnvelopeKind::kStateBulkComplete;
  marker.op_seq = 40;
  marker.transfer_id = (7ull << 32) | 3;
  marker.total_bytes = 5000;
  marker.extent_bytes = 1024;
  marker.chunk_count = 5;
  for (const Bytes& valid :
       {core::encode_envelope(ack), core::encode_envelope(marker)}) {
    for (int i = 0; i < fuzz_iters(); ++i) {
      Bytes mutated = valid;
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.below(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
      auto decoded = core::decode_envelope(mutated);
      if (decoded) assert_bulk_geometry(*decoded);
    }
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      auto decoded = core::decode_envelope(
          Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)));
      if (decoded) assert_bulk_geometry(*decoded);
    }
  }
}

/// core::inspect_envelope is what delivery routes replies on: it must
/// accept exactly the inputs decode_envelope accepts and read the same
/// fields, byte fields included.
void expect_view_matches_decode(const Bytes& wire) {
  const std::optional<core::Envelope> decoded = core::decode_envelope(wire);
  const std::optional<core::EnvelopeView> view = core::inspect_envelope(wire);
  ASSERT_EQ(view.has_value(), decoded.has_value()) << util::to_hex(wire);
  if (!decoded) return;
  const auto bytes = [](util::BytesView v) { return Bytes(v.begin(), v.end()); };
  EXPECT_EQ(view->kind, decoded->kind);
  EXPECT_EQ(view->ring, decoded->ring);
  EXPECT_EQ(view->client_group, decoded->client_group);
  EXPECT_EQ(view->target_group, decoded->target_group);
  EXPECT_EQ(view->op_seq, decoded->op_seq);
  EXPECT_EQ(view->subject, decoded->subject);
  EXPECT_EQ(view->subject_node, decoded->subject_node);
  EXPECT_EQ(view->control_op, decoded->control_op);
  EXPECT_EQ(view->delta_base, decoded->delta_base);
  EXPECT_EQ(view->chunk_index, decoded->chunk_index);
  EXPECT_EQ(view->chunk_count, decoded->chunk_count);
  EXPECT_EQ(view->transfer_id, decoded->transfer_id);
  EXPECT_EQ(view->total_bytes, decoded->total_bytes);
  EXPECT_EQ(view->extent_bytes, decoded->extent_bytes);
  EXPECT_EQ(view->digest_count, decoded->extent_digests.size());
  EXPECT_EQ(bytes(view->payload), decoded->payload.to_bytes());
  EXPECT_EQ(bytes(view->orb_state), decoded->orb_state);
  EXPECT_EQ(bytes(view->infra_state), decoded->infra_state);
  EXPECT_EQ(bytes(view->control_data), decoded->control_data);
  // The shared-buffer decode slices the payload out of the same bytes.
  const util::SharedBytes shared = util::SharedBytes::copy_of(wire);
  const core::Envelope sliced = core::materialize_envelope(*core::inspect_envelope(shared), shared);
  EXPECT_EQ(sliced.payload, decoded->payload.to_bytes());
  EXPECT_EQ(sliced.extent_digests, decoded->extent_digests);
  if (!sliced.payload.empty()) {
    EXPECT_GE(sliced.payload.data(), shared.data());
    EXPECT_LE(sliced.payload.end(), shared.end());
  }
}

/// A random envelope of every kind, mostly well-formed for its kind (bulk
/// geometry, chunk bounds, digest count) so that mutations start from
/// envelopes the decoder accepts.
core::Envelope random_envelope(Rng& rng) {
  core::Envelope e;
  e.kind = static_cast<core::EnvelopeKind>(1 + rng.below(11));
  e.ring = static_cast<std::uint32_t>(rng.below(core::kMaxRings));
  e.client_group = util::GroupId{static_cast<std::uint32_t>(rng.next())};
  e.target_group = util::GroupId{static_cast<std::uint32_t>(rng.next())};
  e.op_seq = rng.next();
  e.subject = util::ReplicaId{rng.next()};
  e.subject_node = util::NodeId{static_cast<std::uint32_t>(rng.next())};
  e.control_op = static_cast<core::ControlOp>(1 + rng.below(5));
  e.delta_base = rng.next();
  e.chunk_count = 1 + static_cast<std::uint32_t>(rng.below(6));
  e.chunk_index = static_cast<std::uint32_t>(rng.below(e.chunk_count));
  e.payload = random_bytes(rng, 48);
  if (e.kind >= core::EnvelopeKind::kStateBulkDescriptor) {
    e.transfer_id = 1 + rng.below(1000);
    e.extent_bytes = 1 + static_cast<std::uint32_t>(rng.below(32));
    e.total_bytes = std::uint64_t{e.chunk_count - 1} * e.extent_bytes + 1 +
                    rng.below(e.extent_bytes);
    if (e.kind == core::EnvelopeKind::kStateBulkDescriptor) {
      e.extent_digests.resize(e.chunk_count);
      for (auto& d : e.extent_digests) d = rng.next();
    }
    if (e.kind == core::EnvelopeKind::kBulkExtent) {
      const std::uint64_t offset = std::uint64_t{e.chunk_index} * e.extent_bytes;
      e.payload = Bytes(std::min<std::uint64_t>(e.extent_bytes, e.total_bytes - offset), 0x5A);
    }
  }
  e.orb_state = random_bytes(rng, 16);
  e.infra_state = random_bytes(rng, 16);
  e.control_data = random_bytes(rng, 16);
  return e;
}

TEST_P(DecodeFuzz, EnvelopeViewAcceptsExactlyWhatDecodeAccepts) {
  Rng rng(GetParam() ^ 0xE7E4B1E);
  int mutants_accepted = 0;
  int mutants_rejected = 0;
  for (int i = 0; i < fuzz_iters(); ++i) {
    const core::Envelope source = random_envelope(rng);
    const Bytes valid = core::encode_envelope(source);
    const std::optional<core::EnvelopeView> view = core::inspect_envelope(valid);
    ASSERT_TRUE(view.has_value()) << "kind " << static_cast<int>(source.kind);
    EXPECT_EQ(view->kind, source.kind);
    EXPECT_EQ(view->ring, source.ring);
    EXPECT_EQ(view->client_group, source.client_group);
    EXPECT_EQ(view->target_group, source.target_group);
    EXPECT_EQ(view->op_seq, source.op_seq);
    EXPECT_EQ(Bytes(view->payload.begin(), view->payload.end()), source.payload.to_bytes());
    expect_view_matches_decode(valid);
    // Flipped bytes (kind, magic, ring bound, chunk and bulk geometry,
    // counts and lengths all get hit) and truncation at a random cut.
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    expect_view_matches_decode(mutated);
    (core::inspect_envelope(mutated) ? mutants_accepted : mutants_rejected) += 1;
    const Bytes cut(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(rng.below(valid.size())));
    expect_view_matches_decode(cut);
    expect_view_matches_decode(random_bytes(rng, 96));
  }
  // Both sides of the accept/reject boundary were exercised.
  EXPECT_GT(mutants_accepted, 0);
  EXPECT_GT(mutants_rejected, 0);
}

// Adversarial geometry: hand-built bulk envelopes with deliberately
// inconsistent fields must all be rejected whole — each one encodes an
// overlap, overflow, or truncation the reassembly path cannot survive.
TEST(DecodeFuzzBulk, InconsistentBulkGeometryIsRejected) {
  auto reject = [](const core::Envelope& e, const char* why) {
    // encode_envelope happily serializes garbage (it is the decoder's job
    // to refuse it): round-trip and expect rejection.
    EXPECT_FALSE(core::decode_envelope(core::encode_envelope(e)).has_value()) << why;
  };
  core::Envelope good;
  good.kind = core::EnvelopeKind::kStateBulkDescriptor;
  good.transfer_id = 1;
  good.total_bytes = 5000;
  good.extent_bytes = 1024;
  good.chunk_count = 5;
  good.extent_digests.assign(5, 0xD1);
  ASSERT_TRUE(core::decode_envelope(core::encode_envelope(good)).has_value());

  core::Envelope e = good;
  e.transfer_id = 0;
  reject(e, "transfer id zero");
  e = good;
  e.chunk_count = 0;
  e.extent_digests.clear();
  reject(e, "zero extents");
  e = good;
  e.total_bytes = 0;
  reject(e, "zero bytes");
  e = good;
  e.extent_bytes = 0;
  reject(e, "zero extent width");
  e = good;
  e.total_bytes = 5 * 1024 + 1;  // one byte past the extent grid
  reject(e, "total overflows the grid");
  e = good;
  e.total_bytes = 4 * 1024;  // fits in 4 extents yet claims 5
  reject(e, "empty tail extent");
  e = good;
  e.extent_digests.pop_back();  // digest list shorter than extent count
  reject(e, "truncated digest list");
  e = good;
  e.extent_digests.push_back(0xD1);  // longer than extent count
  reject(e, "oversized digest list");

  core::Envelope x;
  x.kind = core::EnvelopeKind::kBulkExtent;
  x.transfer_id = 1;
  x.total_bytes = 5000;
  x.extent_bytes = 1024;
  x.chunk_index = 1;
  x.chunk_count = 5;
  x.payload = Bytes(1024, 0xEE);
  ASSERT_TRUE(core::decode_envelope(core::encode_envelope(x)).has_value());
  e = x;
  e.chunk_index = 5;  // one past the end
  reject(e, "extent index out of range");
  e = x;
  e.payload = Bytes(1025, 0xEE);  // spills into the next extent
  reject(e, "extent payload overlaps its neighbour");
  e = x;
  e.payload = Bytes(1023, 0xEE);
  reject(e, "short mid extent");
  e = x;
  e.chunk_index = 4;  // tail extent must carry exactly the remainder
  reject(e, "tail extent with full-width payload");

  core::Envelope a;
  a.kind = core::EnvelopeKind::kBulkAck;
  a.transfer_id = 1;
  a.chunk_index = 0;
  a.chunk_count = 5;
  ASSERT_TRUE(core::decode_envelope(core::encode_envelope(a)).has_value());
  e = a;
  e.chunk_index = 5;
  reject(e, "ack index out of range");
  e = a;
  e.transfer_id = 0;
  reject(e, "ack for transfer id zero");
}

TEST_P(DecodeFuzz, RandomBytesNeverCrashSegmentScan) {
  Rng rng(GetParam() ^ 0x5E60);
  for (int i = 0; i < fuzz_iters(); ++i) {
    const Bytes junk = random_bytes(rng, 512);
    const auto scan = core::scan_segment_bytes(junk);
    // The reported valid prefix can never exceed the input.
    ASSERT_LE(scan.valid_bytes, junk.size());
    ASSERT_EQ(scan.torn, scan.valid_bytes < junk.size());
  }
}

TEST_P(DecodeFuzz, MutatedSegmentEntriesNeverCrashOrOverread) {
  Rng rng(GetParam() ^ 0x5E61);
  // Hand-build two valid entries (layout documented in stable_storage.cpp:
  // [u32 magic][u64 gen][u32 len][payload][u64 fnv1a], all little-endian).
  auto entry = [](std::uint64_t gen, const Bytes& payload) {
    Bytes out;
    auto le32 = [&out](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto le64 = [&out](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    le32(0xE7E45E60u);
    le64(gen);
    le32(static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    le64(util::fnv1a(payload));
    return out;
  };
  Bytes valid = entry(1, Bytes(40, 0xAA));
  const Bytes second = entry(1, Bytes(24, 0xBB));
  valid.insert(valid.end(), second.begin(), second.end());

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    const auto scan = core::scan_segment_bytes(mutated);
    ASSERT_LE(scan.entries.size(), 2u);  // a flip can only tear, never invent
    ASSERT_LE(scan.valid_bytes, mutated.size());
  }

  // Truncations: the scan must degrade to a (possibly empty) valid prefix.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const auto scan = core::scan_segment_bytes(
        Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)));
    ASSERT_LE(scan.valid_bytes, cut);
  }
}

TEST_P(DecodeFuzz, TruncationsNeverCrash) {
  Rng rng(GetParam() ^ 0x7123);
  giop::Reply reply;
  reply.request_id = 1;
  reply.body = Bytes(100, 9);
  const Bytes g = giop::encode(reply);
  const Bytes t = totem::encode_frame(util::NodeId{1}, totem::TokenFrame{});
  const Bytes e = core::encode_envelope(core::Envelope{});
  for (std::size_t cut = 0; cut < g.size(); ++cut) {
    (void)giop::decode(Bytes(g.begin(), g.begin() + static_cast<std::ptrdiff_t>(cut)));
  }
  for (std::size_t cut = 0; cut < t.size(); ++cut) {
    (void)totem::decode_frame(Bytes(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(cut)));
  }
  for (std::size_t cut = 0; cut < e.size(); ++cut) {
    (void)core::decode_envelope(Bytes(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(cut)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 0xDEAD, 0xBEEF, 0xE7E4));

}  // namespace
}  // namespace eternal
