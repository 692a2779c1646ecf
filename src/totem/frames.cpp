#include "totem/frames.hpp"

namespace eternal::totem {

namespace {

constexpr std::uint16_t kMagic = 0x70CE;  // "TOtem CEll"

using util::CdrReader;
using util::CdrWriter;

template <typename W>
void put_frame_header(W& w, NodeId sender, FrameType type) {
  w.put_u8(static_cast<std::uint8_t>(util::host_byte_order()));
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u16(kMagic);
  w.put_u32(sender.value);
}

template <typename W>
void put_nodes(W& w, const std::vector<NodeId>& nodes) {
  w.put_u32(static_cast<std::uint32_t>(nodes.size()));
  for (NodeId n : nodes) w.put_u32(n.value);
}

template <typename W>
void put_seqs(W& w, const std::vector<std::uint64_t>& seqs) {
  w.put_u32(static_cast<std::uint32_t>(seqs.size()));
  for (std::uint64_t s : seqs) w.put_u64(s);
}

template <typename W>
void put_frame(W& w, const DataFrame& f) {
  w.put_u64(f.view.value);
  w.put_u64(f.ring_id);
  w.put_u32(f.origin.value);
  w.put_u64(f.seq);
  w.put_u64(f.msg_id);
  w.put_u32(f.frag_index);
  w.put_u32(f.frag_count);
  w.put_u32(f.batch_count);
  w.put_bool(f.retransmission);
  w.put_bool(f.authoritative);
  w.put_octets(f.payload);
}

template <typename W>
void put_frame(W& w, const TokenFrame& f) {
  w.put_u64(f.view.value);
  w.put_u64(f.ring_id);
  w.put_u32(f.target.value);
  w.put_u64(f.round);
  w.put_u64(f.next_seq);
  w.put_u64(f.aru);
  w.put_u32(f.aru_setter.value);
  w.put_u32(f.flow_budget);
  w.put_u32(f.flow_setter.value);
  put_seqs(w, f.rtr);
}

template <typename W>
void put_frame(W& w, const JoinFrame& f) {
  put_nodes(w, f.alive);
  w.put_u64(f.highest_seq);
  w.put_u64(f.highest_view);
  w.put_u64(f.ring_id);
}

template <typename W>
void put_frame(W& w, const CommitFrame& f) {
  w.put_u64(f.new_view.value);
  put_nodes(w, f.members);
  w.put_u64(f.base_seq);
  w.put_u64(f.surviving_ring);
  put_seqs(w, f.surviving_ancestors);
}

template <typename W>
void put_frame(W& w, const ReadyFrame& f) {
  w.put_u64(f.new_view.value);
  put_seqs(w, f.missing);
  put_seqs(w, f.held_seqs);
  put_seqs(w, f.held_digests);
}

template <typename W>
void put_frame(W& w, const InstallFrame& f) {
  w.put_u64(f.new_view.value);
  put_nodes(w, f.members);
  w.put_u64(f.next_seq);
}

template <typename W>
void put_frame(W&, const JoinRequestFrame&) {}

/// Sizes the frame with a CdrSizer, then writes it into a buffer reserved
/// to exactly that size.
template <typename F>
Bytes encode_exact(NodeId sender, FrameType type, const F& f) {
  util::CdrSizer sizer;
  put_frame_header(sizer, sender, type);
  put_frame(sizer, f);
  CdrWriter w(util::host_byte_order(), sizer.size());
  put_frame_header(w, sender, type);
  put_frame(w, f);
  return std::move(w).take();
}

std::vector<NodeId> get_nodes(CdrReader& r) {
  const std::uint32_t n = r.get_count(4);
  std::vector<NodeId> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(NodeId{r.get_u32()});
  return out;
}

std::vector<std::uint64_t> get_seqs(CdrReader& r) {
  const std::uint32_t n = r.get_count(4);  // u64s are 8B but may be aligned-4
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.get_u64());
  return out;
}

}  // namespace

Bytes encode_frame(NodeId sender, const DataFrame& f) {
  return encode_exact(sender, FrameType::kData, f);
}
Bytes encode_frame(NodeId sender, const TokenFrame& f) {
  return encode_exact(sender, FrameType::kToken, f);
}
Bytes encode_frame(NodeId sender, const JoinFrame& f) {
  return encode_exact(sender, FrameType::kJoin, f);
}
Bytes encode_frame(NodeId sender, const CommitFrame& f) {
  return encode_exact(sender, FrameType::kCommit, f);
}
Bytes encode_frame(NodeId sender, const ReadyFrame& f) {
  return encode_exact(sender, FrameType::kReady, f);
}
Bytes encode_frame(NodeId sender, const InstallFrame& f) {
  return encode_exact(sender, FrameType::kInstall, f);
}
Bytes encode_frame(NodeId sender, const JoinRequestFrame& f) {
  return encode_exact(sender, FrameType::kJoinRequest, f);
}

namespace {

/// Decodes the frame in `data`; `payload_of` turns a Data frame payload's
/// view into the stored SharedBytes (a slice of the buffer, or a copy).
template <typename PayloadOf>
std::optional<Frame> decode_with(BytesView data, PayloadOf&& payload_of) {
  try {
    if (data.size() < 8) return std::nullopt;
    CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    const auto type = static_cast<FrameType>(r.get_u8());
    if (r.get_u16() != kMagic) return std::nullopt;
    const NodeId sender{r.get_u32()};

    switch (type) {
      case FrameType::kData: {
        DataFrame f;
        f.view = ViewId{r.get_u64()};
        f.ring_id = r.get_u64();
        f.origin = NodeId{r.get_u32()};
        f.seq = r.get_u64();
        f.msg_id = r.get_u64();
        f.frag_index = r.get_u32();
        f.frag_count = r.get_u32();
        f.batch_count = r.get_u32();
        f.retransmission = r.get_bool();
        f.authoritative = r.get_bool();
        f.payload = payload_of(r.get_octets_view());
        if (f.batch_count == 0) return std::nullopt;
        // Each packed message costs at least its 4-byte length prefix, so a
        // corrupt count larger than the payload could ever hold is malformed.
        if (f.batch_count >= 2 && f.payload.size() / 4 < f.batch_count) {
          return std::nullopt;
        }
        return Frame{sender, std::move(f)};
      }
      case FrameType::kToken: {
        TokenFrame f;
        f.view = ViewId{r.get_u64()};
        f.ring_id = r.get_u64();
        f.target = NodeId{r.get_u32()};
        f.round = r.get_u64();
        f.next_seq = r.get_u64();
        f.aru = r.get_u64();
        f.aru_setter = NodeId{r.get_u32()};
        f.flow_budget = r.get_u32();
        f.flow_setter = NodeId{r.get_u32()};
        f.rtr = get_seqs(r);
        return Frame{sender, std::move(f)};
      }
      case FrameType::kJoin: {
        JoinFrame f;
        f.alive = get_nodes(r);
        f.highest_seq = r.get_u64();
        f.highest_view = r.get_u64();
        f.ring_id = r.get_u64();
        return Frame{sender, std::move(f)};
      }
      case FrameType::kCommit: {
        CommitFrame f;
        f.new_view = ViewId{r.get_u64()};
        f.members = get_nodes(r);
        f.base_seq = r.get_u64();
        f.surviving_ring = r.get_u64();
        f.surviving_ancestors = get_seqs(r);
        return Frame{sender, std::move(f)};
      }
      case FrameType::kReady: {
        ReadyFrame f;
        f.new_view = ViewId{r.get_u64()};
        f.missing = get_seqs(r);
        f.held_seqs = get_seqs(r);
        f.held_digests = get_seqs(r);
        if (f.held_seqs.size() != f.held_digests.size()) return std::nullopt;
        return Frame{sender, std::move(f)};
      }
      case FrameType::kInstall: {
        InstallFrame f;
        f.new_view = ViewId{r.get_u64()};
        f.members = get_nodes(r);
        f.next_seq = r.get_u64();
        return Frame{sender, std::move(f)};
      }
      case FrameType::kJoinRequest:
        return Frame{sender, JoinRequestFrame{}};
    }
    return std::nullopt;
  } catch (const util::CdrError&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<Frame> decode_frame(const util::SharedBytes& data) {
  return decode_with(data, [&](BytesView payload) { return data.slice(payload); });
}

std::optional<Frame> decode_frame(BytesView data) {
  return decode_with(data, [](BytesView payload) { return util::SharedBytes::copy_of(payload); });
}

std::size_t data_frame_overhead() {
  static const std::size_t overhead = encode_frame(NodeId{0}, DataFrame{}).size();
  return overhead;
}

// ------------------------------------------------------------ batch packing

// The blob has no order flag of its own: batches are always packed
// little-endian, so the same bytes mean the same messages on every member
// (and retransmitted copies stay byte-identical to the original).
namespace {
template <typename Message>
Bytes pack_exact(const std::vector<Message>& messages) {
  std::size_t size = 0;
  for (const Message& m : messages) size = packed_batch_size(size, m.size());
  CdrWriter w(util::ByteOrder::kLittle, size);
  for (const Message& m : messages) w.put_octets(m);
  return std::move(w).take();
}
}  // namespace

Bytes pack_batch(const std::vector<Bytes>& messages) { return pack_exact(messages); }

Bytes pack_batch(const std::vector<util::SharedBytes>& messages) { return pack_exact(messages); }

std::optional<std::vector<Bytes>> unpack_batch(BytesView packed, std::uint32_t count) {
  try {
    // Each message costs at least its 4-byte length prefix; a count the blob
    // cannot hold is malformed (and must not drive the reserve below).
    if (count > packed.size() / 4) return std::nullopt;
    CdrReader r(packed, util::ByteOrder::kLittle);
    std::vector<Bytes> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.get_octets());
    if (!r.exhausted()) return std::nullopt;  // trailing garbage
    return out;
  } catch (const util::CdrError&) {
    return std::nullopt;
  }
}

std::size_t packed_batch_size(std::size_t current_bytes, std::size_t message_bytes) {
  const std::size_t aligned = (current_bytes + 3) & ~std::size_t{3};
  return aligned + 4 + message_bytes;
}

}  // namespace eternal::totem
