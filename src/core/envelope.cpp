#include "core/envelope.hpp"

#include <algorithm>

namespace eternal::core {

namespace {
constexpr std::uint16_t kMagic = 0xE7E4;

/// The envelope layout, written once for CdrSizer (exact size) and
/// CdrWriter (the bytes).
template <typename W>
void put_envelope(W& w, const Envelope& e) {
  w.put_u8(static_cast<std::uint8_t>(util::host_byte_order()));
  w.put_u8(static_cast<std::uint8_t>(e.kind));
  w.put_u16(kMagic);
  w.put_u32(e.ring);
  w.put_u32(e.client_group.value);
  w.put_u32(e.target_group.value);
  w.put_u64(e.op_seq);
  w.put_u64(e.subject.value);
  w.put_u32(e.subject_node.value);
  w.put_u8(static_cast<std::uint8_t>(e.control_op));
  w.put_u64(e.delta_base);
  w.put_u32(e.chunk_index);
  w.put_u32(e.chunk_count);
  if (e.kind >= EnvelopeKind::kStateBulkDescriptor) {
    w.put_u64(e.transfer_id);
    w.put_u64(e.total_bytes);
    w.put_u32(e.extent_bytes);
    w.put_u32(static_cast<std::uint32_t>(e.extent_digests.size()));
    for (std::uint64_t d : e.extent_digests) w.put_u64(d);
  }
  w.put_octets(e.payload);
  w.put_octets(e.orb_state);
  w.put_octets(e.infra_state);
  w.put_octets(e.control_data);
}

/// The Envelope `v` reads, with `payload` as its payload.
Envelope materialize(const EnvelopeView& v, util::SharedBytes payload) {
  Envelope e;
  e.kind = v.kind;
  e.ring = v.ring;
  e.client_group = v.client_group;
  e.target_group = v.target_group;
  e.op_seq = v.op_seq;
  e.subject = v.subject;
  e.subject_node = v.subject_node;
  e.control_op = v.control_op;
  e.delta_base = v.delta_base;
  e.chunk_index = v.chunk_index;
  e.chunk_count = v.chunk_count;
  e.transfer_id = v.transfer_id;
  e.total_bytes = v.total_bytes;
  e.extent_bytes = v.extent_bytes;
  if (v.digest_count > 0) {
    // The digests start 8-aligned in the envelope, so a reader over them
    // alone aligns exactly as one over the whole envelope did.
    util::CdrReader r(v.digests, v.order);
    e.extent_digests.reserve(v.digest_count);
    for (std::uint32_t i = 0; i < v.digest_count; ++i) e.extent_digests.push_back(r.get_u64());
  }
  e.payload = std::move(payload);
  e.orb_state.assign(v.orb_state.begin(), v.orb_state.end());
  e.infra_state.assign(v.infra_state.begin(), v.infra_state.end());
  e.control_data.assign(v.control_data.begin(), v.control_data.end());
  return e;
}

}  // namespace

Bytes encode_envelope(const Envelope& e) {
  util::CdrSizer sizer;
  put_envelope(sizer, e);
  util::CdrWriter w(util::host_byte_order(), sizer.size());
  put_envelope(w, e);
  return std::move(w).take();
}

std::optional<EnvelopeView> inspect_envelope(BytesView data) {
  try {
    if (data.size() < 4) return std::nullopt;
    EnvelopeView v;
    v.order = static_cast<util::ByteOrder>(data[0] & 1);
    util::CdrReader r(data, v.order);
    (void)r.get_u8();
    v.kind = static_cast<EnvelopeKind>(r.get_u8());
    if (static_cast<std::uint8_t>(v.kind) < 1 || static_cast<std::uint8_t>(v.kind) > 11) {
      return std::nullopt;
    }
    if (r.get_u16() != kMagic) return std::nullopt;
    v.ring = r.get_u32();
    // Ring geometry: an index at or past kMaxRings names a ring no node has
    // an endpoint for; nothing downstream may see it.
    if (v.ring >= kMaxRings) return std::nullopt;
    v.client_group = GroupId{r.get_u32()};
    v.target_group = GroupId{r.get_u32()};
    v.op_seq = r.get_u64();
    v.subject = ReplicaId{r.get_u64()};
    v.subject_node = NodeId{r.get_u32()};
    v.control_op = static_cast<ControlOp>(r.get_u8());
    v.delta_base = r.get_u64();
    v.chunk_index = r.get_u32();
    v.chunk_count = r.get_u32();
    if (v.kind == EnvelopeKind::kStateChunk &&
        (v.chunk_count < 1 || v.chunk_index >= v.chunk_count)) {
      return std::nullopt;
    }
    if (v.kind >= EnvelopeKind::kStateBulkDescriptor) {
      v.transfer_id = r.get_u64();
      v.total_bytes = r.get_u64();
      v.extent_bytes = r.get_u32();
      v.digest_count = r.get_count(8);
      if (v.digest_count > 0) {
        r.align(8);
        v.digests = r.get_raw_view(std::size_t{v.digest_count} * 8);
      }
      // Shared bulk geometry: a transfer is named, non-empty, and its extent
      // grid covers total_bytes exactly (the last extent is the remainder).
      if (v.transfer_id == 0 || v.chunk_count < 1) return std::nullopt;
      if (v.kind != EnvelopeKind::kBulkAck) {
        if (v.extent_bytes < 1 || v.total_bytes < 1) return std::nullopt;
        const std::uint64_t grid =
            static_cast<std::uint64_t>(v.chunk_count) * v.extent_bytes;
        const std::uint64_t prefix =
            static_cast<std::uint64_t>(v.chunk_count - 1) * v.extent_bytes;
        if (v.total_bytes > grid || v.total_bytes <= prefix) return std::nullopt;
      }
      if (v.kind == EnvelopeKind::kStateBulkDescriptor) {
        if (v.digest_count != v.chunk_count) return std::nullopt;
      }
      if (v.kind == EnvelopeKind::kBulkExtent || v.kind == EnvelopeKind::kBulkAck) {
        if (v.chunk_index >= v.chunk_count) return std::nullopt;
      }
    }
    v.payload = r.get_octets_view();
    v.orb_state = r.get_octets_view();
    v.infra_state = r.get_octets_view();
    v.control_data = r.get_octets_view();
    if (v.kind == EnvelopeKind::kBulkExtent) {
      // The payload must be exactly this extent's slice of total_bytes —
      // overlap/overflow cannot be expressed.
      const std::uint64_t offset =
          static_cast<std::uint64_t>(v.chunk_index) * v.extent_bytes;
      const std::uint64_t expected =
          std::min<std::uint64_t>(v.extent_bytes, v.total_bytes - offset);
      if (v.payload.size() != expected) return std::nullopt;
    }
    return v;
  } catch (const util::CdrError&) {
    return std::nullopt;
  }
}

Envelope materialize_envelope(const EnvelopeView& view, const util::SharedBytes& data) {
  return materialize(view, data.slice(view.payload));
}

std::optional<Envelope> decode_envelope(const util::SharedBytes& data) {
  const std::optional<EnvelopeView> view = inspect_envelope(data);
  if (!view) return std::nullopt;
  return materialize_envelope(*view, data);
}

std::optional<Envelope> decode_envelope(BytesView data) {
  const std::optional<EnvelopeView> view = inspect_envelope(data);
  if (!view) return std::nullopt;
  return materialize(*view, util::SharedBytes::copy_of(view->payload));
}

Bytes encode_initial_members(const std::vector<InitialMember>& members) {
  util::CdrWriter w;
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u32(static_cast<std::uint32_t>(members.size()));
  for (const InitialMember& m : members) {
    w.put_u64(m.id.value);
    w.put_u32(m.node.value);
  }
  return std::move(w).take();
}

std::vector<InitialMember> decode_initial_members(BytesView data) {
  std::vector<InitialMember> out;
  if (data.empty()) return out;
  try {
    util::CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    const std::uint32_t n = r.get_count(8);
    for (std::uint32_t i = 0; i < n; ++i) {
      InitialMember m;
      m.id = ReplicaId{r.get_u64()};
      m.node = NodeId{r.get_u32()};
      out.push_back(m);
    }
  } catch (const util::CdrError&) {
    out.clear();
  }
  return out;
}

}  // namespace eternal::core
