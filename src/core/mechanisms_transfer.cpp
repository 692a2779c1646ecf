// The state-transfer pipeline: how a set_state too large for one multicast
// reaches the recoverer and still lands at a single total-order position
// (paper §5.1, Figure 5 steps iv–vi).
//
// One pipeline, two carriers. A transfer is descriptor (lane only) → data
// carrier → ordered completion point:
//   - ring: the encoded inner envelope is sliced into kStateChunk
//     multicasts, pipelined `state_chunk_window` at a time (the sender sends
//     the next chunk on self-delivery of its own), and every member
//     reassembles; the final chunk's position is the completion point.
//   - lane: the ordered ring carries only a kStateBulkDescriptor announcing
//     {transfer id, epoch, geometry, per-extent FNV-1a digests} and a
//     kStateBulkComplete marker; the bytes stream point-to-point on the bulk
//     lane (sim/bulk_lane.hpp) as kBulkExtent frames under a credit window,
//     each acknowledged (kBulkAck) only after its digest verified. The
//     marker's position is the completion point — exactly where the final
//     chunk would have delivered the set_state.
// Both carriers share one send record (StateSend), one reassembly record
// (StateReassembly), one slicer, one completion step (assemble_and_deliver)
// and one abort/GC helper (drop_transfers). Monolithic transfers bypass the
// pipeline: the paper's set_state is one IIOP message (DESIGN.md).
//
// Lane safety argument: the sender multicasts the marker only after every
// extent is acked, and the receiver acks only verified extents — so a
// delivered marker implies the recoverer holds the complete, digest-checked
// image. Every node (recoverer or not) synthesizes the set_state at the
// marker's position: the group table's apply_state_transfer consumes only
// envelope metadata, all of which the marker carries, so non-recoverers stay
// table-consistent without ever seeing the state bytes. Lane events mutate
// only transfer-local state, never the replicated table or servants —
// logical time stays solely on the ring.
//
// Lane failure handling: lost extents/acks are covered by re-acks and the
// sender's retry timer; retry exhaustion (lane disabled, partitioned, dead
// receiver) aborts the send and re-publishes its image as ring chunks under
// the same epoch. A receiver whose sender dies mid-stream stashes its
// verified extents keyed by content digest; the next attempt's descriptor
// (same or new sender) is pre-filled from the stash and the matching extents
// acked immediately — resume without re-shipping.
#include <algorithm>
#include <utility>

#include "core/mechanisms.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

namespace {
constexpr const char* kTag = "eternal";
/// Extents in flight on the lane before waiting for acks.
constexpr std::size_t kLaneCreditWindow = 4;
/// Re-send timeout for the oldest unacked extent.
constexpr util::Duration kLaneRetryTimeout{10'000'000};  // 10 ms
/// Consecutive retry rounds before the sender falls back to ring chunks.
constexpr std::size_t kLaneMaxRetries = 8;
}  // namespace

// ------------------------------------------------------------------ senders

void Mechanisms::start_state_send(GroupId group, const Envelope& inner) {
  StateSend s;
  s.group = group;
  s.epoch = inner.op_seq;
  s.subject = inner.subject;
  s.delta_base = inner.delta_base;
  s.encoded = encode_envelope(inner);
  if (!config_.bulk_lane) {
    start_ring_send(std::move(s));
    return;
  }
  // The lane is point-to-point: the only receiver is the recoverer's node.
  if (const GroupEntry* entry = table_.find(group)) {
    for (const ReplicaInfo& m : entry->members) {
      if (m.id == inner.subject) {
        s.to = m.node;
        break;
      }
    }
  }
  if (s.to.value == 0 || s.to == node_ || bulk_lane_ == nullptr || !bulk_lane_->enabled() ||
      !bulk_lane_->attached(node_) || !bulk_lane_->attached(s.to)) {
    stats_.bulk_fallbacks_chunked += 1;
    start_ring_send(std::move(s));
    return;
  }

  s.transfer_id = (static_cast<std::uint64_t>(node_.value) << 32) | next_transfer_nonce_++;
  s.slice_bytes = std::max<std::size_t>(1, config_.bulk_extent_bytes);
  const std::size_t count = s.slices();
  s.digests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) s.digests.push_back(util::fnv1a(s.slice(i)));
  s.sent.assign(count, false);
  s.acked.assign(count, false);
  Envelope d = transfer_envelope(EnvelopeKind::kStateBulkDescriptor, s, 0);

  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " bulk transfer " << s.transfer_id << ": "
                                     << s.encoded.size() << "B state epoch " << s.epoch
                                     << " in " << count << " extents to "
                                     << util::to_string(s.to));
  sends_[{group.value, Carrier::kLane}] = std::move(s);
  stats_.bulk_transfers_started += 1;
  multicast(d);
  // Streaming starts when the descriptor self-delivers (and was first for
  // its epoch in the total order); the timer covers a descriptor that never
  // comes back (ring reformation ate it).
  arm_lane_retry(group);
}

void Mechanisms::start_ring_send(StateSend s) {
  s.slice_bytes = config_.state_chunk_bytes;
  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " chunking " << s.encoded.size() << "B state epoch "
                                     << s.epoch << " into " << s.slices() << " chunks");
  StateSend& active = sends_[{s.group.value, Carrier::kRing}] = std::move(s);
  // Prime the pipelining window; each self-delivered chunk sends one more,
  // so normal traffic interleaves with the transfer in the total order.
  const std::size_t window = std::max<std::size_t>(1, config_.state_chunk_window);
  while (active.next < active.slices() && active.next < window) {
    Envelope c = transfer_envelope(EnvelopeKind::kStateChunk, active, active.next++);
    multicast(c);
    stats_.state_chunks_sent += 1;
  }
}

Envelope Mechanisms::transfer_envelope(EnvelopeKind kind, const StateSend& s,
                                       std::size_t index) const {
  Envelope x;
  x.kind = kind;
  x.target_group = s.group;
  x.op_seq = s.epoch;
  x.subject = s.subject;
  x.subject_node = node_;
  x.chunk_index = static_cast<std::uint32_t>(index);
  x.chunk_count = static_cast<std::uint32_t>(s.slices());
  if (kind == EnvelopeKind::kStateChunk || kind == EnvelopeKind::kBulkExtent) {
    x.payload = util::SharedBytes::copy_of(s.slice(index));
  }
  if (kind == EnvelopeKind::kStateChunk) return x;
  x.transfer_id = s.transfer_id;
  x.total_bytes = s.encoded.size();
  x.extent_bytes = static_cast<std::uint32_t>(s.slice_bytes);
  if (kind == EnvelopeKind::kBulkExtent) return x;
  x.delta_base = s.delta_base;  // descriptor and marker: the set_state's metadata
  if (kind == EnvelopeKind::kStateBulkDescriptor) x.extent_digests = s.digests;
  return x;
}

void Mechanisms::ship_extent(StateSend& s, std::size_t index) {
  stats_.bulk_extents_sent += 1;
  bulk_lane_->send(node_, s.to,
                   encode_envelope(transfer_envelope(EnvelopeKind::kBulkExtent, s, index)));
}

void Mechanisms::pump_lane_send(StateSend& s) {
  const std::size_t count = s.digests.size();
  if (s.acked_count >= count) {
    if (!s.marker_sent) {
      s.marker_sent = true;
      sim_.cancel(s.retry_timer);
      Envelope m = transfer_envelope(EnvelopeKind::kStateBulkComplete, s, 0);
      multicast(m);
    }
    return;
  }
  while (s.next < count && s.inflight < kLaneCreditWindow) {
    const std::size_t i = s.next++;
    if (s.acked[i]) continue;  // satisfied from the receiver's stash
    s.sent[i] = true;
    s.inflight += 1;
    ship_extent(s, i);
  }
  arm_lane_retry(s.group);
}

void Mechanisms::arm_lane_retry(GroupId group) {
  auto it = sends_.find({group.value, Carrier::kLane});
  if (it == sends_.end()) return;
  StateSend& s = it->second;
  if (s.marker_sent) return;
  sim_.cancel(s.retry_timer);
  const std::uint64_t id = s.transfer_id;
  s.retry_timer = sim_.schedule(kLaneRetryTimeout, [this, group, id] {
    auto cur = sends_.find({group.value, Carrier::kLane});
    if (cur == sends_.end() || cur->second.transfer_id != id) return;
    StateSend& live = cur->second;
    if (live.marker_sent) return;
    live.retry_rounds += 1;
    stats_.bulk_extent_retries += 1;
    if (live.retry_rounds > kLaneMaxRetries) {
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " bulk transfer " << live.transfer_id
                                         << " exhausted retries; falling back in-band");
      fall_back_to_ring(group);
      return;
    }
    // Re-ship everything in flight; lost acks are answered with re-acks.
    for (std::size_t i = 0; i < live.digests.size(); ++i) {
      if (live.sent[i] && !live.acked[i]) ship_extent(live, i);
    }
    if (live.streaming) pump_lane_send(live);
    arm_lane_retry(group);
  });
}

void Mechanisms::fall_back_to_ring(GroupId group) {
  auto it = sends_.find({group.value, Carrier::kLane});
  if (it == sends_.end()) return;
  StateSend& lane = it->second;
  sim_.cancel(lane.retry_timer);
  stats_.bulk_transfers_aborted += 1;
  StateSend ring;
  ring.group = group;
  ring.epoch = lane.epoch;
  ring.subject = lane.subject;
  ring.delta_base = lane.delta_base;
  ring.encoded = std::move(lane.encoded);
  sends_.erase(it);
  // Same epoch: the recoverer's epoch window has not consumed it, so the
  // chunked re-publish lands at the cut the get_state reserved.
  stats_.bulk_fallbacks_chunked += 1;
  start_ring_send(std::move(ring));
}

// --------------------------------------------------------------- ring chunks

void Mechanisms::deliver_state_chunk(const Envelope& e) {
  // Sender side: our own chunk came back through the total order — the
  // window has room for the next one.
  if (e.subject_node == node_) {
    auto out = sends_.find({e.target_group.value, Carrier::kRing});
    if (out != sends_.end() && out->second.epoch == e.op_seq) {
      StateSend& s = out->second;
      if (s.next < s.slices()) {
        Envelope c = transfer_envelope(EnvelopeKind::kStateChunk, s, s.next++);
        multicast(c);
        stats_.state_chunks_sent += 1;
      } else if (e.chunk_index + 1 == e.chunk_count) {
        sends_.erase(out);
      }
    }
  }

  // Receiver side: every member reassembles (the sender included — its own
  // copy delivers through the same path a monolithic multicast would).
  const TransferKey key{e.target_group.value, e.op_seq, Carrier::kRing};
  StateReassembly& ra = reassemblies_[key];
  if (ra.parts.empty()) {
    ra.parts.resize(e.chunk_count);
    ra.sender = e.subject_node;
    ra.subject = e.subject;
  } else if (ra.sender != e.subject_node) {
    // In active replication every operational member answers the same
    // retrieval epoch; the copies need not be byte-identical (infra
    // snapshots differ per node), so interleaving two senders' chunks into
    // one buffer would reassemble garbage. First sender wins; rivals'
    // chunks are redundant copies of the same logical transfer.
    stats_.state_chunk_duplicates += 1;
    return;
  }
  if (e.chunk_count != ra.parts.size() || e.chunk_index >= ra.parts.size()) {
    ETERNAL_LOG(kWarn, kTag, "inconsistent state-chunk geometry; reassembly aborted");
    stats_.state_chunk_aborts += 1;
    reassemblies_.erase(key);
    return;
  }
  if (!ra.parts[e.chunk_index].empty()) {
    stats_.state_chunk_duplicates += 1;
    return;
  }
  ra.parts[e.chunk_index] = e.payload.to_bytes();
  ra.received += 1;
  stats_.state_chunks_received += 1;
  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().chunk_arrived(e.target_group, e.subject, sim_.now(),
                                    e.chunk_index, e.chunk_count, e.payload.size());
  }
  if (ra.received < ra.parts.size()) return;

  const StateReassembly done = std::move(ra);
  reassemblies_.erase(key);
  // A completed transfer supersedes older stalled reassemblies of the same
  // group (their source died or was overtaken mid-stream).
  drop_transfers(TransferEnd::kSuperseded, [&](const TransferRef& t) {
    return !t.outgoing && t.carrier == Carrier::kRing && t.group == e.target_group &&
           t.epoch < e.op_seq;
  });
  // The set_state's logical delivery point is the final chunk's total-order
  // position — identical at every member.
  if (!assemble_and_deliver(done)) stats_.state_chunk_aborts += 1;
}

// ----------------------------------------------------------------- bulk lane

void Mechanisms::deliver_bulk_descriptor(const Envelope& e) {
  // Sender-side coordination happens at the descriptor's ordered position.
  auto out = sends_.find({e.target_group.value, Carrier::kLane});
  if (out != sends_.end()) {
    StateSend& s = out->second;
    if (e.subject_node == node_ && e.transfer_id == s.transfer_id) {
      if (!s.streaming) {
        s.streaming = true;
        pump_lane_send(s);
      }
    } else if (e.op_seq == s.epoch && !s.streaming) {
      // In active replication every operational member answers the same
      // retrieval; a rival's descriptor ordered before ours means the
      // receiver keyed its reassembly to the rival. Stand down silently —
      // the rival's marker (or its fallback) completes the epoch.
      drop_transfers(TransferEnd::kSuperseded, [&](const TransferRef& t) {
        return t.outgoing && t.carrier == Carrier::kLane && t.group == e.target_group;
      });
    }
  }
  if (rec_.tracing()) {
    rec_.record(node_, obs::Layer::kMech, "bulk_descriptor", e.op_seq,
                "group=" + std::to_string(e.target_group.value) +
                    " transfer=" + std::to_string(e.transfer_id) +
                    " extents=" + std::to_string(e.chunk_count) +
                    " bytes=" + std::to_string(e.total_bytes));
  }

  // Only the recoverer assembles; everyone else needs just the marker.
  LocalReplica* r = local_replica(e.target_group);
  if (r == nullptr || r->id != e.subject || r->phase != Phase::kRecovering) return;
  if (set_state_seen_[e.target_group.value].seen(e.op_seq)) return;  // already applied
  const TransferKey key{e.target_group.value, e.op_seq, Carrier::kLane};
  if (reassemblies_.count(key) > 0) return;  // first descriptor wins

  // A newer-epoch attempt supersedes stalled older ones for us; their
  // verified extents go to the stash for the resume pre-fill below.
  drop_transfers(TransferEnd::kSuperseded, [&](const TransferRef& t) {
    return !t.outgoing && t.carrier == Carrier::kLane && t.group == e.target_group &&
           t.subject == e.subject && t.epoch < e.op_seq;
  });

  StateReassembly& re = reassemblies_[key];
  re.transfer_id = e.transfer_id;
  re.sender = e.subject_node;
  re.subject = e.subject;
  re.total_bytes = e.total_bytes;
  re.extent_bytes = e.extent_bytes;
  re.digests = e.extent_digests;
  re.parts.resize(e.chunk_count);

  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().bulk_descriptor(e.target_group, e.subject, sim_.now(),
                                      e.chunk_count, e.total_bytes);
  }

  // Resume: pre-fill from a prior attempt's verified extents. The digest
  // match makes this sound across senders — only byte-identical slices at
  // identical offsets are reused, and the ack tells the (new) sender to skip
  // them.
  auto st = bulk_stash_.find({key.group, e.subject.value});
  if (st == bulk_stash_.end()) return;
  for (std::size_t i = 0; i < re.parts.size(); ++i) {
    auto hit = st->second.find(re.digests[i]);
    if (hit == st->second.end()) continue;
    const std::uint64_t offset = static_cast<std::uint64_t>(i) * re.extent_bytes;
    const std::uint64_t expected =
        std::min<std::uint64_t>(re.extent_bytes, re.total_bytes - offset);
    if (hit->second.size() != expected) continue;
    re.parts[i] = hit->second;
    re.received += 1;
    stats_.bulk_extents_resumed += 1;
    ack_extent(e.target_group, e.op_seq, re, static_cast<std::uint32_t>(i));
  }
  if (re.received > 0) {
    ETERNAL_LOG(kDebug, kTag,
                util::to_string(node_) << " bulk transfer " << re.transfer_id << " resumed "
                                       << re.received << "/" << re.parts.size()
                                       << " extents from stash");
  }
  if (re.received == re.parts.size()) {
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->recovery().bulk_streamed(e.target_group, e.subject, sim_.now());
    }
  }
}

void Mechanisms::on_bulk(NodeId from, util::BytesView payload) {
  std::optional<Envelope> env = decode_envelope(payload);
  if (!env) {
    ETERNAL_LOG(kWarn, kTag, "malformed bulk-lane frame; dropped");
    return;
  }
  switch (env->kind) {
    case EnvelopeKind::kBulkExtent: handle_bulk_extent(from, *env); return;
    case EnvelopeKind::kBulkAck: handle_bulk_ack(*env); return;
    default:
      // Ordered kinds have no business on the lane; ignore them so a
      // confused or malicious peer cannot smuggle around the total order.
      return;
  }
}

void Mechanisms::ack_extent(GroupId group, std::uint64_t epoch, const StateReassembly& re,
                            std::uint32_t index) {
  if (bulk_lane_ == nullptr) return;
  Envelope ack;
  ack.kind = EnvelopeKind::kBulkAck;
  ack.target_group = group;
  ack.op_seq = epoch;
  ack.subject = re.subject;
  ack.subject_node = node_;
  ack.chunk_index = index;
  ack.chunk_count = static_cast<std::uint32_t>(re.parts.size());
  ack.transfer_id = re.transfer_id;
  bulk_lane_->send(node_, re.sender, encode_envelope(ack));
}

void Mechanisms::handle_bulk_extent(NodeId from, const Envelope& e) {
  auto it = reassemblies_.find({e.target_group.value, e.op_seq, Carrier::kLane});
  if (it == reassemblies_.end()) return;  // unknown/superseded: no ack, sender retries
  StateReassembly& re = it->second;
  if (re.transfer_id != e.transfer_id || re.sender != from) return;
  if (e.chunk_count != re.parts.size() || e.chunk_index >= re.parts.size() ||
      e.total_bytes != re.total_bytes || e.extent_bytes != re.extent_bytes) {
    return;
  }
  if (!re.parts[e.chunk_index].empty()) {
    // Duplicate: our earlier ack was lost on the lane. Re-ack, don't re-verify.
    ack_extent(e.target_group, e.op_seq, re, e.chunk_index);
    return;
  }
  if (util::fnv1a(e.payload) != re.digests[e.chunk_index]) {
    stats_.bulk_digest_mismatches += 1;
    ETERNAL_LOG(kWarn, kTag,
                util::to_string(node_) << " bulk extent " << e.chunk_index << " of transfer "
                                       << e.transfer_id << " failed digest verify; dropped");
    return;  // no ack — the sender re-ships it (or exhausts and falls back)
  }
  re.parts[e.chunk_index] = e.payload.to_bytes();
  re.received += 1;
  stats_.bulk_extents_received += 1;
  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().bulk_extent(e.target_group, re.subject, sim_.now(), e.chunk_index,
                                  e.chunk_count, e.payload.size());
  }
  ack_extent(e.target_group, e.op_seq, re, e.chunk_index);
  if (re.received == re.parts.size()) {
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->recovery().bulk_streamed(e.target_group, re.subject, sim_.now());
    }
  }
}

void Mechanisms::handle_bulk_ack(const Envelope& e) {
  auto it = sends_.find({e.target_group.value, Carrier::kLane});
  if (it == sends_.end()) return;
  StateSend& s = it->second;
  if (s.transfer_id != e.transfer_id) return;
  if (e.chunk_index >= s.acked.size() || s.acked[e.chunk_index]) return;
  s.acked[e.chunk_index] = true;
  s.acked_count += 1;
  if (s.sent[e.chunk_index] && s.inflight > 0) s.inflight -= 1;
  s.retry_rounds = 0;  // forward progress
  // Resume acks can land before our descriptor self-delivers; hold the
  // stream (and the marker) until the ordered start, as the rival-descriptor
  // stand-down is decided there.
  if (s.streaming) pump_lane_send(s);
}

void Mechanisms::deliver_bulk_marker(const Envelope& e) {
  // Sender bookkeeping at the marker's ordered position: the transfer is
  // done (deliver_set_state below also stands down any same-epoch rival).
  auto out = sends_.find({e.target_group.value, Carrier::kLane});
  if (out != sends_.end() && out->second.transfer_id == e.transfer_id) {
    sim_.cancel(out->second.retry_timer);
    sends_.erase(out);
  }
  if (set_state_seen_[e.target_group.value].seen(e.op_seq)) return;  // duplicate epoch

  // The recoverer delivers the reassembled set_state; every other node
  // synthesizes a skeleton carrying the marker's metadata. Both run
  // deliver_set_state at this same total-order position, so the replicated
  // group table transitions identically everywhere.
  bool no_image = false;
  const TransferKey key{e.target_group.value, e.op_seq, Carrier::kLane};
  auto in = reassemblies_.find(key);
  if (in != reassemblies_.end() && in->second.transfer_id == e.transfer_id) {
    no_image = true;
    if (in->second.received == in->second.parts.size()) {
      const StateReassembly re = std::move(in->second);
      reassemblies_.erase(in);
      if (assemble_and_deliver(re)) {
        stats_.bulk_transfers_completed += 1;
        return;
      }
      // Every extent digest verified, so this means the descriptor itself
      // described garbage. Unreachable from our own sender; counted, and
      // recovery is re-served by the coordinator path.
      stats_.state_transfer_failures += 1;
    } else {
      // Protocol-unreachable (the marker follows the last ack); defensive.
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " bulk marker for transfer " << e.transfer_id
                                         << " with incomplete reassembly");
      drop_transfers(TransferEnd::kSuperseded, [&](const TransferRef& t) {
        return !t.outgoing && t.carrier == Carrier::kLane && t.group == e.target_group &&
               t.epoch == e.op_seq;
      });
    }
  }

  Envelope skeleton;
  skeleton.kind = EnvelopeKind::kSetState;
  skeleton.target_group = e.target_group;
  skeleton.op_seq = e.op_seq;
  skeleton.subject = e.subject;
  skeleton.subject_node = e.subject_node;
  skeleton.delta_base = e.delta_base;
  LocalReplica* r = local_replica(e.target_group);
  if (r != nullptr && r->id == e.subject && r->phase == Phase::kRecovering) {
    // We are the recoverer but hold no usable image (GC'd reassembly, or the
    // decode failure above). Applying an empty skeleton would install empty
    // state into the servant; instead keep only the replicated-table side
    // consistent (every other node applies the skeleton) and leave the
    // replica recovering. Protocol-unreachable — the marker follows the last
    // verified ack — so this trades a visible stall for silent corruption.
    if (!no_image) stats_.state_transfer_failures += 1;
    set_state_seen_[e.target_group.value].test_and_insert(e.op_seq);
    react(table_.apply_state_transfer(skeleton));
    awaiting_get_state_[e.target_group.value].erase(e.subject.value);
    return;
  }
  deliver_set_state(skeleton);
}

// ------------------------------------------------- completion and abort/GC

bool Mechanisms::assemble_and_deliver(const StateReassembly& re) {
  std::size_t total = 0;
  for (const Bytes& part : re.parts) total += part.size();
  Bytes encoded;
  encoded.reserve(total);
  for (const Bytes& part : re.parts) encoded.insert(encoded.end(), part.begin(), part.end());
  // The inner envelope's payload is a slice of the reassembled image.
  std::optional<Envelope> inner = decode_envelope(util::SharedBytes(std::move(encoded)));
  if (!inner || inner->kind != EnvelopeKind::kSetState) {
    ETERNAL_LOG(kWarn, kTag, "malformed reassembled state envelope; dropped");
    return false;
  }
  deliver_set_state(*inner);
  return true;
}

void Mechanisms::drop_transfers(TransferEnd why,
                                const std::function<bool(const TransferRef&)>& match) {
  const bool counted = why != TransferEnd::kRingReset;
  const bool stash = why == TransferEnd::kSenderDeparted || why == TransferEnd::kSuperseded;
  for (auto it = sends_.begin(); it != sends_.end();) {
    const auto& [key, s] = *it;
    if (!match(TransferRef{s.group, s.epoch, s.subject, node_, key.second, true})) {
      ++it;
      continue;
    }
    if (key.second == Carrier::kLane) sim_.cancel(s.retry_timer);
    if (counted) {
      (key.second == Carrier::kRing ? stats_.chunk_sends_aborted
                                    : stats_.bulk_transfers_aborted) += 1;
    }
    it = sends_.erase(it);
  }
  for (auto it = reassemblies_.begin(); it != reassemblies_.end();) {
    auto& [key, re] = *it;
    if (!match(TransferRef{GroupId{key.group}, key.epoch, re.subject, re.sender, key.carrier,
                           false})) {
      ++it;
      continue;
    }
    if (counted) {
      (key.carrier == Carrier::kRing ? stats_.state_chunk_aborts
                                     : stats_.bulk_transfers_aborted) += 1;
    }
    if (stash && key.carrier == Carrier::kLane) {
      auto& banked = bulk_stash_[{key.group, re.subject.value}];
      for (std::size_t i = 0; i < re.parts.size(); ++i) {
        if (!re.parts[i].empty()) banked[re.digests[i]] = std::move(re.parts[i]);
      }
    }
    it = reassemblies_.erase(it);
  }
}

}  // namespace eternal::core
