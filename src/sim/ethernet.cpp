#include "sim/ethernet.hpp"

#include <array>
#include <memory>
#include <stdexcept>

#include "util/log.hpp"

namespace eternal::sim {

/// The delivery event of one broadcast: the frame and its receivers in
/// send-time order. Up to kInline receivers are stored in the event itself
/// (so the event fits Callback's inline buffer and schedules without
/// allocating); a longer list lives in one heap array, in the same order.
struct Ethernet::Arrival {
  static constexpr std::uint32_t kInline = 16;

  Ethernet* ether;
  util::SharedBytes frame;
  NodeId from;
  std::uint32_t count = 0;
  std::array<NodeId, kInline> inline_to{};
  std::unique_ptr<NodeId[]> spilled_to;  ///< set when receivers may exceed kInline

  Arrival(Ethernet* e, util::SharedBytes f, NodeId sender, std::size_t max_receivers)
      : ether(e), frame(std::move(f)), from(sender) {
    if (max_receivers > kInline) spilled_to = std::make_unique<NodeId[]>(max_receivers);
  }

  NodeId* receivers() noexcept { return spilled_to ? spilled_to.get() : inline_to.data(); }
  void add(NodeId to) noexcept { receivers()[count++] = to; }

  void operator()() {
    ether->stats_.deliveries_coalesced += count - 1;
    for (std::uint32_t i = 0; i < count; ++i) {
      // Looked up per receiver: an earlier receiver's handler may crash or
      // re-attach a later one, exactly as between per-receiver events.
      auto it = ether->stations_.find(receivers()[i]);
      if (it == ether->stations_.end()) continue;  // crashed before arrival
      it->second->on_frame(from, frame);
    }
  }
};

Ethernet::Ethernet(Simulator& sim, EthernetConfig config, std::uint64_t loss_seed)
    : sim_(sim), config_(config), rng_(loss_seed) {
  if (config_.max_frame_bytes <= config_.frame_header_bytes) {
    throw std::invalid_argument("Ethernet: frame header larger than frame");
  }
}

void Ethernet::attach(NodeId node, Station* station) {
  if (station == nullptr) throw std::invalid_argument("Ethernet: null station");
  stations_[node] = station;
}

void Ethernet::detach(NodeId node) { stations_.erase(node); }

int Ethernet::component_of(NodeId node) const noexcept {
  auto it = partition_.find(node);
  return it == partition_.end() ? 0 : it->second;
}

util::Duration Ethernet::frame_tx_time(std::size_t payload_bytes) const noexcept {
  const std::size_t wire_bytes =
      payload_bytes + config_.frame_header_bytes + config_.frame_gap_bytes;
  const double seconds = static_cast<double>(wire_bytes) * 8.0 / config_.bandwidth_bps;
  return util::Duration(static_cast<std::int64_t>(seconds * 1e9));
}

void Ethernet::broadcast(NodeId from, Bytes payload) {
  if (payload.size() > max_payload()) {
    throw std::length_error("Ethernet: payload exceeds max frame; fragment above this layer");
  }
  if (!attached(from)) return;  // a crashed node cannot transmit

  // Serialize on the shared medium: the frame starts when the medium frees.
  const TimePoint start = std::max(sim_.now(), medium_free_at_);
  const util::Duration tx = frame_tx_time(payload.size());
  medium_free_at_ = start + tx;
  const TimePoint arrival = medium_free_at_ + config_.propagation;

  stats_.frames_sent += 1;
  stats_.bytes_sent += payload.size() + config_.frame_header_bytes + config_.frame_gap_bytes;
  stats_.payload_bytes += payload.size();

  // Blackout burst: the frame occupied the medium but nobody receives it.
  if (drop_next_ > 0) {
    drop_next_ -= 1;
    stats_.frames_dropped += 1;
    return;
  }

  const int sender_component = component_of(from);
  // Snapshot recipients now; attachment changes before `arrival` are checked
  // again at delivery time (a station that crashed mid-flight gets nothing).
  static_assert(sizeof(Arrival) <= Callback::kInlineBytes,
                "a broadcast's delivery event must not allocate");
  Arrival delivery(this, util::SharedBytes(std::move(payload)), from, stations_.size() - 1);
  for (const auto& [node, station] : stations_) {
    if (node == from) continue;
    if (component_of(node) != sender_component) continue;
    auto loss_it = receiver_loss_.find(node);
    const double loss =
        loss_it != receiver_loss_.end() ? loss_it->second : config_.loss_probability;
    if (loss > 0 && rng_.chance(loss)) {
      stats_.frames_dropped += 1;
      continue;
    }
    delivery.add(node);
  }
  if (delivery.count > 0) sim_.schedule_at(arrival, std::move(delivery));
}

void Ethernet::set_partition(const std::vector<NodeId>& nodes, int component) {
  for (NodeId n : nodes) partition_[n] = component;
}

void Ethernet::set_receiver_loss(NodeId node, double p) {
  if (p <= 0.0) {
    receiver_loss_.erase(node);
  } else {
    receiver_loss_[node] = p;
  }
}

void Ethernet::heal_partition() { partition_.clear(); }

}  // namespace eternal::sim
