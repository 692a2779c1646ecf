#include "orb/transport.hpp"

#include <stdexcept>

namespace eternal::orb {

class TcpNetwork::Port : public Transport {
 public:
  Port(TcpNetwork& net, Endpoint local, MessageSink& sink)
      : net_(net), local_(local), sink_(&sink) {}

  void send(const Endpoint& to, Bytes iiop) override { net_.send_from(local_, to, std::move(iiop)); }

  MessageSink* sink() const noexcept { return sink_; }

 private:
  TcpNetwork& net_;
  Endpoint local_;
  MessageSink* sink_;
};

TcpNetwork::TcpNetwork(sim::Simulator& sim, TcpConfig config) : sim_(sim), config_(config) {}

TcpNetwork::~TcpNetwork() = default;

Transport& TcpNetwork::bind(const Endpoint& local, MessageSink& sink) {
  auto port = std::make_unique<Port>(*this, local, sink);
  Transport& out = *port;
  ports_[key_of(local)] = std::move(port);
  return out;
}

void TcpNetwork::unbind(const Endpoint& local) { ports_.erase(key_of(local)); }

util::Duration TcpNetwork::transfer_time(std::size_t bytes) const {
  // Segment the message at the MTU, add per-segment header cost, serialize
  // at the link bandwidth.
  const std::size_t segments = bytes == 0 ? 1 : (bytes + config_.mtu_bytes - 1) / config_.mtu_bytes;
  const std::size_t wire_bytes = bytes + segments * 58;  // TCP/IP/Ethernet headers
  const double seconds = static_cast<double>(wire_bytes) * 8.0 / config_.bandwidth_bps;
  return util::Duration(static_cast<std::int64_t>(seconds * 1e9));
}

void TcpNetwork::send_from(const Endpoint& from, const Endpoint& to, Bytes iiop) {
  auto it = ports_.find(key_of(to));
  if (it == ports_.end()) return;  // peer gone: TCP RST, message lost

  // Per-link serialization (a busy link delays the next message).
  const std::uint64_t link = key_of(from) ^ (key_of(to) << 1);
  util::TimePoint& free_at = link_free_at_[link];
  const util::TimePoint start = std::max(sim_.now(), free_at);
  const util::Duration tx = transfer_time(iiop.size());
  free_at = start + tx;
  const util::TimePoint arrival = free_at + config_.base_latency;

  messages_sent_ += 1;
  const util::SharedBytes payload(std::move(iiop));
  sim_.schedule_at(arrival, [this, from, to, payload] {
    auto port_it = ports_.find(key_of(to));
    if (port_it == ports_.end()) return;
    port_it->second->sink()->on_message(from, payload);
  });
}

}  // namespace eternal::orb
