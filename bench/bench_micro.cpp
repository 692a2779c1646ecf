// Micro-benchmarks (google-benchmark): the wire-format and transport
// building blocks — CDR marshaling, GIOP framing/inspection, Any state
// values, Eternal envelopes, and Totem multicast throughput/latency across
// the 1518-byte fragmentation knee — plus the simulation kernel's event
// queue, Ethernet broadcast delivery, Totem's frame store and the POA's
// dispatch path. Report-only: nothing gates on these rows.
#include <benchmark/benchmark.h>

#include "core/envelope.hpp"
#include "giop/giop.hpp"
#include "orb/orb.hpp"
#include "sim/ethernet.hpp"
#include "sim/simulator.hpp"
#include "totem/frame_store.hpp"
#include "totem/totem.hpp"
#include "util/any.hpp"
#include "util/cdr.hpp"

namespace {

using namespace eternal;

void BM_CdrEncodePrimitives(benchmark::State& state) {
  for (auto _ : state) {
    util::CdrWriter w;
    for (int i = 0; i < 64; ++i) {
      w.put_u32(static_cast<std::uint32_t>(i));
      w.put_u64(static_cast<std::uint64_t>(i) << 32);
      w.put_f64(3.25 * i);
    }
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_CdrEncodePrimitives);

void BM_CdrRoundTripString(benchmark::State& state) {
  const std::string text(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    util::CdrWriter w;
    w.put_string(text);
    util::CdrReader r(w.bytes(), w.order());
    benchmark::DoNotOptimize(r.get_string().size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CdrRoundTripString)->Arg(16)->Arg(256)->Arg(4096);

void BM_GiopEncodeRequest(benchmark::State& state) {
  giop::Request req;
  req.request_id = 42;
  req.object_key = util::bytes_of("some-object");
  req.operation = "transfer_funds";
  req.body.assign(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(giop::encode(req).data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GiopEncodeRequest)->Arg(64)->Arg(1024)->Arg(16384);

void BM_GiopInspect(benchmark::State& state) {
  giop::Request req;
  req.request_id = 42;
  req.object_key = util::bytes_of("some-object");
  req.operation = "transfer_funds";
  req.body.assign(1024, 0x5A);
  const util::Bytes wire = giop::encode(req);
  for (auto _ : state) {
    auto info = giop::inspect(wire);
    benchmark::DoNotOptimize(info->request_id);
  }
}
BENCHMARK(BM_GiopInspect);

void BM_AnyStateRoundTrip(benchmark::State& state) {
  util::Any::Struct s;
  s.emplace_back("value", util::Any::of_long(7));
  s.emplace_back("pad",
                 util::Any::of_octets(util::Bytes(static_cast<std::size_t>(state.range(0)), 1)));
  const util::Any any = util::Any::of_struct(std::move(s));
  for (auto _ : state) {
    const util::Bytes wire = any.to_bytes();
    benchmark::DoNotOptimize(util::Any::from_bytes(wire).field("value").as_long());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnyStateRoundTrip)->Arg(100)->Arg(10'000)->Arg(100'000);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  core::Envelope e;
  e.kind = core::EnvelopeKind::kRequest;
  e.client_group = util::GroupId{7};
  e.target_group = util::GroupId{9};
  e.op_seq = 123456;
  e.payload = util::Bytes(512, 0xEE);
  for (auto _ : state) {
    const util::Bytes wire = core::encode_envelope(e);
    benchmark::DoNotOptimize(core::decode_envelope(wire)->op_seq);
  }
}
BENCHMARK(BM_EnvelopeRoundTrip);

/// Totem agreed-delivery of one message of the given size across a 4-node
/// ring: reports *virtual* latency per message (fragmentation knee at the
/// Ethernet frame size) and real host time per simulated delivery.
void BM_TotemMulticastDelivery(benchmark::State& state) {
  struct Counter : totem::TotemListener {
    std::uint64_t delivered = 0;
    void on_deliver(const totem::Delivery&) override { delivered += 1; }
    void on_view_change(const totem::View&) override {}
  };

  const std::size_t size = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  Counter counters[4];
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  std::vector<util::NodeId> ring;
  for (std::uint32_t i = 1; i <= 4; ++i) ring.push_back(util::NodeId{i});
  for (std::uint32_t i = 1; i <= 4; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, ether, util::NodeId{i},
                                                       totem::TotemConfig{},
                                                       &counters[i - 1]));
  }
  for (auto& n : nodes) n->start(ring);
  sim.run_for(util::Duration(1'000'000));

  std::uint64_t messages = 0;
  double virtual_latency_ns = 0;
  for (auto _ : state) {
    const std::uint64_t before = counters[3].delivered;
    const util::TimePoint sent = sim.now();
    nodes[0]->multicast(util::Bytes(size, 0x77));
    while (counters[3].delivered == before) {
      if (!sim.step()) break;
    }
    virtual_latency_ns += static_cast<double>((sim.now() - sent).count());
    messages += 1;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(messages * size));
  state.counters["virt_latency_us"] =
      benchmark::Counter(virtual_latency_ns / 1e3 / static_cast<double>(messages));
}
BENCHMARK(BM_TotemMulticastDelivery)->Arg(100)->Arg(1400)->Arg(1600)->Arg(15000)->Arg(150000);

/// Background events parked where no benchmark run's clock reaches them.
constexpr std::int64_t kFarFuture = 1'000'000'000'000'000;  // ~11.6 virtual days

/// Event queue: schedule one event and fire it, with `range(0)` other events
/// pending far in the future (the heap depth a busy system carries).
void BM_SimScheduleFire(benchmark::State& state) {
  sim::Simulator sim;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sim.schedule(util::Duration(kFarFuture + i), [] {});
  }
  std::uint64_t fired = 0;
  // A capture the size of an Ethernet delivery (this, from, to, shared buffer).
  struct Capture {
    void* self;
    std::uint64_t from_to;
    std::shared_ptr<int> buffer;
  } capture{&sim, 7, std::make_shared<int>(1)};
  std::int64_t delay = 0;
  for (auto _ : state) {
    sim.schedule(util::Duration(delay), [&fired, capture] { fired += capture.from_to; });
    delay = (delay + 3'001) % 10'000;
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimScheduleFire)->Arg(16)->Arg(4096);

/// Token-timer pattern: every received frame re-arms a 5 ms timeout
/// (TotemNode::arm_token_timer), so most timers never fire. One iteration =
/// one frame arrival event plus its re-arm, either cancel + schedule
/// (range(1) == 0) or an in-place reschedule (range(1) == 1, what
/// arm_token_timer does).
void BM_SimCancelRearm(benchmark::State& state) {
  sim::Simulator sim;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sim.schedule(util::Duration(kFarFuture + i), [] {});
  }
  const bool in_place = state.range(1) != 0;
  sim::EventId timer{};
  std::uint64_t timeouts = 0;
  for (auto _ : state) {
    sim.schedule(util::Duration(10'000), [&] {
      const util::TimePoint when = sim.now() + util::Duration(5'000'000);
      if (in_place) {
        timer = sim.reschedule(timer, when);
        if (timer != sim::EventId{}) return;
      } else {
        sim.cancel(timer);
      }
      timer = sim.schedule_at(when, [&timeouts] { ++timeouts; });
    });
    sim.step();
  }
  benchmark::DoNotOptimize(timeouts);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimCancelRearm)
    ->ArgNames({"pending", "reschedule"})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

/// One Ethernet broadcast of a 200-byte frame to `range(0)` receivers,
/// from the send to the last receiver's on_frame. All receivers are handed
/// the frame by one simulator event.
void BM_EthernetBroadcast(benchmark::State& state) {
  struct Sink : sim::Station {
    std::uint64_t frames = 0;
    void on_frame(util::NodeId, const util::SharedBytes&) override { frames += 1; }
  };
  const std::uint32_t receivers = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  std::vector<Sink> sinks(receivers + 1);
  for (std::uint32_t i = 0; i <= receivers; ++i) ether.attach(util::NodeId{i + 1}, &sinks[i]);
  for (auto _ : state) {
    ether.broadcast(util::NodeId{1}, util::Bytes(200, 0x42));
    sim.run();
  }
  benchmark::DoNotOptimize(sinks.back().frames);
  state.SetItemsProcessed(state.iterations() * receivers);
}
BENCHMARK(BM_EthernetBroadcast)->Arg(3)->Arg(15);

/// One request through the server ORB and its POA, with 64 objects
/// active: decode, key lookup, admission, the execution gate, the reply
/// and the admission slot's release. The servant answers at once through
/// the gate; replies go to a transport that drops them.
void BM_PoaDispatch(benchmark::State& state) {
  struct Drop : orb::Transport {
    std::uint64_t sent = 0;
    void send(const orb::Endpoint&, util::Bytes) override { sent += 1; }
  };
  struct Immediate : orb::Servant {
    void invoke(orb::ServerRequestPtr request) override {
      request->run_when_clear([request] { request->reply(util::Bytes{1}); });
    }
  };
  sim::Simulator sim;
  orb::Orb server(sim, util::NodeId{2}, orb::OrbConfig{});
  Drop transport;
  server.plug_transport(transport);
  const auto servant = std::make_shared<Immediate>();
  for (int i = 0; i < 64; ++i) {
    server.root_poa().activate("replicated-object-" + std::to_string(i), servant, "IDL:X:1.0");
  }
  giop::Request req;
  req.request_id = 7;
  req.object_key = util::bytes_of("replicated-object-17");
  req.operation = "inc";
  req.body = util::Bytes(16, 0x5A);
  const util::SharedBytes wire(giop::encode(req));
  const orb::Endpoint client{util::NodeId{1}, 2809};
  for (auto _ : state) {
    server.on_message(client, wire);
    sim.run();
  }
  benchmark::DoNotOptimize(transport.sent);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoaDispatch);

/// Totem frame store in its steady state: insert the next sequence number
/// (moving a decoded frame in), look up the delivery head and a
/// retransmission target, and trim everything `gc_margin` (4096) behind.
void BM_FrameStoreInsertFindGc(benchmark::State& state) {
  constexpr std::uint64_t kMargin = 4096;
  totem::FrameStore store;
  std::uint64_t seq = 0;
  std::uint64_t found = 0;
  for (auto _ : state) {
    ++seq;
    totem::DataFrame f;
    f.seq = seq;
    f.payload = util::Bytes(200, 0x5a);
    store.emplace(std::move(f));
    found += store.find(seq) != nullptr;
    found += store.find(seq > 64 ? seq - 64 : seq) != nullptr;
    if (seq > kMargin) store.erase_below(seq - kMargin);
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameStoreInsertFindGc);

}  // namespace

BENCHMARK_MAIN();
