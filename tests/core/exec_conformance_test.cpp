// FOM execution-engine conformance harness.
//
// Every request reaches its servant through the run-to-completion execution
// engine (src/core/exec/): agreed delivery only *enqueues* a FOM at its
// total-order position, and a locality scheduler drains the run queue
// through decode → execute → log → reply phases, emitting replies strictly
// in total-order position even when execution completes out of order.
//
// At exec_concurrency 1 the engine must be observationally identical to the
// synchronous upcall path it replaced. That path no longer exists, so its
// behaviour is kept as data: tests/data/exec_conformance.txt holds, for each
// seeded scenario — clean, lossy, ring reformation, chunked set_state
// recovery, a chaos smoke, and the slow servant — digests recorded from the
// synchronous path before it was deleted:
//
//   - delivery: the interleaved agreed-delivery stream of every node (frame
//     origin, digest and size, ring and sequence number, in delivery order;
//     the per-sender streams are projections of it);
//   - enqueue: every replica's run-queue stream (mech enqueue events);
//   - replies: per-client reply order and reply bodies;
//   - servants: value / oneway notes / ops served of every live replica.
//
// Each test runs the engine at concurrency 1 and requires all four digests
// to equal the recorded ones, plus a clean InvariantChecker verdict. A
// change that moves virtual behaviour on purpose regenerates the goldens by
// running the binary directly (not under ctest, which runs tests in
// parallel processes) with ETERNAL_CONFORMANCE_UPDATE=1, and says why in
// CHANGES.md.
//
// The slow-servant scenario additionally runs the engine at concurrency 4:
// a stalling operation overlaps with bystander requests, so completion
// order differs from admission order and the in-order reply sequencer is
// load-bearing. Wire-level interleaving may then legitimately shift, but
// per-sender streams, per-client reply order and state digests must still
// match the concurrency-1 run. (The latency effect of that overlap —
// bystander p99 — is measured in bench/bench_throughput.cpp,
// BENCH_exec_engine.json.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "obs/invariants.hpp"
#include "sim/chaos.hpp"
#include "support/counter_servant.hpp"
#include "support/digest.hpp"

#ifndef ETERNAL_TEST_DATA_DIR
#error "ETERNAL_TEST_DATA_DIR must name tests/data"
#endif

namespace eternal {
namespace {

using core::FtProperties;
using core::ReplicationStyle;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using test_support::Digest;
using util::Duration;
using util::GroupId;
using util::NodeId;

constexpr Duration kMs{1'000'000};

const std::string kGoldenPath =
    std::string(ETERNAL_TEST_DATA_DIR) + "/exec_conformance.txt";

enum class Scenario { kClean, kLossy, kReformation, kChunked, kChaos, kSlowServant };

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kClean: return "clean";
    case Scenario::kLossy: return "lossy";
    case Scenario::kReformation: return "reformation";
    case Scenario::kChunked: return "chunked";
    case Scenario::kChaos: return "chaos";
    case Scenario::kSlowServant: return "slow-servant";
  }
  return "?";
}

using Streams = std::map<std::string, std::vector<std::string>>;

/// Digest of keyed streams: each key, its length, then its entries.
std::uint64_t digest_of(const Streams& streams) {
  Digest d;
  for (const auto& [key, stream] : streams) {
    d.add(key);
    d.add(std::to_string(stream.size()));
    for (const std::string& entry : stream) d.add(entry);
  }
  return d.value();
}

/// Everything a run is compared on.
struct Outcome {
  /// "node<n>" → full interleaved agreed-delivery stream (one entry per
  /// Totem deliver event, all identity fields).
  Streams per_node;
  /// replica → "<client>#<op_seq>" run-queue stream (mech enqueue events):
  /// the application-level per-sender delivery order. Compared in every
  /// mode — overlapped execution must not reorder the total order.
  Streams enqueue_streams;
  /// client tag → reply log in callback order ("<tag>#<i>:<op>=<result>").
  Streams replies;
  /// One digest line per servant incarnation that finished the run live.
  std::vector<std::string> servant_digests;
  std::vector<obs::Violation> violations;
  std::uint64_t trace_dropped = 0;
  std::uint64_t engine_max_inflight = 0;  ///< max over the hosting nodes' engines
  bool drained = false;

  /// "<key> delivery=<hex> enqueue=<hex> replies=<hex> servants=<hex>".
  std::string golden_line(const std::string& key) const {
    std::ostringstream os;
    os << key << std::hex << " delivery=" << digest_of(per_node)
       << " enqueue=" << digest_of(enqueue_streams) << " replies=" << digest_of(replies)
       << " servants=" << digest_of({{"servants", servant_digests}});
    return os.str();
  }
};

/// Decodes the reply body of a two-way counter op into a short tag.
std::string reply_tag(const orb::ReplyOutcome& out) {
  if (out.status != giop::ReplyStatus::kNoException) return "exception";
  if (out.body.empty()) return "void";
  return std::to_string(CounterServant::decode_i32(out.body));
}

/// Runs one scenario at one engine concurrency and extracts its Outcome.
/// The scenario script (workload schedule, fault injections, drain
/// predicates) is identical across concurrencies by construction.
Outcome run_scenario(Scenario scenario, std::size_t concurrency, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.seed = seed;
  cfg.trace_capacity = 1u << 18;
  cfg.span_capacity = 1u << 14;  // exercise the per-phase FOM spans too
  cfg.mechanisms.exec_concurrency = concurrency;
  if (scenario == Scenario::kChunked) cfg.mechanisms.state_chunk_bytes = 512;

  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;

  const std::size_t pad = scenario == Scenario::kChunked ? 3000 : 0;
  std::vector<std::shared_ptr<CounterServant>> servants(cfg.nodes + 1);
  const GroupId server = sys.deploy(
      "counter", "IDL:Counter:1.0", props, {NodeId{1}, NodeId{2}},
      [&](NodeId n) {
        auto s = std::make_shared<CounterServant>(sys.sim(), pad);
        if (scenario == Scenario::kSlowServant) s->set_slow_op("get", 3 * kMs);
        servants[n.value] = s;
        return s;
      });
  sys.deploy_client("client-a", NodeId{3}, {server});
  sys.deploy_client("client-b", NodeId{4}, {server});
  orb::ObjectRef ref_a = sys.client(NodeId{3}, server);
  orb::ObjectRef ref_b = sys.client(NodeId{4}, server);

  Outcome out;
  int expected = 0;
  int replied = 0;
  int notes = 0;
  // Fires round i's operation on one client: a deterministic mix of two-way
  // incs and (slow-able) gets with an occasional oneway note. Back-to-back
  // rounds outpace the servant, so the run queue is never trivially empty.
  auto fire = [&](const std::string& tag, orb::ObjectRef& ref, int i) {
    if (i % 7 == 3) {
      ref.oneway("note", {});
      ++notes;
      return;
    }
    const bool get = i % 5 == 2;
    const std::string op = get ? "get" : "inc";
    util::Bytes args = get ? util::Bytes{} : CounterServant::encode_i32(1 + i % 3);
    ++expected;
    ref.invoke(op, std::move(args), [&, tag, i, op](const orb::ReplyOutcome& reply) {
      out.replies[tag].push_back(tag + "#" + std::to_string(i) + ":" + op + "=" +
                                 reply_tag(reply));
      ++replied;
    });
  };
  auto fire_rounds = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      fire("a", ref_a, i);
      fire("b", ref_b, i);
      sys.run_for(2 * kMs);
    }
  };

  sim::ChaosScript chaos(sys.sim(), std::string("conf_") + to_string(scenario));
  switch (scenario) {
    case Scenario::kLossy:
      sys.ethernet().set_loss_probability(0.02);
      break;
    case Scenario::kChaos:
      chaos.loss_burst(4 * kMs, 8 * kMs, sys.ethernet(), 0.05);
      chaos.receiver_loss_burst(14 * kMs, 6 * kMs, sys.ethernet(), NodeId{3}, 0.5);
      chaos.arm();
      break;
    default:
      break;
  }

  if (scenario == Scenario::kReformation) {
    // Crash a hosting processor mid-stream: the ring reforms and the
    // surviving replica serves on. Rounds continue across the reformation.
    fire_rounds(0, 6);
    sys.crash_node(NodeId{2});
    fire_rounds(6, 16);
  } else if (scenario == Scenario::kChunked) {
    // Kill → serve degraded → relaunch: the 3 KB servant state rides back
    // as a fragmented (chunked) set_state, with live traffic before,
    // during and after the transfer.
    fire_rounds(0, 4);
    sys.kill_replica(NodeId{2}, server);
    EXPECT_TRUE(sys.run_until(
        [&] {
          const auto* entry = sys.mech(NodeId{1}).groups().find(server);
          return entry != nullptr && entry->members.size() == 1;
        },
        Duration(3'000'000'000)));
    fire_rounds(4, 10);
    sys.relaunch_replica(NodeId{2}, server);
    fire_rounds(10, 16);
    EXPECT_TRUE(sys.run_until(
        [&] { return sys.mech(NodeId{2}).hosts_operational(server); },
        Duration(5'000'000'000)));
  } else {
    fire_rounds(0, 16);
  }

  if (scenario == Scenario::kLossy) sys.ethernet().set_loss_probability(0.0);

  // Drain: every two-way reply back, every oneway note executed at every
  // live replica, then a settle window for grace timers and reply tails.
  out.drained =
      sys.run_until([&] { return replied == expected; }, Duration(10'000'000'000));
  sys.run_until(
      [&] {
        for (std::uint32_t n = 1; n <= cfg.nodes; ++n) {
          if (servants[n] == nullptr) continue;
          if (!sys.mech(NodeId{n}).hosts_operational(server)) continue;
          if (servants[n]->notes() != static_cast<std::uint64_t>(notes)) return false;
        }
        return true;
      },
      Duration(2'000'000'000));
  sys.run_for(50 * kMs);

  // ---- extraction ----
  out.trace_dropped = sys.trace()->dropped();
  out.violations = obs::InvariantChecker::check(*sys.trace());
  for (const obs::TraceEvent& ev : sys.trace()->snapshot()) {
    if (ev.layer == obs::Layer::kMech && ev.kind == "enqueue") {
      auto kv = obs::parse_detail(ev.detail);
      out.enqueue_streams["replica" + kv["replica"]].push_back(kv["client"] + "#" +
                                                               kv["op_seq"]);
      continue;
    }
    if (ev.layer != obs::Layer::kTotem || ev.kind != "deliver") continue;
    auto kv = obs::parse_detail(ev.detail);
    out.per_node["node" + std::to_string(ev.node.value)].push_back(
        "ring=" + kv["ring"] + " seq=" + std::to_string(ev.seq) + " origin=" + kv["origin"] +
        " digest=" + kv["digest"] + " size=" + kv["size"]);
  }
  for (std::uint32_t n = 1; n <= cfg.nodes; ++n) {
    if (servants[n] == nullptr) continue;
    if (!sys.mech(NodeId{n}).hosts_operational(server)) continue;
    out.servant_digests.push_back("node=" + std::to_string(n) +
                                  " value=" + std::to_string(servants[n]->value()) +
                                  " notes=" + std::to_string(servants[n]->notes()) +
                                  " ops=" + std::to_string(servants[n]->ops_served()));
  }
  for (std::uint32_t n = 1; n <= cfg.nodes; ++n) {
    if (const core::exec::ReplicaEngine* eng = sys.mech(NodeId{n}).engine_of(server)) {
      out.engine_max_inflight = std::max<std::uint64_t>(out.engine_max_inflight,
                                                        eng->stats().max_inflight);
    }
  }
  return out;
}

/// Rewrites (or adds) one golden line, keeping the others.
void store_golden(const std::string& key, const std::string& line) {
  std::map<std::string, std::string> goldens = test_support::load_golden_lines(kGoldenPath);
  goldens[key] = line;
  std::ofstream out(kGoldenPath);
  out << "# Synchronous-path reference for the FOM engine at concurrency 1\n"
         "# (tests/core/exec_conformance_test.cpp). <scenario>/seed<n> "
         "delivery=<fnv1a of per-node\n"
         "# delivery streams> enqueue=<run-queue streams> replies=<reply logs> "
         "servants=<servant digests>\n";
  for (const auto& [k, l] : goldens) out << l << '\n';
  ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
}

/// Runs `scenario` on the engine at concurrency 1 and holds it to the
/// recorded synchronous-path digests. Returns the run for further checks.
Outcome expect_matches_reference(Scenario scenario, std::uint64_t seed) {
  const Outcome run = run_scenario(scenario, 1, seed);
  EXPECT_TRUE(run.drained) << "the run did not drain its replies";
  EXPECT_EQ(run.trace_dropped, 0u);
  EXPECT_TRUE(run.violations.empty()) << obs::InvariantChecker::report(run.violations);

  const std::string key = std::string(to_string(scenario)) + "/seed" + std::to_string(seed);
  const std::string line = run.golden_line(key);
  if (std::getenv("ETERNAL_CONFORMANCE_UPDATE") != nullptr) {
    store_golden(key, line);
    return run;
  }
  const std::map<std::string, std::string> goldens =
      test_support::load_golden_lines(kGoldenPath);
  const auto it = goldens.find(key);
  EXPECT_NE(it, goldens.end()) << "no golden for " << key << " in " << kGoldenPath;
  if (it != goldens.end()) {
    EXPECT_EQ(line, it->second)
        << "the engine at concurrency 1 diverged from the synchronous-path "
           "reference (delivery: wire streams; enqueue: run-queue order; "
           "replies: per-client order and bodies; servants: final state)";
  }
  return run;
}

/// Keeps only the entries of `stream` belonging to `prefix` (e.g. "2#").
std::vector<std::string> project(const std::vector<std::string>& stream,
                                 const std::string& prefix) {
  std::vector<std::string> out;
  for (const std::string& s : stream) {
    if (s.rfind(prefix, 0) == 0) out.push_back(s);
  }
  return out;
}

/// Strips the "=<result>" suffix: the reply *schedule* (which op answered
/// when, per client) without the state-dependent payload.
std::vector<std::string> reply_schedule(const std::vector<std::string>& replies) {
  std::vector<std::string> out;
  for (const std::string& r : replies) out.push_back(r.substr(0, r.rfind('=')));
  return out;
}

/// Overlapped execution (exec_concurrency > 1) legitimately shifts reply
/// multicast instants, which perturbs token rotation and thus the *total
/// order across senders* — both runs are valid linearizations, but they are
/// not the same one, so cross-sender interleavings and intermediate counter
/// values cannot be compared against the concurrency-1 run. What must still
/// hold, and what this checks:
///   - per-sender FIFO: each client's projection of every replica's
///     run-queue stream is identical to the concurrency-1 run's;
///   - total-order agreement inside the run: all replicas enqueue the same
///     interleaved stream;
///   - in-order replies: each client's reply schedule (which op answered,
///     in what order) matches the concurrency-1 run — the reply sequencer
///     emitted strictly by position even though completions overlapped;
///   - convergence: final servant digests (value/notes/ops) match the
///     concurrency-1 run — the op multiset commutes to the same final state.
void expect_overlap_equivalent(const Outcome& serial, const Outcome& overlap) {
  ASSERT_TRUE(serial.drained);
  ASSERT_TRUE(overlap.drained);
  EXPECT_TRUE(overlap.violations.empty())
      << obs::InvariantChecker::report(overlap.violations);

  const std::vector<std::string>* reference = nullptr;
  for (const auto& [replica, stream] : overlap.enqueue_streams) {
    const auto serial_it = serial.enqueue_streams.find(replica);
    ASSERT_NE(serial_it, serial.enqueue_streams.end()) << replica;
    for (const std::string& client : {std::string("2#"), std::string("3#")}) {
      EXPECT_EQ(project(stream, client), project(serial_it->second, client))
          << "per-sender FIFO order broken for client " << client << " at " << replica;
    }
    if (reference == nullptr) {
      reference = &stream;
    } else {
      EXPECT_EQ(stream, *reference) << "replicas disagree on the total order";
    }
  }
  ASSERT_EQ(serial.replies.size(), overlap.replies.size());
  for (const auto& [client, replies] : overlap.replies) {
    const auto serial_it = serial.replies.find(client);
    ASSERT_NE(serial_it, serial.replies.end()) << client;
    EXPECT_EQ(reply_schedule(replies), reply_schedule(serial_it->second))
        << "client " << client << " saw replies out of issue order";
  }
  EXPECT_EQ(serial.servant_digests, overlap.servant_digests)
      << "final servant state diverged despite identical op multisets";
}

class ExecConformance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecConformance, Clean) { expect_matches_reference(Scenario::kClean, GetParam()); }

TEST_P(ExecConformance, Lossy) { expect_matches_reference(Scenario::kLossy, GetParam()); }

TEST_P(ExecConformance, Reformation) {
  expect_matches_reference(Scenario::kReformation, GetParam());
}

TEST_P(ExecConformance, ChunkedRecovery) {
  expect_matches_reference(Scenario::kChunked, GetParam());
}

TEST_P(ExecConformance, ChaosSmoke) { expect_matches_reference(Scenario::kChaos, GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, ExecConformance, ::testing::Values(11, 29, 73),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Fast tier-1 slice: one seed of the cheapest and the most recovery-heavy
// scenarios (registered via --gtest_filter in tests/CMakeLists.txt).
TEST(ExecConformanceFast, CleanSeed11) { expect_matches_reference(Scenario::kClean, 11); }

TEST(ExecConformanceFast, ChunkedRecoverySeed29) {
  expect_matches_reference(Scenario::kChunked, 29);
}

// Slow-servant overlap: a 3 ms "get" stalls the object while 100 us incs
// queue behind it. The concurrency-1 run is held to the synchronous-path
// reference; with exec_concurrency 4 the engine genuinely overlaps
// executions (max_inflight > 1) and completion order differs from admission
// order, so the in-order reply sequencer is load-bearing — see
// expect_overlap_equivalent for exactly which observables must survive.
TEST(ExecConformanceFast, SlowServantOverlapPreservesObservableOrder) {
  const Outcome serial_run = expect_matches_reference(Scenario::kSlowServant, 11);
  const Outcome overlap_run = run_scenario(Scenario::kSlowServant, 4, 11);
  expect_overlap_equivalent(serial_run, overlap_run);
  EXPECT_GT(overlap_run.engine_max_inflight, 1u)
      << "concurrency 4 never overlapped executions — the scenario is not "
         "exercising the reply sequencer";
}

}  // namespace
}  // namespace eternal
