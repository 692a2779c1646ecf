// Virtual-behaviour fingerprints.
//
// determinism_test proves that one build replays a seed byte-identically.
// This suite pins same-seed behaviour *across builds*: eleven short canonical
// scenarios each reduce their trace stream and their per-client reply
// schedule to 64-bit digests, compared with the goldens in
// tests/data/fingerprints.txt. A host-speed or refactoring change (event
// queue, frame store, codecs) must leave every golden untouched; a change
// that alters virtual behaviour on purpose regenerates them with
//
//   ETERNAL_FINGERPRINT_UPDATE=1 ./tests/fingerprint_test
//
// (run from the build tree; it rewrites the golden file in the source tree)
// and says why in CHANGES.md.
//
// A golden line also records the number of simulator events the run
// executed, counted as if every receiver of an Ethernet broadcast had its
// own delivery event (events executed plus the deliveries each segment
// coalesced into one event per broadcast). It is not observable behaviour,
// but a host-speed change must not alter it either: same schedule calls,
// same order, same tie-breaks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment.hpp"
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
constexpr Duration kUs{1'000};

const std::string kGoldenPath = std::string(ETERNAL_TEST_DATA_DIR) + "/fingerprints.txt";

struct Fingerprint {
  std::uint64_t trace = 0;    ///< digest of the exported trace stream
  std::uint64_t replies = 0;  ///< digest of every client's reply schedule
  std::uint64_t events = 0;   ///< simulator events, one per frame receiver

  std::string line(const std::string& name) const {
    std::ostringstream os;
    os << name << " trace=" << std::hex << trace << " replies=" << replies << std::dec
       << " events=" << events;
    return os.str();
  }
};

/// One scenario's system plus the reply bookkeeping every scenario shares.
class Rig {
 public:
  explicit Rig(SystemConfig cfg) : sys_(with_trace(std::move(cfg))) {}

  System& sys() noexcept { return sys_; }

  /// Deploys a counter group on `placement`; returns the group.
  GroupId deploy_counter(const std::string& name, const FtProperties& props,
                         const std::vector<NodeId>& placement, std::size_t pad = 0,
                         std::vector<NodeId> backups = {}) {
    return sys_.deploy(
        name, "IDL:Counter:1.0", props, placement,
        [this, pad](NodeId) { return std::make_shared<CounterServant>(sys_.sim(), pad); },
        std::move(backups));
  }

  /// Adds a client, on `node`, bound to every group in `targets`.
  void add_client(const std::string& tag, NodeId node, const std::vector<GroupId>& targets) {
    sys_.deploy_client(tag, node, targets);
    for (GroupId g : targets) clients_.push_back(Client{tag, sys_.client(node, g)});
  }

  /// Issues `count` "inc" invocations `gap` apart, round-robin over the
  /// clients, then runs until every one of them has been answered.
  void burst(int count, Duration gap) {
    const util::TimePoint start = sys_.sim().now();
    for (int i = 0; i < count; ++i) {
      const std::size_t c = static_cast<std::size_t>(i) % clients_.size();
      sys_.sim().schedule_at(start + gap * i, [this, c, i] { invoke(c, i + 1); });
    }
    issued_ += count;
    ASSERT_TRUE(sys_.run_until([this] { return answered_ == issued_; }, 5'000 * kMs))
        << answered_ << " of " << issued_ << " invocations answered";
  }

  /// Issues one oneway "note" from client `c` (no reply to wait for).
  void note(std::size_t c) { clients_[c].ref.oneway("note", {}); }

  Fingerprint finish() {
    const obs::TraceBuffer* trace = sys_.trace();
    EXPECT_EQ(trace->dropped(), 0u) << "trace buffer too small for the scenario";
    Digest t;
    t.add(trace->to_json());
    Fingerprint fp;
    fp.trace = t.value();
    fp.replies = replies_.value();
    fp.events = sys_.sim().events_executed();
    for (std::size_t ring = 0; ring < sys_.rings(); ++ring) {
      fp.events += sys_.ethernet(ring).stats().deliveries_coalesced;
    }
    return fp;
  }

 private:
  struct Client {
    std::string tag;
    orb::ObjectRef ref;
  };

  static SystemConfig with_trace(SystemConfig cfg) {
    cfg.trace_capacity = 1u << 19;
    return cfg;
  }

  void invoke(std::size_t c, std::int32_t delta) {
    const std::uint64_t k = ++sent_[c];
    clients_[c].ref.invoke(
        "inc", CounterServant::encode_i32(delta), [this, c, k](const orb::ReplyOutcome& out) {
          ++answered_;
          std::ostringstream os;
          os << clients_[c].tag << '/' << c << '#' << k << '@'
             << sys_.sim().now().count() << " status="
             << static_cast<int>(out.status) << " body=" << util::fnv1a(out.body);
          replies_.add(os.str());
        });
  }

  System sys_;
  std::vector<Client> clients_;
  std::map<std::size_t, std::uint64_t> sent_;
  int issued_ = 0;
  int answered_ = 0;
  Digest replies_;
};

FtProperties active(std::uint32_t replicas) {
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = replicas;
  props.minimum_replicas = 1;
  return props;
}

/// Active pair on nodes 1 and 2, clients on 3 and 4, no faults.
Fingerprint clean() {
  SystemConfig cfg;
  cfg.seed = 11;
  Rig rig(cfg);
  const GroupId g = rig.deploy_counter("counter", active(2), {NodeId{1}, NodeId{2}});
  rig.add_client("a", NodeId{3}, {g});
  rig.add_client("b", NodeId{4}, {g});
  rig.burst(120, 100 * kUs);
  return rig.finish();
}

/// The clean workload over a medium that drops 5 % of frames: token
/// retransmission requests and authoritative re-sends. A 16-frame GC margin
/// makes garbage collection of held frames run throughout.
Fingerprint lossy() {
  SystemConfig cfg;
  cfg.seed = 23;
  cfg.totem.gc_margin = 16;
  Rig rig(cfg);
  const GroupId g = rig.deploy_counter("counter", active(2), {NodeId{1}, NodeId{2}});
  rig.add_client("a", NodeId{3}, {g});
  rig.add_client("b", NodeId{4}, {g});
  rig.sys().ethernet().set_loss_probability(0.05);
  rig.burst(120, 100 * kUs);
  std::uint64_t retransmissions = 0;
  for (NodeId n : rig.sys().all_nodes()) {
    retransmissions += rig.sys().totem(n).stats().retransmissions;
  }
  EXPECT_GT(retransmissions, 0u);
  return rig.finish();
}

/// A bystander ring member crashes mid-run: gather, commit, recovery
/// exchange and install, with traffic before and after.
Fingerprint reformation() {
  SystemConfig cfg;
  cfg.nodes = 5;
  cfg.seed = 37;
  Rig rig(cfg);
  const GroupId g = rig.deploy_counter("counter", active(2), {NodeId{1}, NodeId{2}});
  rig.add_client("a", NodeId{3}, {g});
  rig.add_client("b", NodeId{4}, {g});
  rig.burst(20, 200 * kUs);
  rig.sys().crash_node(NodeId{5});
  rig.burst(20, 200 * kUs);
  EXPECT_EQ(rig.sys().totem(NodeId{1}).view().members.size(), 4u);
  return rig.finish();
}

/// Kill and relaunch one replica of an active pair with 8 kB of state;
/// `tune` picks the state-transfer carrier.
template <typename Tune, typename Check>
Fingerprint kill_relaunch(std::uint64_t seed, Tune tune, Check check) {
  SystemConfig cfg;
  cfg.seed = seed;
  tune(cfg);
  Rig rig(cfg);
  const GroupId g = rig.deploy_counter("counter", active(2), {NodeId{1}, NodeId{2}}, 8'000);
  rig.add_client("a", NodeId{3}, {g});
  rig.add_client("b", NodeId{4}, {g});
  rig.burst(10, 300 * kUs);
  rig.sys().kill_replica(NodeId{2}, g);
  rig.burst(10, 300 * kUs);
  rig.sys().relaunch_replica(NodeId{2}, g);
  rig.burst(20, 300 * kUs);
  EXPECT_TRUE(rig.sys().run_until(
      [&] { return rig.sys().mech(NodeId{2}).hosts_operational(g); }, 2'000 * kMs));
  rig.burst(10, 300 * kUs);
  check(rig.sys().mech(NodeId{2}).stats());
  return rig.finish();
}

/// In-band chunked state transfer (512 B chunks).
Fingerprint chunked() {
  return kill_relaunch(
      41, [](SystemConfig& cfg) { cfg.mechanisms.state_chunk_bytes = 512; },
      [](const core::MechanismsStats& s) { EXPECT_GT(s.state_chunks_received, 0u); });
}

/// Out-of-band bulk lane (1 kB extents) with the chunked control path.
Fingerprint bulk() {
  return kill_relaunch(
      43,
      [](SystemConfig& cfg) {
        cfg.mechanisms.state_chunk_bytes = 512;
        cfg.mechanisms.bulk_lane = true;
        cfg.mechanisms.bulk_extent_bytes = 1024;
      },
      [](const core::MechanismsStats& s) { EXPECT_GT(s.bulk_transfers_completed, 0u); });
}

/// The bulk lane dies mid-stream: the sender exhausts its extent retries,
/// aborts, and re-publishes the same epoch through the chunked carrier.
Fingerprint bulk_fallback() {
  SystemConfig cfg;
  cfg.seed = 67;
  cfg.mechanisms.state_chunk_bytes = 512;
  cfg.mechanisms.bulk_lane = true;
  cfg.mechanisms.bulk_extent_bytes = 1024;
  cfg.bulk_lane.bandwidth_bps = 8e6;  // 1 MB/s: the outage lands mid-stream
  Rig rig(cfg);
  const GroupId g = rig.deploy_counter("counter", active(2), {NodeId{1}, NodeId{2}}, 20'000);
  rig.add_client("a", NodeId{3}, {g});
  rig.add_client("b", NodeId{4}, {g});
  rig.burst(10, 300 * kUs);
  rig.sys().kill_replica(NodeId{2}, g);
  rig.burst(10, 300 * kUs);
  rig.sys().relaunch_replica(NodeId{2}, g);
  rig.sys().run_for(5 * kMs);
  rig.sys().bulk_lane().set_enabled(false);
  rig.burst(20, 300 * kUs);
  EXPECT_TRUE(rig.sys().run_until(
      [&] { return rig.sys().mech(NodeId{2}).hosts_operational(g); }, 2'000 * kMs));
  rig.burst(10, 300 * kUs);
  // Transfer counters recorded before the state-transfer pipeline was
  // unified; the carriers' GC and fallback accounting must not move.
  const core::MechanismsStats& sender = rig.sys().mech(NodeId{1}).stats();
  const core::MechanismsStats& recoverer = rig.sys().mech(NodeId{2}).stats();
  EXPECT_EQ(sender.bulk_fallbacks_chunked, 1u);
  EXPECT_EQ(sender.bulk_transfers_aborted, 1u);
  EXPECT_EQ(recoverer.bulk_transfers_aborted, 1u);
  EXPECT_EQ(recoverer.bulk_transfers_completed, 0u);
  EXPECT_EQ(recoverer.state_chunks_received, 40u);
  return rig.finish();
}

/// An active triple: two live sources answer each recovery epoch of the
/// third replica. With the bulk lane on, the sender whose descriptor is
/// ordered second stands down. With the lane off, both sources chunk: the
/// first sender's chunks win and the rival's count as duplicates. The
/// recoverer is killed once mid-transfer, so both sources abort their sends
/// when its removal is delivered. Then a source is killed mid-transfer: its
/// own send dies with its removal, and the survivor serves the recovery.
Fingerprint chunked_rivals() {
  SystemConfig cfg;
  cfg.nodes = 5;
  cfg.seed = 71;
  cfg.mechanisms.state_chunk_bytes = 512;
  cfg.mechanisms.bulk_lane = true;
  cfg.mechanisms.bulk_extent_bytes = 1024;
  Rig rig(cfg);
  const GroupId g = rig.deploy_counter("counter", active(3),
                                       {NodeId{1}, NodeId{2}, NodeId{3}}, 40'000);
  rig.add_client("a", NodeId{4}, {g});
  rig.add_client("b", NodeId{5}, {g});
  const auto recovered = [&] {
    return rig.sys().run_until(
        [&] { return rig.sys().mech(NodeId{3}).hosts_operational(g); }, 2'000 * kMs);
  };
  rig.burst(10, 300 * kUs);
  rig.sys().kill_replica(NodeId{3}, g);
  rig.burst(10, 300 * kUs);
  rig.sys().relaunch_replica(NodeId{3}, g);
  rig.burst(10, 300 * kUs);
  EXPECT_TRUE(recovered());

  rig.sys().bulk_lane().set_enabled(false);
  rig.sys().kill_replica(NodeId{3}, g);
  rig.burst(10, 300 * kUs);
  rig.sys().relaunch_replica(NodeId{3}, g);
  rig.sys().run_for(2 * kMs);
  rig.sys().kill_replica(NodeId{3}, g);
  rig.burst(10, 300 * kUs);
  rig.sys().relaunch_replica(NodeId{3}, g);
  rig.burst(10, 300 * kUs);
  EXPECT_TRUE(recovered());

  rig.sys().kill_replica(NodeId{3}, g);
  rig.burst(10, 300 * kUs);
  rig.sys().relaunch_replica(NodeId{3}, g);
  rig.sys().run_for(2 * kMs);
  rig.sys().kill_replica(NodeId{1}, g);
  rig.burst(10, 300 * kUs);
  EXPECT_TRUE(recovered());
  rig.burst(10, 300 * kUs);
  // Per-node transfer counters recorded before the state-transfer pipeline
  // was unified (nodes 1 and 2 are the rival sources, node 3 recovers).
  struct Expected {
    std::uint64_t duplicates, chunk_sends_aborted, chunk_aborts, bulk_aborted;
  };
  const Expected expected[] = {{148, 2, 4, 0}, {148, 1, 4, 1}, {148, 0, 4, 0}};
  for (std::uint32_t n = 1; n <= 3; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const core::MechanismsStats& s = rig.sys().mech(NodeId{n}).stats();
    const Expected& want = expected[n - 1];
    EXPECT_EQ(s.state_chunk_duplicates, want.duplicates);
    EXPECT_EQ(s.chunk_sends_aborted, want.chunk_sends_aborted);
    EXPECT_EQ(s.state_chunk_aborts, want.chunk_aborts);
    EXPECT_EQ(s.bulk_transfers_aborted, want.bulk_aborted);
  }
  EXPECT_EQ(rig.sys().mech(NodeId{3}).stats().bulk_transfers_completed, 1u);
  return rig.finish();
}

/// Warm-passive group with chained delta checkpoints: the primary is
/// killed (promotion replays checkpoint + deltas + log) and relaunched.
Fingerprint delta() {
  SystemConfig cfg;
  cfg.seed = 47;
  cfg.mechanisms.delta_chain_cap = 4;
  Rig rig(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kWarmPassive;
  props.checkpoint_interval = 10 * kMs;
  props.fault_monitoring_interval = 5 * kMs;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  const GroupId g = rig.deploy_counter("ledger", props, {NodeId{1}, NodeId{2}}, 2'000,
                                       {NodeId{2}, NodeId{3}});
  rig.add_client("a", NodeId{4}, {g});
  for (int round = 0; round < 4; ++round) {
    rig.burst(5, 500 * kUs);
    rig.sys().run_for(12 * kMs);
  }
  rig.sys().kill_replica(NodeId{1}, g);
  rig.burst(10, 500 * kUs);
  rig.sys().relaunch_replica(NodeId{1}, g);
  rig.sys().run_for(50 * kMs);
  rig.burst(10, 500 * kUs);
  EXPECT_GT(rig.sys().mech(NodeId{2}).stats().delta_checkpoints_applied, 0u);
  EXPECT_GT(rig.sys().mech(NodeId{2}).stats().promotions, 0u);
  return rig.finish();
}

/// Cold-passive primary kill: the first backup node restarts the group
/// from its checkpoint + message log. The logged tail holds a oneway
/// "note", so the replay waits out the oneway grace period mid-log.
Fingerprint cold_restart() {
  SystemConfig cfg;
  cfg.seed = 61;
  Rig rig(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kColdPassive;
  props.checkpoint_interval = 20 * kMs;
  props.fault_monitoring_interval = 5 * kMs;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  const GroupId g = rig.deploy_counter("vault", props, {NodeId{1}}, 1'000,
                                       {NodeId{2}, NodeId{3}});
  rig.add_client("a", NodeId{4}, {g});
  rig.burst(6, 500 * kUs);
  rig.sys().run_for(25 * kMs);  // a checkpoint reaches the backups' logs
  rig.burst(2, 300 * kUs);
  rig.note(0);
  rig.burst(3, 300 * kUs);

  const core::MessageLog* log = rig.sys().mech(NodeId{2}).log_of(g);
  EXPECT_TRUE(log != nullptr && log->checkpoint().has_value());
  bool oneway_logged = false;
  if (log != nullptr) {
    for (const core::Envelope& e : log->messages()) {
      const auto info = giop::inspect(e.payload);
      if (info && info->type == giop::MsgType::kRequest && !info->response_expected) {
        oneway_logged = true;
      }
    }
  }
  EXPECT_TRUE(oneway_logged) << "the replayed log must hold the oneway note";

  rig.sys().kill_replica(NodeId{1}, g);
  rig.burst(6, 500 * kUs);
  const core::MechanismsStats& s = rig.sys().mech(NodeId{2}).stats();
  EXPECT_GT(s.promotions, 0u);
  EXPECT_GE(s.log_replayed_messages, 6u);
  return rig.finish();
}

/// Four independent rings, one active pair placed on each, and two
/// clients bound to all four groups.
Fingerprint rings4() {
  SystemConfig cfg;
  cfg.seed = 53;
  cfg.placement.rings = 4;
  Rig rig(cfg);
  std::vector<GroupId> groups;
  for (int i = 0; i < 4; ++i) {
    groups.push_back(rig.deploy_counter("counter-" + std::to_string(i), active(2),
                                        {NodeId{1}, NodeId{2}}));
  }
  rig.add_client("a", NodeId{3}, groups);
  rig.add_client("b", NodeId{4}, groups);
  rig.burst(64, 100 * kUs);
  std::set<std::uint32_t> rings;
  for (GroupId g : groups) rings.insert(rig.sys().ring_of(g));
  EXPECT_GT(rings.size(), 1u) << "every group landed on one ring";
  return rig.finish();
}

/// The FOM execution engine at concurrency 4, with invocations arriving
/// faster than one execution so several overlap.
Fingerprint fom_c4() {
  SystemConfig cfg;
  cfg.seed = 59;
  cfg.mechanisms.exec_concurrency = 4;
  Rig rig(cfg);
  const GroupId g = rig.deploy_counter("counter", active(2), {NodeId{1}, NodeId{2}});
  rig.add_client("a", NodeId{3}, {g});
  rig.add_client("b", NodeId{4}, {g});
  rig.burst(40, 40 * kUs);
  const core::exec::ReplicaEngine* engine = rig.sys().mech(NodeId{1}).engine_of(g);
  EXPECT_TRUE(engine != nullptr && engine->stats().max_inflight > 1)
      << "concurrency 4 never overlapped executions";
  return rig.finish();
}

struct Scenario {
  const char* name;
  Fingerprint (*run)();
};

const Scenario kScenarios[] = {
    {"clean", clean},     {"lossy", lossy}, {"reformation", reformation},
    {"chunked", chunked}, {"bulk", bulk},   {"delta", delta},
    {"rings4", rings4},   {"fom_c4", fom_c4}, {"cold_restart", cold_restart},
    {"bulk_fallback", bulk_fallback}, {"chunked_rivals", chunked_rivals},
};

TEST(Fingerprint, CanonicalScenariosMatchGoldens) {
  const bool update = std::getenv("ETERNAL_FINGERPRINT_UPDATE") != nullptr;
  const std::map<std::string, std::string> goldens =
      test_support::load_golden_lines(kGoldenPath);
  if (!update) {
    ASSERT_FALSE(goldens.empty()) << "no goldens in " << kGoldenPath;
  }

  std::vector<std::string> lines;
  for (const Scenario& s : kScenarios) {
    SCOPED_TRACE(s.name);
    const Fingerprint fp = s.run();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    lines.push_back(fp.line(s.name));
    if (update) continue;
    const auto it = goldens.find(s.name);
    ASSERT_NE(it, goldens.end()) << "no golden for scenario " << s.name;
    EXPECT_EQ(lines.back(), it->second)
        << "virtual behaviour moved; if intended, regenerate the goldens "
           "(ETERNAL_FINGERPRINT_UPDATE=1) and justify it in CHANGES.md";
  }

  if (update) {
    std::ofstream out(kGoldenPath);
    out << "# Virtual-behaviour fingerprints (tests/core/fingerprint_test.cpp).\n"
           "# <scenario> trace=<fnv1a of trace JSON> replies=<fnv1a of reply "
           "schedule> events=<simulator events executed>\n";
    for (const std::string& l : lines) out << l << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
  }
}

}  // namespace
}  // namespace eternal
