// End-to-end benchmark of the replicated-object system on two clocks.
//
//   e2e_bench --workload <active-fleet|passive-fleet|recovery-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Virtual time is the modelled Eternal system (Totem on 100 Mbps Ethernet,
// the ORB, the Mechanisms); it is deterministic per seed. Host time is the
// C++ program that runs the model. The benchmark generates its own open-loop
// arrivals (Poisson, Zipf 0.5 over the target groups, seeded from --seed),
// issues them through orb::ObjectRef::invoke, times each request from its
// due instant, and checks every reply (exactly once, in total order) and
// every executing replica's counter after the drain.
//
// --trace 0 prints the end-to-end metrics of the measured (untraced) run;
// --trace 1 prints the per-layer metrics, read from public stats of a
// measured run plus one run with trace and spans on. NOTES.md in this
// directory explains the workloads, the metrics and the layer map.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <time.h>

#include "core/deployment.hpp"
#include "obs/critpath.hpp"
#include "obs/invariants.hpp"
#include "obs/json.hpp"
#include "obs/spans.hpp"
#include "tests/support/counter_servant.hpp"
#include "util/rng.hpp"
#include "workload/drivers.hpp"

namespace {

using namespace eternal;
using core::FtProperties;
using core::ReplicationStyle;
using core::System;
using core::SystemConfig;
using util::Duration;
using util::GroupId;
using util::NodeId;
using util::ReplicaId;
using util::TimePoint;
using Clock = std::chrono::steady_clock;

constexpr Duration kMs{1'000'000};
constexpr Duration kSec{1'000'000'000};
constexpr NodeId kClientNode{4};
constexpr std::size_t kServerNodes = 3;  ///< replicas live on nodes 1..3
constexpr Duration kOpTime{20'000};      ///< 20 us per application operation
constexpr Duration kRecoveryBound = kSec;  ///< a slower recovery counts as hung
constexpr Duration kFailoverBound = kSec;
constexpr Duration kCapacityP999Limit = 10 * kMs;
constexpr Duration kDetectWait = 50 * kMs;  ///< kill -> relaunch

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// CPU time of the calling thread, in seconds. The simulator runs on one
/// thread, so this is the host work the model costs, without the time the
/// thread waited for a CPU on a shared machine.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
double cpu_since(double t0) { return cpu_now() - t0; }
double to_ms(Duration d) { return static_cast<double>(d.count()) / 1e6; }

/// Independent generator seed per (seed, stream): a splitmix hash, so that
/// nearby --seed values never give overlapping sequences.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  util::Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  mix.next();
  return mix.next();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ------------------------------------------------------------------- app
// The benchmark's own servant layer: the shared counter servant, wrapped to
// count executions and state upcalls and, when asked, to time them.

struct AppCounters {
  std::uint64_t executions = 0;
  std::uint64_t get_state_calls = 0;
  std::uint64_t set_state_calls = 0;
  std::uint64_t state_bytes_out = 0;  ///< application-level bytes get_state returned
  std::int64_t upcall_ns = 0;         ///< host time inside upcalls (timed runs only)
  bool timed = false;
};

class AppServant final : public test_support::CounterServant {
 public:
  AppServant(sim::Simulator& sim, std::size_t pad, AppCounters& counters)
      : CounterServant(sim, pad, kOpTime), pad_(pad), counters_(counters) {}

  util::Any get_state() override {
    ++counters_.get_state_calls;
    counters_.state_bytes_out += pad_ + sizeof(std::int32_t);
    return timed([&] { return CounterServant::get_state(); });
  }

  void set_state(const util::Any& state) override {
    ++counters_.set_state_calls;
    timed([&] {
      CounterServant::set_state(state);
      return 0;
    });
  }

 protected:
  util::Bytes serve_app(const std::string& operation, util::BytesView args) override {
    ++counters_.executions;
    return timed([&] { return CounterServant::serve_app(operation, args); });
  }

 private:
  template <class F>
  std::invoke_result_t<F> timed(F&& f) {
    if (!counters_.timed) return f();
    const auto t0 = Clock::now();
    auto result = f();
    counters_.upcall_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    return result;
  }

  std::size_t pad_;
  AppCounters& counters_;
};

// -------------------------------------------------------------- workloads

enum class Role { kFleet, kLarge, kSmall, kPassive };

struct GroupSpec {
  Role role;
  ReplicationStyle style;
  std::size_t pad;  ///< application state padding in bytes
};

struct Workload {
  std::string name;
  std::vector<GroupSpec> groups;  ///< load targets, hottest first (Zipf order)
  double rate = 0;                ///< fixed-rate phase, invocations per second
  Duration warmup{};
  Duration phase{};
  std::size_t cycles = 0;  ///< fault cycles inside the phase (0 = fault-free)
  Duration cycle_period{};  ///< fault cycles start this far apart
  /// This run is stratum `stratum` of `strata` runs whose kill instants
  /// together cover one fault-monitoring period (see run_pass).
  std::size_t stratum = 0, strata = 1;
  bool trace = false;      ///< trace stream on and judged by InvariantChecker
};

std::vector<GroupSpec> fleet(ReplicationStyle style, std::size_t pad, std::size_t n) {
  return std::vector<GroupSpec>(n, GroupSpec{Role::kFleet, style, pad});
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.warmup = 250 * kMs;
  if (name == "active-fleet") {
    w.groups = fleet(ReplicationStyle::kActive, 128, 16);
    w.rate = 8000;
    w.phase = 4 * kSec;
  } else if (name == "passive-fleet") {
    w.groups = fleet(ReplicationStyle::kWarmPassive, 4096, 16);
    w.rate = 8000;
    w.phase = 4 * kSec;
  } else if (name == "recovery-churn") {
    w.groups = fleet(ReplicationStyle::kActive, 128, 8);
    w.groups.push_back({Role::kLarge, ReplicationStyle::kActive, 1u << 20});
    w.groups.push_back({Role::kSmall, ReplicationStyle::kActive, 1024});
    w.groups.push_back({Role::kPassive, ReplicationStyle::kWarmPassive, 4096});
    w.rate = 2000;
    w.cycles = 15;
    w.cycle_period = 400 * kMs;
    w.phase = 300 * kMs + static_cast<std::int64_t>(w.cycles) * w.cycle_period;
    w.trace = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// Quiet recovery probes for the fleet workloads: kProbeRuns Systems per
/// role, each holding one group of that role under light load and running
/// one fault cycle. A System per recovery keeps the colocated-kill defect
/// and any state carried over from earlier recoveries out of the sample.
constexpr std::size_t kProbeRuns = 24;

Workload make_probe(Role role, std::size_t stratum) {
  Workload w;
  w.warmup = 100 * kMs;
  w.rate = 200;
  w.cycles = 1;
  w.cycle_period = 400 * kMs;
  w.phase = 300 * kMs + w.cycle_period;
  w.stratum = stratum;
  w.strata = kProbeRuns;
  switch (role) {
    case Role::kLarge:
      w.name = "probe-large";
      w.groups = {{Role::kLarge, ReplicationStyle::kActive, 1u << 20}};
      break;
    case Role::kSmall:
      w.name = "probe-small";
      w.groups = {{Role::kSmall, ReplicationStyle::kActive, 1024}};
      break;
    default:
      w.name = "probe-passive";
      w.groups = {{Role::kPassive, ReplicationStyle::kWarmPassive, 4096}};
      break;
  }
  return w;
}

// -------------------------------------------------------------------- rig

enum class Tracing { kOff, kTrace, kTraceAndSpans };

struct Invocation {
  std::uint32_t group = 0;
  std::uint32_t seq = 0;  ///< 1-based issue index within the group
  TimePoint due{};
  TimePoint done{-1};
  std::int32_t value = 0;
  std::uint32_t replies = 0;
  bool exception = false;
  bool malformed = false;
  bool measured = false;  ///< Poisson arrival inside the fixed-rate phase
};

/// The fault cycles of one phase. Waits inside a cycle are bounded; a
/// recovery or failover that misses its bound is hung (a liveness failure)
/// and, like an unanswered invocation, counts with its wait up to the end
/// of the drain unless it completes before then.
struct FaultLog {
  struct Recovery {
    Role role;
    NodeId node;
    ReplicaId replica;
    TimePoint launched;
  };
  struct Failover {
    std::size_t probe;  ///< invocation issued at the kill instant
    TimePoint killed;
  };
  std::vector<Recovery> recoveries;
  std::vector<Failover> failovers;
  std::uint64_t hung = 0;

  // Settled after the drain (virtual milliseconds).
  std::vector<double> large_ms, small_ms, failover_ms;
  std::vector<core::RecoveryRecord> large_records, small_records;

  std::uint64_t attempts() const { return recoveries.size() + failovers.size(); }
};

/// Layer counters summed over all nodes; differences of two snapshots give
/// the work a phase did.
struct LayerSnapshot {
  std::uint64_t events = 0;
  std::uint64_t frames = 0, bytes = 0;
  std::uint64_t tokens = 0, totem_multicasts = 0, totem_fragments = 0;
  std::uint64_t dup_replies = 0, checkpoints = 0, logged = 0;
  AppCounters app;
};

/// One System with the workload deployed, its arrival generator and the
/// client-visible record of every invocation.
class Rig {
 public:
  Rig(const Workload& w, std::uint64_t seed, Tracing tracing, bool time_upcalls)
      : w_(w), rng_(stream_seed(seed, 1)) {
    app_.timed = time_upcalls;
    SystemConfig cfg;
    cfg.nodes = 4;
    cfg.seed = seed;
    if (tracing != Tracing::kOff) cfg.trace_capacity = 1u << 22;
    if (tracing == Tracing::kTraceAndSpans) cfg.span_capacity = 1u << 20;
    sys_ = std::make_unique<System>(cfg);

    std::vector<GroupId> ids;
    for (std::size_t i = 0; i < w.groups.size(); ++i) {
      const GroupSpec& g = w.groups[i];
      FtProperties props;
      props.style = g.style;
      props.initial_replicas = kServerNodes;
      props.minimum_replicas = 1;  // the benchmark relaunches; the RM must not
      std::vector<NodeId> placement;  // rotate so passive primaries spread
      for (std::size_t k = 0; k < kServerNodes; ++k) {
        placement.push_back(NodeId{static_cast<std::uint32_t>(1 + (i + k) % kServerNodes)});
      }
      const std::size_t pad = g.pad;
      const GroupId id = sys_->deploy(
          "obj" + std::to_string(i), "IDL:Counter:1.0", props, placement,
          [this, i, pad](NodeId node) {
            auto servant = std::make_shared<AppServant>(sys_->sim(), pad, app_);
            servants_[{node.value, i}] = servant;
            return servant;
          },
          placement);
      ids.push_back(id);
    }
    sys_->deploy_client("client", kClientNode, ids);
    for (GroupId id : ids) {
      groups_.push_back({id, sys_->client(kClientNode, id)});
    }
    issued_.assign(groups_.size(), 0);
    double total = 0;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      total += 1.0 / std::sqrt(static_cast<double>(i + 1));  // Zipf 0.5
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  // Scheduled arrivals and reply handlers hold `this`.
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  System& sys() { return *sys_; }
  const Workload& workload() const { return w_; }
  const std::vector<Invocation>& invocations() const { return invs_; }
  std::size_t outstanding() const { return outstanding_; }
  double run_host_s() const { return run_host_s_; }
  std::uint32_t issued(std::size_t g) const { return issued_[g]; }
  std::size_t group_count() const { return groups_.size(); }
  GroupId group_id(std::size_t g) const { return groups_[g].id; }

  std::optional<std::size_t> group_of(Role role) const {
    for (std::size_t i = 0; i < w_.groups.size(); ++i) {
      if (w_.groups[i].role == role) return i;
    }
    return std::nullopt;
  }

  /// Opens the client's connection to every group with one `inc` each, in
  /// reverse deployment order (the passive group, when present, first), then
  /// starts open-loop Poisson arrivals at `rate` until virtual time `until`.
  /// Arrivals at or after `measured_from` enter the latency percentiles.
  /// The fixed opening order keeps connection set-up independent of the
  /// seed; NOTES.md explains why it starts with the passive group.
  void start_arrivals(double rate, TimePoint until, TimePoint measured_from) {
    for (std::size_t g = groups_.size(); g-- > 0;) issue(g, false);
    rate_ = rate;
    until_ = until;
    measured_from_ = measured_from;
    next_arrival_ = sys_->sim().now();
    schedule_next();
  }

  /// Issues one `inc` to group `g` now; returns the invocation index.
  std::size_t issue(std::size_t g, bool measured) {
    const std::size_t idx = invs_.size();
    Invocation inv;
    inv.group = static_cast<std::uint32_t>(g);
    inv.seq = ++issued_[g];
    inv.due = sys_->sim().now();
    inv.measured = measured;
    invs_.push_back(inv);
    ++outstanding_;
    groups_[g].ref.invoke("inc", test_support::CounterServant::encode_i32(1),
                          [this, idx](const orb::ReplyOutcome& out) { on_reply(idx, out); });
    return idx;
  }

  void run_for(Duration d) {
    const double t0 = cpu_now();
    sys_->run_for(d);
    run_host_s_ += cpu_since(t0);
  }

  bool run_until(const std::function<bool()>& pred, Duration bound) {
    const double t0 = cpu_now();
    const bool ok = sys_->run_until(pred, bound);
    run_host_s_ += cpu_since(t0);
    return ok;
  }

  void run_to(TimePoint t) {
    if (sys_->sim().now() < t) run_for(t - sys_->sim().now());
  }

  /// Executing replicas of group `g` now (all operational members for
  /// active, the primary for passive), by the client node's table.
  std::vector<NodeId> executors(std::size_t g) {
    const core::GroupEntry* e = sys_->mech(kClientNode).groups().find(groups_[g].id);
    return e == nullptr ? std::vector<NodeId>{} : e->executor_nodes();
  }

  std::optional<NodeId> primary(std::size_t g) {
    const core::GroupEntry* e = sys_->mech(kClientNode).groups().find(groups_[g].id);
    if (e == nullptr || e->primary() == nullptr) return std::nullopt;
    return e->primary()->node;
  }

  const AppServant* servant(NodeId node, std::size_t g) const {
    auto it = servants_.find({node.value, g});
    return it == servants_.end() ? nullptr : it->second.get();
  }

  LayerSnapshot snapshot() {
    LayerSnapshot s;
    s.events = sys_->sim().events_executed();
    s.frames = sys_->ethernet().stats().frames_sent;
    s.bytes = sys_->ethernet().stats().bytes_sent;
    for (NodeId n : sys_->all_nodes()) {
      const totem::TotemStats& t = sys_->totem(n).stats();
      s.tokens += t.tokens_handled;
      s.totem_multicasts += t.multicasts;
      s.totem_fragments += t.fragments_sent;
      const core::MechanismsStats& m = sys_->mech(n).stats();
      s.dup_replies += m.duplicate_replies_suppressed;
      s.checkpoints += m.checkpoints_taken;
      s.logged += m.messages_logged;
    }
    s.app = app_;
    return s;
  }

 private:
  void schedule_next() {
    const double u = rng_.unit();
    const double gap_ns = -std::log(1.0 - u) / rate_ * 1e9;
    next_arrival_ += Duration(static_cast<std::int64_t>(std::llround(gap_ns)));
    if (next_arrival_ >= until_) return;
    sys_->sim().schedule_at(next_arrival_, [this] {
      const double u = rng_.unit();
      const std::size_t g = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
      issue(std::min(g, groups_.size() - 1), sys_->sim().now() >= measured_from_);
      schedule_next();
    });
  }

  void on_reply(std::size_t idx, const orb::ReplyOutcome& out) {
    Invocation& inv = invs_[idx];
    if (++inv.replies > 1) return;  // a second reply is a safety violation
    --outstanding_;
    inv.done = sys_->sim().now();
    if (out.status != giop::ReplyStatus::kNoException) {
      inv.exception = true;
    } else if (out.body.empty()) {
      inv.malformed = true;
    } else {
      try {
        inv.value = test_support::CounterServant::decode_i32(out.body);
      } catch (const util::CdrError&) {
        inv.malformed = true;
      }
    }
  }

  struct GroupRef {
    GroupId id;
    orb::ObjectRef ref;
  };

  Workload w_;
  util::Rng rng_;
  AppCounters app_;
  std::unique_ptr<System> sys_;
  std::vector<GroupRef> groups_;
  std::map<std::pair<std::uint32_t, std::size_t>, std::shared_ptr<AppServant>> servants_;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint32_t> issued_;
  std::vector<Invocation> invs_;
  std::size_t outstanding_ = 0;
  double rate_ = 0;
  TimePoint until_{};
  TimePoint measured_from_{};
  TimePoint next_arrival_{};
  double run_host_s_ = 0;
};

// ------------------------------------------------------------------ oracle

struct Verdict {
  std::vector<std::string> safety;  ///< any entry: the run is not correct
  std::vector<std::string> wrong_examples;  ///< first few wrong replies, for the dump
  std::uint64_t attempted = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t wrong = 0;    ///< replies that break the 1..n sequence of their group
  std::uint64_t diverged = 0;  ///< executing replicas whose counter != issued
  std::uint64_t hung = 0;      ///< recoveries and failovers that missed their bound
  std::uint64_t failed() const { return unanswered + exceptions + wrong + diverged + hung; }
};

/// Client-visible oracle after the drain. Per group, the `inc` replies in
/// issue order must be strictly increasing and at most the number issued
/// (all answered => exactly 1..n), and every executing replica's counter
/// must equal n. Each unanswered, exception or wrong reply, each diverged
/// replica and each hung recovery is a failed attempt. A reply delivered
/// twice to one invocation breaks exactly-once at the client and makes the
/// run incorrect; so do trace-invariant violations (run_pass).
Verdict judge(Rig& rig, const FaultLog& faults) {
  Verdict v;
  std::vector<std::int32_t> last(rig.group_count(), 0);
  for (const Invocation& inv : rig.invocations()) {
    ++v.attempted;
    const std::string where =
        "group " + std::to_string(inv.group) + " seq " + std::to_string(inv.seq);
    if (inv.replies > 1) {
      v.safety.push_back(where + ": answered " + std::to_string(inv.replies) + " times");
    }
    if (inv.done.count() < 0) {
      ++v.unanswered;
    } else if (inv.exception) {
      ++v.exceptions;
    } else if (inv.malformed || inv.value <= last[inv.group] ||
               static_cast<std::uint32_t>(inv.value) > rig.issued(inv.group)) {
      if (++v.wrong <= 16) {
        v.wrong_examples.push_back(where + ": reply " + std::to_string(inv.value) +
                                   " after " + std::to_string(last[inv.group]) + " (issued " +
                                   std::to_string(rig.issued(inv.group)) + ")");
      }
    } else {
      last[inv.group] = inv.value;
    }
  }
  for (std::size_t g = 0; g < rig.group_count(); ++g) {
    for (NodeId n : rig.executors(g)) {
      ++v.attempted;
      const AppServant* s = rig.servant(n, g);
      if (s == nullptr || s->value() != static_cast<std::int32_t>(rig.issued(g))) ++v.diverged;
    }
  }
  v.attempted += faults.attempts();
  v.hung = faults.hung;
  return v;
}

// ------------------------------------------------------------------ phases

/// Schedules the kill of the replica of group `g` on `node` at `at` and
/// its relaunch once the fault has been detected.
void schedule_kill_relaunch(Rig& rig, std::size_t g, NodeId node, TimePoint at,
                            FaultLog& log) {
  sim::Simulator& sim = rig.sys().sim();
  sim.schedule_at(at, [&rig, g, node] { rig.sys().kill_replica(node, rig.group_id(g)); });
  sim.schedule_at(at + kDetectWait, [&rig, &log, g, node] {
    const ReplicaId rid = rig.sys().relaunch_replica(node, rig.group_id(g));
    log.recoveries.push_back(
        {rig.workload().groups[g].role, node, rid, rig.sys().sim().now()});
  });
}

/// Schedules one fault cycle at fixed shares of the cycle period `p` from
/// `t0`: a replica of the large group (at 0), then one of the small group
/// (at 5/8 p, after the large transfer), is killed and relaunched on `node`;
/// then (at 4/5 p) the passive primary is killed, an `inc` issued at the
/// kill instant times the failover, and the primary's node relaunches its
/// replica. Each step's wait is bounded by the next step.
void schedule_cycle(Rig& rig, TimePoint t0, Duration p, NodeId node, FaultLog& log) {
  if (auto g = rig.group_of(Role::kLarge)) schedule_kill_relaunch(rig, *g, node, t0, log);
  if (auto g = rig.group_of(Role::kSmall)) {
    schedule_kill_relaunch(rig, *g, node, t0 + p * 5 / 8, log);
  }
  if (auto g = rig.group_of(Role::kPassive)) {
    const std::size_t pg = *g;
    rig.sys().sim().schedule_at(t0 + p * 4 / 5, [&rig, &log, pg] {
      const std::optional<NodeId> primary = rig.primary(pg);
      if (primary) {
        schedule_kill_relaunch(rig, pg, *primary, rig.sys().sim().now(), log);
      }
      log.failovers.push_back({rig.issue(pg, false), rig.sys().sim().now()});
    });
  }
}

/// Turns the fault log into times once the drain ended at `end`. A
/// recovery or failover slower than its bound is hung.
void settle(Rig& rig, FaultLog& log, TimePoint end) {
  for (const FaultLog::Recovery& r : log.recoveries) {
    std::optional<core::RecoveryRecord> rec;
    for (const core::RecoveryRecord& x : rig.sys().mech(r.node).recoveries()) {
      if (x.replica == r.replica) rec = x;
    }
    const Duration took = rec ? rec->recovery_time() : end - r.launched;
    if (!rec || took > kRecoveryBound) ++log.hung;
    if (r.role == Role::kLarge) {
      log.large_ms.push_back(to_ms(took));
      if (rec) log.large_records.push_back(*rec);
    } else if (r.role == Role::kSmall) {
      log.small_ms.push_back(to_ms(took));
      if (rec) log.small_records.push_back(*rec);
    }
  }
  for (const FaultLog::Failover& f : log.failovers) {
    const TimePoint done = rig.invocations()[f.probe].done;
    const Duration took = (done.count() >= 0 ? done : end) - f.killed;
    if (done.count() < 0 || took > kFailoverBound) ++log.hung;
    log.failover_ms.push_back(to_ms(took));
  }
}

// Host speed. A shared host runs the same code 10-40 % faster or slower,
// from second to second and over minutes: other tenants share the cores
// and caches, and the guest sees the slowdown as CPU time, not as waiting.
// So each pass is timed in short pieces, each followed by a short fixed
// probe that uses nothing from src/, and every piece is scaled to the speed
// at which the probe takes kProbeNominalS. A change to the system cannot
// move the probe, so it moves the scaled times as it moves the raw ones.

/// The probe's host time on a 4-vCPU, 2.0 GHz virtual machine when no
/// other tenant slows it (its floor there; busy periods read 250-380 us).
constexpr double kProbeNominalS = 200e-6;

/// Fixed work of about 0.2 ms in the shape of the simulator's own: integer
/// hashing, heap allocation of mixed sizes and node-based map churn, on a
/// working set of a few tens of kB. Returns its CPU time in seconds.
double probe() {
  static std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  static std::vector<std::vector<std::uint8_t>> live(16);
  static std::map<std::uint64_t, std::uint64_t> m;
  static volatile std::uint64_t sink = 0;
  const auto draw = [] {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  const double t0 = cpu_now();
  std::uint64_t acc = 0;
  for (int i = 0; i < 50000; ++i) acc += draw() >> 60;
  for (int i = 0; i < 1500; ++i) {
    auto& slot = live[draw() % live.size()];
    slot.assign(64 + draw() % 2048, static_cast<std::uint8_t>(i));
    acc += slot[slot.size() / 2];
  }
  for (int i = 0; i < 500; ++i) {
    m[draw() % 256] += static_cast<std::uint64_t>(i);
    auto it = m.lower_bound(draw() % 256);
    if (it != m.end()) m.erase(it);
  }
  sink = sink + acc;
  return cpu_since(t0);
}

/// Host CPU time of consecutive pieces of one pass, in order, each with the
/// time of the probe that ran right after it (not part of any piece).
struct Laps {
  std::vector<double> pieces;
  std::vector<double> probes;
  double last = cpu_now();

  void lap() {
    pieces.push_back(cpu_now() - last);
    probes.push_back(probe());
    last = cpu_now();
  }
  double total() const { return std::accumulate(pieces.begin(), pieces.end(), 0.0); }
  /// Pieces scaled to the nominal probe speed: piece k by the median probe
  /// of pieces k-2..k+2, so one probe an interrupt slowed does not count.
  double scaled() const {
    double sum = 0;
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      const std::size_t lo = k < 2 ? 0 : k - 2;
      const std::size_t hi = std::min(probes.size(), k + 3);
      sum += pieces[k] * kProbeNominalS /
             median(std::vector<double>(probes.begin() + static_cast<std::ptrdiff_t>(lo),
                                        probes.begin() + static_cast<std::ptrdiff_t>(hi)));
    }
    return sum;
  }
};

/// Virtual length of one timed piece of the warm-up and the phase.
constexpr Duration kLap = 20 * kMs;

/// Everything one measured pass of a workload yields.
struct PhaseResult {
  Laps setup_laps;          ///< host: construction + deploy + warm-up
  Laps phase_laps;          ///< host: fixed-rate phase incl. drain and checks
  double setup_s = 0;       ///< setup_laps.total()
  double phase_host_s = 0;  ///< phase_laps.total()
  double phase_run_host_s = 0;  ///< host: the phase's run_for/run_until calls
  double check_s = 0;       ///< host: InvariantChecker::check
  double virtual_s = 0;     ///< virtual length of the phase (to the drain end)
  std::uint64_t answered = 0;  ///< answered measured invocations
  std::uint64_t measured = 0;
  Duration p50{}, p999{};
  FaultLog faults;
  Verdict verdict;
  LayerSnapshot before, after;
  std::uint64_t trace_events = 0;
  std::uint64_t violations = 0;
  std::uint64_t fingerprint = 0;
  std::string per_group;  ///< "unanswered/issued" per group, human-readable
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Virtual-behaviour fingerprint: every invocation's timing and value plus
/// every fault-cycle time. Same seed => same fingerprint, or the model is
/// not deterministic.
std::uint64_t fingerprint(const Rig& rig, const FaultLog& faults) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Invocation& inv : rig.invocations()) {
    h = fnv(h, inv.group);
    h = fnv(h, static_cast<std::uint64_t>(inv.due.count()));
    h = fnv(h, static_cast<std::uint64_t>(inv.done.count()));
    h = fnv(h, static_cast<std::uint64_t>(inv.value));
  }
  for (const auto* v : {&faults.large_ms, &faults.small_ms, &faults.failover_ms}) {
    for (double x : *v) h = fnv(h, static_cast<std::uint64_t>(std::llround(x * 1e6)));
  }
  return h;
}

/// Writes one flight dump per tag and process: same-seed repetitions fail
/// identically, so later ones add nothing.
void dump_flight(Rig& rig, const std::string& tag, const std::vector<std::string>& why) {
  static std::set<std::string> dumped;
  if (!dumped.insert(tag).second) return;
  obs::JsonWriter w;
  w.begin_object();
  w.field("workload", std::string_view(tag));
  w.key("failures");
  w.begin_array();
  for (const std::string& line : why) w.value(std::string_view(line));
  w.end_array();
  // The last invocations as [group, seq, due_ns, done_ns, value, replies].
  w.key("invocations");
  w.begin_array();
  const auto& invs = rig.invocations();
  for (std::size_t i = invs.size() > 2048 ? invs.size() - 2048 : 0; i < invs.size(); ++i) {
    const Invocation& inv = invs[i];
    w.begin_array();
    w.value(std::uint64_t{inv.group});
    w.value(std::uint64_t{inv.seq});
    w.value(std::int64_t{inv.due.count()});
    w.value(std::int64_t{inv.done.count()});
    w.value(std::int64_t{inv.value});
    w.value(std::uint64_t{inv.replies});
    w.end_array();
  }
  w.end_array();
  if (rig.sys().trace() != nullptr) {
    w.key("flight_recorder");
    w.raw(obs::FlightRecorder(rig.sys().trace(), rig.sys().spans()).to_json());
  }
  w.end_object();
  const std::string path = obs::FlightRecorder::unique_path("flight_e2e_" + tag + ".json");
  std::ofstream(path) << w.str() << "\n";
  std::fprintf(stderr, "e2e_bench: oracle failures in %s; flight dump -> %s\n", tag.c_str(),
               path.c_str());
  for (std::size_t i = 0; i < why.size() && i < 10; ++i) {
    std::fprintf(stderr, "  %s\n", why[i].c_str());
  }
}

/// Builds the system, warms it up, runs the fixed-rate phase (with the
/// workload's fault cycles), drains and judges it. `inspect` runs on the
/// finished rig before it is torn down.
PhaseResult run_pass(const Workload& w, std::uint64_t seed, Tracing tracing, bool time_upcalls,
                     const std::function<void(Rig&, PhaseResult&)>& inspect = {}) {
  PhaseResult r;
  // Runs to `end` in kLap pieces, timing each.
  const auto run_laps = [](Rig& rig, TimePoint end, Laps& laps) {
    while (rig.sys().sim().now() < end) {
      rig.run_to(std::min(end, rig.sys().sim().now() + kLap));
      laps.lap();
    }
  };
  Rig rig(w, seed, tracing, time_upcalls);
  const TimePoint start = rig.sys().sim().now();
  const TimePoint phase_start = start + w.warmup;
  const TimePoint phase_end = phase_start + w.phase;
  rig.start_arrivals(w.rate, phase_end, phase_start);
  r.setup_laps.lap();
  run_laps(rig, phase_start, r.setup_laps);
  r.setup_s = r.setup_laps.total();

  r.phase_laps = Laps{};  // starts timing here
  const double run_host_before = rig.run_host_s();
  r.before = rig.snapshot();
  // Kill instants are stratified over one fault-monitoring period: cycle c
  // of stratum s is offset by (c * strata + s + u) / (cycles * strata) of
  // it, u drawn once from the seed, so the cycles sample the detection
  // delay evenly instead of by chance.
  const double u = util::Rng(stream_seed(seed, 2)).unit();
  const double monitor_ns = static_cast<double>(FtProperties{}.fault_monitoring_interval.count());
  const double slots = static_cast<double>(w.cycles * w.strata);
  for (std::size_t c = 0; c < w.cycles; ++c) {
    const double offset = (static_cast<double>(c * w.strata + w.stratum) + u) / slots;
    const TimePoint t0 = phase_start + 300 * kMs +
                         static_cast<std::int64_t>(c) * w.cycle_period +
                         Duration(static_cast<std::int64_t>(offset * monitor_ns));
    schedule_cycle(rig, t0, w.cycle_period,
                   NodeId{static_cast<std::uint32_t>(1 + c % kServerNodes)}, r.faults);
  }
  r.phase_laps.lap();
  run_laps(rig, phase_end, r.phase_laps);
  r.after = rig.snapshot();  // counters of the arrival window only
  // The drain, in kLap pieces: the same stopping instant as one
  // run_until(drained, drain) call, since kLap is a whole number of polls.
  const TimePoint drain_limit = phase_end + (w.cycles > 0 ? 3 * kSec : kSec);
  const auto drained = [&] { return rig.outstanding() == 0; };
  while (!drained() && rig.sys().sim().now() < drain_limit) {
    rig.run_until(drained, std::min(kLap, drain_limit - rig.sys().sim().now()));
    r.phase_laps.lap();
  }
  const TimePoint drain_end = rig.sys().sim().now();
  r.virtual_s = static_cast<double>((phase_end - phase_start).count()) / 1e9;
  settle(rig, r.faults, drain_end);

  workload::LatencyProfile lat;
  for (const Invocation& inv : rig.invocations()) {
    if (!inv.measured) continue;
    ++r.measured;
    if (inv.done.count() >= 0 && !inv.exception) ++r.answered;
    // An unanswered invocation waits until the end of the drain.
    lat.record((inv.done.count() >= 0 ? inv.done : drain_end) - inv.due);
  }
  std::vector<std::size_t> unanswered(rig.group_count(), 0);
  for (const Invocation& inv : rig.invocations()) {
    if (inv.done.count() < 0) ++unanswered[inv.group];
  }
  for (std::size_t g = 0; g < rig.group_count(); ++g) {
    r.per_group += (g ? " " : "") + std::to_string(unanswered[g]) + "/" +
                   std::to_string(rig.issued(g));
  }
  r.p50 = lat.percentile(50);
  r.p999 = lat.percentile(99.9);
  r.verdict = judge(rig, r.faults);
  r.phase_laps.lap();
  if (rig.sys().trace() != nullptr) {
    const std::vector<obs::Violation> violations = obs::InvariantChecker::check(*rig.sys().trace());
    r.phase_laps.lap();
    r.check_s = r.phase_laps.pieces.back();
    r.violations = violations.size();
    r.trace_events = rig.sys().trace()->total();
    if (!violations.empty()) {
      r.verdict.safety.push_back("invariants: " + obs::InvariantChecker::report(violations));
    }
  }
  r.phase_host_s = r.phase_laps.total();
  r.phase_run_host_s = rig.run_host_s() - run_host_before;
  r.fingerprint = fingerprint(rig, r.faults);
  if (!r.verdict.safety.empty() || r.verdict.wrong > 0) {
    std::vector<std::string> why = r.verdict.safety;
    why.insert(why.end(), r.verdict.wrong_examples.begin(), r.verdict.wrong_examples.end());
    dump_flight(rig, w.name, why);
  }
  if (inspect) inspect(rig, r);
  return r;
}

// --------------------------------------------------------------- capacity

/// Oracle failures the capacity steps saw (they are fault-free, so any is
/// a defect; reported, not part of the pass rule).
struct StepFailures {
  std::uint64_t wrong = 0, diverged = 0, unanswered = 0;
};

/// One fixed-length capacity step at `rate`: fault-free, untraced. Passes
/// when p99.9 (unanswered invocations counted up to the drain end) stays
/// within the limit and the backlog at the end of the arrivals is no more
/// than 10 ms of arrivals.
bool capacity_step(const Workload& base, std::uint64_t seed, double rate, bool& safe,
                   StepFailures& seen) {
  Workload w = base;
  w.rate = rate;
  w.cycles = 0;
  w.warmup = 200 * kMs;
  w.phase = kSec;
  Rig rig(w, seed, Tracing::kOff, false);
  const TimePoint phase_start = rig.sys().sim().now() + w.warmup;
  const TimePoint phase_end = phase_start + w.phase;
  rig.start_arrivals(rate, phase_end, phase_start);
  rig.run_to(phase_end);
  const std::size_t backlog = rig.outstanding();
  rig.run_until([&] { return rig.outstanding() == 0; }, kSec);
  const TimePoint drain_end = rig.sys().sim().now();
  workload::LatencyProfile lat;
  for (const Invocation& inv : rig.invocations()) {
    if (inv.measured) lat.record((inv.done.count() >= 0 ? inv.done : drain_end) - inv.due);
  }
  const Verdict v = judge(rig, FaultLog{});
  if (!v.safety.empty()) safe = false;
  seen.wrong += v.wrong;
  seen.diverged += v.diverged;
  seen.unanswered += v.unanswered;
  return lat.percentile(99.9) <= kCapacityP999Limit &&
         static_cast<double>(backlog) <= std::max(16.0, rate * 0.010);
}

/// Highest offered rate, to within 1 %, whose step passes: geometric growth
/// from the workload's rate to bracket the knee, then geometric bisection.
double capacity_search(const Workload& w, std::uint64_t seed, bool& safe, int& steps,
                       StepFailures& seen) {
  double lo = 0, hi = 0;
  double r = w.rate;
  if (capacity_step(w, seed, r, safe, seen)) {
    lo = r;
    while (hi == 0) {
      r *= 1.5;
      ++steps;
      (capacity_step(w, seed, r, safe, seen) ? lo : hi) = r;
    }
  } else {
    hi = r;
    while (lo == 0 && r > 50) {
      r /= 1.5;
      ++steps;
      (capacity_step(w, seed, r, safe, seen) ? lo : hi) = r;
    }
    if (lo == 0) return r;
  }
  while (hi / lo > 1.01) {
    const double mid = std::sqrt(lo * hi);
    ++steps;
    (capacity_step(w, seed, mid, safe, seen) ? lo : hi) = mid;
  }
  return lo;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

bool is_fleet(const Workload& w) { return w.cycles == 0; }

/// Fault-cycle numbers of a workload: its own phase for recovery-churn, the
/// three quiet probes for the fleets.
struct RecoveryNumbers {
  FaultLog log;
  Verdict verdict;
  bool safe = true;
};

RecoveryNumbers recovery_numbers(const Workload& w, const PhaseResult& own, std::uint64_t seed,
                                 Tracing tracing,
                                 const std::function<void(Rig&, PhaseResult&)>& inspect = {}) {
  RecoveryNumbers out;
  if (!is_fleet(w)) {
    out.log = own.faults;
    return out;
  }
  for (std::size_t k = 0; k < kProbeRuns * 3; ++k) {
    const Role role = std::array{Role::kLarge, Role::kSmall, Role::kPassive}[k % 3];
    const PhaseResult p = run_pass(make_probe(role, k / 3), seed, tracing, false, inspect);
    const FaultLog& f = p.faults;
    out.log.large_ms.insert(out.log.large_ms.end(), f.large_ms.begin(), f.large_ms.end());
    out.log.small_ms.insert(out.log.small_ms.end(), f.small_ms.begin(), f.small_ms.end());
    out.log.failover_ms.insert(out.log.failover_ms.end(), f.failover_ms.begin(),
                               f.failover_ms.end());
    out.log.large_records.insert(out.log.large_records.end(), f.large_records.begin(),
                                 f.large_records.end());
    out.log.small_records.insert(out.log.small_records.end(), f.small_records.begin(),
                                 f.small_records.end());
    out.verdict.attempted += p.verdict.attempted;
    out.verdict.unanswered += p.verdict.unanswered;
    out.verdict.exceptions += p.verdict.exceptions;
    out.verdict.wrong += p.verdict.wrong;
    out.verdict.diverged += p.verdict.diverged;
    out.verdict.hung += p.verdict.hung;
    if (!p.verdict.safety.empty()) out.safe = false;
  }
  return out;
}

// ------------------------------------------------------------ end to end

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  const Tracing tracing = w.trace ? Tracing::kTrace : Tracing::kOff;
  const auto t0 = Clock::now();
  // The first repetition warms the allocator and caches; it is not timed,
  // and peak RSS is read right after it. Then identical same-seed
  // repetitions: host metrics are medians over them of the probe-scaled
  // host time, and every repetition must reproduce the first one's virtual
  // behaviour.
  std::vector<PhaseResult> reps{run_pass(w, seed, tracing, false)};
  const double rss = peak_rss_mb();
  bool deterministic = true;
  while (reps.size() < 4 || (seconds_since(t0) < seconds && reps.size() < 200)) {
    reps.push_back(run_pass(w, seed, tracing, false));
    if (reps.back().fingerprint != reps.front().fingerprint) deterministic = false;
  }
  const PhaseResult& first = reps.front();
  std::vector<double> setup, per_op, raw_setup, raw_per_op, probes;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const PhaseResult& r = reps[i];
    const double answered = static_cast<double>(std::max<std::uint64_t>(1, r.answered));
    setup.push_back(r.setup_laps.scaled());
    per_op.push_back(r.phase_laps.scaled() * 1e6 / answered);
    raw_setup.push_back(r.setup_s);
    raw_per_op.push_back(r.phase_host_s * 1e6 / answered);
    probes.insert(probes.end(), r.phase_laps.probes.begin(), r.phase_laps.probes.end());
  }
  std::printf("host time unscaled: setup %.4f s, %.2f us/op; probe %.1f us "
              "(medians over %zu timed repetitions)\n",
              median(raw_setup), median(raw_per_op), median(probes) * 1e6, reps.size() - 1);

  bool safe = first.verdict.safety.empty();
  int steps = 0;
  StepFailures step_failures;
  const double capacity = capacity_search(w, seed, safe, steps, step_failures);
  const RecoveryNumbers rec = recovery_numbers(w, first, seed, Tracing::kOff);
  safe = safe && rec.safe;

  const std::uint64_t attempted = first.verdict.attempted + rec.verdict.attempted;
  const std::uint64_t failed = first.verdict.failed() + rec.verdict.failed();
  std::fprintf(stderr,
               "e2e_bench: %s seed %llu: %zu reps, %llu measured invocations, "
               "capacity %d steps, %.1f s host\n",
               w.name.c_str(), static_cast<unsigned long long>(seed), reps.size(),
               static_cast<unsigned long long>(first.measured), steps, seconds_since(t0));
  if (!deterministic) std::fprintf(stderr, "e2e_bench: same-seed repetitions diverged\n");
  std::printf("unanswered/issued per group: %s\n", first.per_group.c_str());
  std::printf("wrong replies %llu, diverged replicas %llu, hung recoveries %llu\n",
              static_cast<unsigned long long>(first.verdict.wrong + rec.verdict.wrong),
              static_cast<unsigned long long>(first.verdict.diverged + rec.verdict.diverged),
              static_cast<unsigned long long>(first.verdict.hung + rec.verdict.hung));
  std::printf("capacity steps (fault-free): %llu wrong replies, %llu diverged replicas, "
              "%llu unanswered\n",
              static_cast<unsigned long long>(step_failures.wrong),
              static_cast<unsigned long long>(step_failures.diverged),
              static_cast<unsigned long long>(step_failures.unanswered));
  std::printf("failed_ratio %.6f (%llu of %llu attempts)\n",
              static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  const bool correct = safe && deterministic;
  print_result(correct, attempted, failed,
               {{"setup_s", median(setup), "s"},
                {"host_us_per_op", median(per_op), "us"},
                {"peak_rss_mb", rss, "MB"},
                {"invoke_p50_ms", to_ms(first.p50), "ms"},
                {"invoke_p999_ms", to_ms(first.p999), "ms"},
                {"capacity_per_s", capacity, "ops/s"},
                {"recovery_large_ms", median(rec.log.large_ms), "ms"},
                {"recovery_small_ms", median(rec.log.small_ms), "ms"},
                {"failover_ms", median(rec.log.failover_ms), "ms"}});
  return correct ? 0 : 1;
}

// -------------------------------------------------------------- per layer

/// Whole-pass counters of the measured run, summed over nodes.
struct PassCounters {
  std::string dispatched;           ///< requests_dispatched per server node
  double dispatched_share_min = 0;  ///< lowest node share of requests_dispatched
  std::uint64_t unknown_key = 0, rid_discards = 0;
  std::uint64_t promotions = 0, log_replayed = 0, enqueued = 0, transfer_failures = 0;
  std::uint64_t retransmissions = 0, view_changes = 0;
};

int run_per_layer(const Workload& w, std::uint64_t seed) {
  const Tracing own = w.trace ? Tracing::kTrace : Tracing::kOff;
  const Tracing flipped = w.trace ? Tracing::kOff : Tracing::kTrace;

  PassCounters pc;
  const auto read_counters = [&](Rig& rig, PhaseResult&) {
    System& sys = rig.sys();
    std::uint64_t total = 0, least = UINT64_MAX;
    for (std::uint32_t n = 1; n <= kServerNodes; ++n) {
      const std::uint64_t d = sys.orb(NodeId{n}).stats().requests_dispatched;
      total += d;
      least = std::min(least, d);
      pc.dispatched += " node" + std::to_string(n) + "=" + std::to_string(d);
    }
    pc.dispatched_share_min =
        total == 0 ? 0 : static_cast<double>(least) / static_cast<double>(total);
    for (NodeId n : sys.all_nodes()) {
      pc.unknown_key += sys.orb(n).stats().requests_discarded_unknown_key;
      pc.rid_discards += sys.orb(n).stats().replies_discarded_request_id;
      const core::MechanismsStats& m = sys.mech(n).stats();
      pc.promotions += m.promotions;
      pc.log_replayed += m.log_replayed_messages;
      pc.enqueued += m.enqueued_during_recovery;
      pc.transfer_failures += m.state_transfer_failures;
      pc.retransmissions += sys.totem(n).stats().retransmissions;
      pc.view_changes += sys.totem(n).stats().view_changes;
    }
  };
  const PhaseResult plain = run_pass(w, seed, own, true, read_counters);
  const PhaseResult other = run_pass(w, seed, flipped, false);
  const PhaseResult& traced_only = w.trace ? plain : other;

  workload::LatencyProfile order_wait, reply_wire, delivery, residual;
  std::map<std::string, std::vector<double>> phases;
  double critpath_s = 0;
  const auto read_phases = [&](Rig& rig, PhaseResult&) {
    for (const auto& p : rig.sys().spans()->recovery().completed()) {
      phases["fault_detection"].push_back(to_ms(p.fault_detection));
      phases["quiesce"].push_back(to_ms(p.quiesce));
      phases["get_state"].push_back(to_ms(p.get_state));
      phases["transfer"].push_back(to_ms(p.state_transfer));
      phases["set_state"].push_back(to_ms(p.set_state));
      phases["replay"].push_back(to_ms(p.replay));
    }
  };
  const auto read_spans = [&](Rig& rig, PhaseResult& r) {
    const double t0 = cpu_now();
    const obs::critpath::Report report = obs::critpath::analyze(*rig.sys().spans());
    critpath_s += cpu_since(t0);
    using obs::critpath::Segment;
    for (const obs::critpath::Breakdown& b : report.invocations) {
      order_wait.record(b[Segment::kOrderWait]);
      reply_wire.record(b[Segment::kReplyWire]);
      delivery.record(b[Segment::kDelivery]);
      residual.record(b[Segment::kResidual]);
    }
    read_phases(rig, r);
  };
  const PhaseResult traced = run_pass(w, seed, Tracing::kTraceAndSpans, false, read_spans);
  const RecoveryNumbers rec = recovery_numbers(w, plain, seed, Tracing::kOff);
  // The fleets' Figure-5 phases come from traced runs of their probes.
  if (is_fleet(w)) recovery_numbers(w, plain, seed, Tracing::kTraceAndSpans, read_phases);

  const bool same_virtual = plain.fingerprint == other.fingerprint;
  if (!same_virtual) {
    std::fprintf(stderr, "e2e_bench: trace stream changed the virtual behaviour\n");
  }
  const bool correct = plain.verdict.safety.empty() && other.verdict.safety.empty() &&
                       traced.verdict.safety.empty() && rec.safe && same_virtual;

  const double ops = static_cast<double>(std::max<std::uint64_t>(1, plain.answered));
  const LayerSnapshot& a = plain.before;
  const LayerSnapshot& b = plain.after;
  const auto per_op = [&](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before) / ops;
  };
  const auto q = [](const workload::LatencyProfile& v, double pct) {
    return to_ms(v.percentile(pct));
  };
  const auto rec_split = [](const std::vector<core::RecoveryRecord>& recs, int which) {
    std::vector<double> v;
    for (const core::RecoveryRecord& r : recs) {
      v.push_back(to_ms(which == 0 ? r.coordination_time()
                                   : which == 1 ? r.transfer_time() : r.apply_time()));
    }
    return median(v);
  };

  const std::uint64_t attempted = plain.verdict.attempted + rec.verdict.attempted;
  const std::uint64_t failed = plain.verdict.failed() + rec.verdict.failed();
  const double events = static_cast<double>(b.events - a.events);
  std::vector<Metric> m = {
      {"sim.events_per_op", per_op(b.events, a.events), "count"},
      {"sim.host_ns_per_event", plain.phase_run_host_s * 1e9 / std::max(1.0, events), "ns"},
      {"sim.run_host_s", plain.phase_run_host_s, "s"},
      {"sim.eth.frames_per_op", per_op(b.frames, a.frames), "count"},
      {"sim.eth.bytes_per_op", per_op(b.bytes, a.bytes), "B"},
      {"sim.eth.busy_share",
       static_cast<double>(b.bytes - a.bytes) * 8.0 / 100e6 / plain.virtual_s, "share"},
      {"totem.tokens_per_op", per_op(b.tokens, a.tokens), "count"},
      {"totem.msgs_per_frame",
       static_cast<double>(b.totem_multicasts - a.totem_multicasts) /
           std::max(1.0, static_cast<double>(b.totem_fragments - a.totem_fragments)),
       "count"},
      {"totem.retransmissions", static_cast<double>(pc.retransmissions), "count"},
      {"totem.view_changes", static_cast<double>(pc.view_changes), "count"},
      {"totem.order_wait_p50_ms", q(order_wait, 50), "ms"},
      {"totem.order_wait_p999_ms", q(order_wait, 99.9), "ms"},
      {"totem.reply_wire_p50_ms", q(reply_wire, 50), "ms"},
      {"core.dup_replies_per_op", per_op(b.dup_replies, a.dup_replies), "count"},
      {"core.checkpoints_per_s", static_cast<double>(b.checkpoints - a.checkpoints) / plain.virtual_s,
       "1/s"},
      {"core.checkpoint_bytes_per_s",
       static_cast<double>(b.app.state_bytes_out - a.app.state_bytes_out) / plain.virtual_s, "B/s"},
      {"core.logged_per_op", per_op(b.logged, a.logged), "count"},
      {"core.recovery.large.coordination_ms", rec_split(rec.log.large_records, 0), "ms"},
      {"core.recovery.large.transfer_ms", rec_split(rec.log.large_records, 1), "ms"},
      {"core.recovery.large.apply_ms", rec_split(rec.log.large_records, 2), "ms"},
      {"core.recovery.small.coordination_ms", rec_split(rec.log.small_records, 0), "ms"},
      {"core.recovery.small.transfer_ms", rec_split(rec.log.small_records, 1), "ms"},
      {"core.recovery.small.apply_ms", rec_split(rec.log.small_records, 2), "ms"},
      {"core.promotions", static_cast<double>(pc.promotions), "count"},
      {"core.log_replayed", static_cast<double>(pc.log_replayed), "count"},
      {"core.enqueued_during_recovery", static_cast<double>(pc.enqueued), "count"},
      {"core.state_transfer_failures", static_cast<double>(pc.transfer_failures), "count"},
      {"core.delivery_p50_ms", q(delivery, 50), "ms"},
      {"core.residual_p50_ms", q(residual, 50), "ms"},
  };
  for (const char* phase :
       {"fault_detection", "quiesce", "get_state", "transfer", "set_state", "replay"}) {
    m.push_back({std::string("core.phase.") + phase + "_ms", median(phases[phase]), "ms"});
  }
  const std::vector<Metric> rest = {
      {"orb.dispatched_share_min", pc.dispatched_share_min, "share"},
      {"orb.unknown_key_discards", static_cast<double>(pc.unknown_key), "count"},
      {"orb.rid_discards", static_cast<double>(pc.rid_discards), "count"},
      {"obs.check_s", traced_only.check_s, "s"},
      {"obs.trace_events_per_op",
       static_cast<double>(traced_only.trace_events) /
           static_cast<double>(std::max<std::uint64_t>(1, traced_only.answered)),
       "count"},
      {"obs.violations", static_cast<double>(traced_only.violations + traced.violations), "count"},
      {"obs.critpath_s", critpath_s, "s"},
      {"obs.trace_host_ratio", traced.phase_laps.scaled() / std::max(1e-9, plain.phase_laps.scaled()), "ratio"},
      {"obs.span_p50_shift", to_ms(traced.p50) / std::max(1e-9, to_ms(plain.p50)), "ratio"},
      {"app.executions_per_op", per_op(b.app.executions, a.app.executions), "count"},
      {"app.get_state_calls", static_cast<double>(plain.after.app.get_state_calls), "count"},
      {"app.set_state_calls", static_cast<double>(plain.after.app.set_state_calls), "count"},
      {"app.upcall_host_ms", static_cast<double>(plain.after.app.upcall_ns) / 1e6, "ms"},
      {"failed_ratio",
       static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)),
       "share"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  std::printf("requests dispatched:%s\n", pc.dispatched.c_str());
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "e2e_bench: arguments come in --key value pairs\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val.c_str());
    } else {
      std::fprintf(stderr, "e2e_bench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  try {
    const Workload w = make_workload(workload);
    return trace != 0 ? run_per_layer(w, seed) : run_end_to_end(w, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
