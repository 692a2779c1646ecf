// Workload generators and latency statistics for experiments.
//
// Two drivers cover the evaluation's needs:
//   - ClosedLoopDriver: the paper's packet driver — a new invocation departs
//     the instant the previous reply lands (window 1..N);
//   - OpenLoopDriver: Poisson arrivals at a configured rate, independent of
//     completions — exposes saturation and queueing, which a closed loop
//     hides.
// Both collect a LatencyProfile (count, mean, percentiles).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "orb/orb.hpp"
#include "sim/simulator.hpp"
#include "util/percentile.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace eternal::workload {

/// Aggregated response-time statistics.
class LatencyProfile {
 public:
  void record(util::Duration sample) {
    samples_.push_back(sample);
    total_ += sample;
  }

  std::uint64_t count() const noexcept { return samples_.size(); }

  util::Duration mean() const {
    return samples_.empty()
               ? util::Duration::zero()
               : util::Duration(total_.count() / static_cast<std::int64_t>(samples_.size()));
  }

  /// Percentile in [0,100]; 50 = median.
  util::Duration percentile(double p) const {
    if (samples_.empty()) return util::Duration::zero();
    std::vector<util::Duration> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    return util::nearest_rank(sorted, p);
  }

  util::Duration max() const {
    if (samples_.empty()) return util::Duration::zero();
    return *std::max_element(samples_.begin(), samples_.end());
  }

  const std::vector<util::Duration>& samples() const noexcept { return samples_; }

 private:
  std::vector<util::Duration> samples_;
  util::Duration total_{};
};

/// Window-N closed loop: keeps exactly `window` invocations in flight.
class ClosedLoopDriver {
 public:
  ClosedLoopDriver(sim::Simulator& sim, orb::ObjectRef target, std::string operation,
                   util::Bytes args, std::size_t window = 1)
      : sim_(sim), target_(std::move(target)), operation_(std::move(operation)),
        args_(std::move(args)), window_(window) {}

  void start() {
    running_ = true;
    for (std::size_t i = 0; i < window_; ++i) fire();
  }
  void stop() { running_ = false; }

  const LatencyProfile& latency() const noexcept { return latency_; }
  std::uint64_t completed() const noexcept { return latency_.count(); }
  const std::vector<util::TimePoint>& arrivals() const noexcept { return arrivals_; }

  /// Longest reply-to-reply gap at or after `from`.
  util::Duration max_reply_gap(util::TimePoint from) const {
    util::Duration worst{};
    util::TimePoint prev = from;
    for (util::TimePoint t : arrivals_) {
      if (t < from) {
        prev = t;
        continue;
      }
      worst = std::max(worst, t - prev);
      prev = t;
    }
    return worst;
  }

 private:
  void fire() {
    if (!running_) return;
    const util::TimePoint sent = sim_.now();
    target_.invoke(operation_, args_, [this, sent](const orb::ReplyOutcome&) {
      latency_.record(sim_.now() - sent);
      arrivals_.push_back(sim_.now());
      fire();
    });
  }

  sim::Simulator& sim_;
  orb::ObjectRef target_;
  std::string operation_;
  util::Bytes args_;
  std::size_t window_;
  bool running_ = false;
  LatencyProfile latency_;
  std::vector<util::TimePoint> arrivals_;
};

/// Poisson open loop: invocations depart at exponential inter-arrival times
/// regardless of completions. Offered load beyond the service capacity
/// shows up as unbounded in-flight growth and latency blow-up.
class OpenLoopDriver {
 public:
  OpenLoopDriver(sim::Simulator& sim, orb::ObjectRef target, std::string operation,
                 util::Bytes args, double rate_per_second, std::uint64_t seed = 0x10AD)
      : sim_(sim), target_(std::move(target)), operation_(std::move(operation)),
        args_(std::move(args)), rate_(rate_per_second), rng_(seed) {}

  void start() {
    running_ = true;
    schedule_next();
  }
  void stop() { running_ = false; }

  const LatencyProfile& latency() const noexcept { return latency_; }
  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t completed() const noexcept { return latency_.count(); }
  std::uint64_t in_flight() const noexcept { return sent_ - completed(); }

 private:
  void schedule_next() {
    if (!running_) return;
    // Exponential inter-arrival: -ln(U)/rate.
    double u = rng_.unit();
    if (u <= 0.0) u = 1e-12;
    const double seconds = -std::log(u) / rate_;
    sim_.schedule(util::Duration(static_cast<std::int64_t>(seconds * 1e9)), [this] {
      if (!running_) return;
      ++sent_;
      const util::TimePoint at = sim_.now();
      target_.invoke(operation_, args_, [this, at](const orb::ReplyOutcome&) {
        latency_.record(sim_.now() - at);
      });
      schedule_next();
    });
  }

  sim::Simulator& sim_;
  orb::ObjectRef target_;
  std::string operation_;
  util::Bytes args_;
  double rate_;
  util::Rng rng_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  LatencyProfile latency_;
};

}  // namespace eternal::workload
