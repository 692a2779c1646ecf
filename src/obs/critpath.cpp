#include "obs/critpath.hpp"

#include <algorithm>

#include "util/percentile.hpp"

namespace eternal::obs::critpath {
namespace {

/// The winner-path pieces of one invocation tree, gathered in one pass.
struct Tree {
  const Span* root = nullptr;   // "invocation"
  const Span* order = nullptr;  // "order-wait"
  const Span* reply = nullptr;  // "reply" (its node identifies the winner)
  std::vector<const Span*> delivers, admits, decodes, executes, logs, parks;
};

/// Latest-starting closed span at `node` opening no later than `by`; the
/// redelivery-tolerant pick (a recovery replay can leave an older span of the
/// same name at the same node in the ring).
const Span* pick(const std::vector<const Span*>& candidates, util::NodeId node,
                 util::TimePoint by) {
  const Span* best = nullptr;
  for (const Span* s : candidates) {
    if (s->node.value != node.value || s->open || s->start > by) continue;
    if (best == nullptr || s->start > best->start) best = s;
  }
  return best;
}

util::Duration len(const Span* s) {
  return s == nullptr ? util::Duration::zero() : s->end - s->start;
}

}  // namespace

std::string_view to_string(Segment s) noexcept {
  switch (s) {
    case Segment::kClientCapture: return "client-capture";
    case Segment::kOrderWait: return "order-wait";
    case Segment::kDelivery: return "delivery";
    case Segment::kAdmission: return "admission";
    case Segment::kDecode: return "decode";
    case Segment::kExecute: return "execute";
    case Segment::kLog: return "log";
    case Segment::kReplyPark: return "reply-park";
    case Segment::kReplyWire: return "reply-wire";
    case Segment::kResidual: return "residual";
  }
  return "?";
}

util::Duration Breakdown::sum() const noexcept {
  util::Duration total{};
  for (util::Duration d : seg) total += d;
  return total;
}

Report analyze(const std::vector<Span>& spans, std::uint64_t dropped_spans) {
  Report rep;
  rep.dropped_spans = dropped_spans;

  std::map<TraceId, Tree> trees;
  for (const Span& s : spans) {
    if (s.trace == 0) continue;
    Tree& t = trees[s.trace];
    if (s.name == "invocation") t.root = &s;
    else if (s.name == "order-wait") t.order = &s;
    else if (s.name == "reply") t.reply = &s;
    else if (s.name == "deliver") t.delivers.push_back(&s);
    else if (s.name == "admit-wait") t.admits.push_back(&s);
    else if (s.name == "fom-decode") t.decodes.push_back(&s);
    else if (s.name == "execute") t.executes.push_back(&s);
    else if (s.name == "fom-log") t.logs.push_back(&s);
    else if (s.name == "reply-park") t.parks.push_back(&s);
  }

  for (const auto& [trace, t] : trees) {
    if (t.root == nullptr) continue;  // not an invocation tree
    if (t.root->open) {
      rep.inflight_traces += 1;
      continue;
    }
    // Mandatory pieces of a completed two-way invocation; a missing or
    // still-open one means eviction broke the tree (or the run tore down
    // mid-flight) — count it, skip it, never fold a partial sum into the
    // aggregates.
    if (t.order == nullptr || t.order->open || t.reply == nullptr || t.reply->open) {
      rep.partial_traces += 1;
      continue;
    }
    const util::NodeId winner = t.reply->node;
    const Span* execute = pick(t.executes, winner, t.reply->start);
    const Span* deliver =
        execute == nullptr ? nullptr : pick(t.delivers, winner, execute->start);
    if (execute == nullptr || deliver == nullptr) {
      rep.partial_traces += 1;
      continue;
    }
    const Span* admit = pick(t.admits, winner, execute->start);
    const Span* decode = pick(t.decodes, winner, execute->start);
    const Span* log = pick(t.logs, winner, t.reply->start);
    const Span* park = pick(t.parks, winner, t.reply->start);

    Breakdown b;
    b.trace = trace;
    b.winner = winner;
    b.start = t.root->start;
    b.end = t.root->end;
    const auto set = [&b](Segment s, util::Duration d) {
      b.seg[static_cast<std::size_t>(s)] = d;
    };
    set(Segment::kClientCapture, t.order->start - t.root->start);
    set(Segment::kOrderWait, len(t.order));
    set(Segment::kDelivery, len(deliver));
    set(Segment::kAdmission, len(admit));
    set(Segment::kDecode, len(decode));
    set(Segment::kExecute, len(execute));
    set(Segment::kLog, len(log));
    set(Segment::kReplyPark, len(park));
    set(Segment::kReplyWire, len(t.reply));
    set(Segment::kResidual, b.end_to_end() - b.sum());
    rep.invocations.push_back(b);
  }

  std::sort(rep.invocations.begin(), rep.invocations.end(),
            [](const Breakdown& a, const Breakdown& b) {
              if (a.end != b.end) return a.end < b.end;
              return a.trace < b.trace;
            });
  return rep;
}

Report analyze(const SpanStore& store) {
  return analyze(store.snapshot(), store.dropped());
}

SegStats aggregate(std::vector<util::Duration> samples) {
  SegStats out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  util::Duration total{};
  for (util::Duration d : samples) total += d;
  out.mean = util::Duration(total.count() / static_cast<std::int64_t>(samples.size()));
  out.p50 = util::nearest_rank(samples, 50.0);
  out.p95 = util::nearest_rank(samples, 95.0);
  out.p99 = util::nearest_rank(samples, 99.0);
  return out;
}

Windows::Windows(util::Duration width) : width_(width) {
  if (width_.count() <= 0) width_ = util::Duration(1);
}

void Windows::add(const Breakdown& b) {
  buckets_[static_cast<std::uint64_t>(b.end.count() / width_.count())].push_back(b);
}

std::vector<Windows::Window> Windows::stats() const {
  std::vector<Window> out;
  out.reserve(buckets_.size());
  for (const auto& [index, items] : buckets_) {
    Window w;
    w.index = index;
    w.start = util::TimePoint(static_cast<std::int64_t>(index) * width_.count());
    w.count = items.size();
    w.throughput_per_s = static_cast<double>(items.size()) /
                         (static_cast<double>(width_.count()) / 1e9);
    std::vector<util::Duration> samples;
    samples.reserve(items.size());
    for (const Breakdown& b : items) samples.push_back(b.end_to_end());
    w.end_to_end = aggregate(samples);
    for (Segment s : all_segments()) {
      samples.clear();
      for (const Breakdown& b : items) samples.push_back(b[s]);
      w.seg[static_cast<std::size_t>(s)] = aggregate(samples);
    }
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace eternal::obs::critpath
