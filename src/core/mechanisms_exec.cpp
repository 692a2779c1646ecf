// FOM execution engine integration: the one path by which a request
// reaches a servant.
//
// Agreed delivery only enqueues (mechanisms_delivery.cpp). engine_pump()
// pops the run queue strictly in total order; each request becomes a FOM
// with its own admission slot, so with exec_concurrency > 1 a stalled
// servant operation no longer blocks the items behind it. Promotion and
// cold-restart log replay (replay_next) admit their requests here under the
// same rule. Replies are sequenced by exec::ReplicaEngine so they are
// emitted in total-order position regardless of completion order.
//
// At exec_concurrency 1 the engine serializes execution exactly like the
// synchronous upcall path it replaced: every side effect happens at the
// same virtual instant, in the same order — tests/core/exec_conformance_test.cpp
// holds it to digests recorded from that path. State operations
// (get_state/set_state and restore-queue applies) are not FOMs: they are
// exclusive dispatches on LocalReplica::dispatch that start only when the
// engine is drained, because the published state piggybacks ORB/infra
// snapshots that are only consistent when no FOM is mid-execution (§5).
#include "core/checkpointable.hpp"
#include "core/mechanisms.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

namespace {
/// How long a oneway FOM holds its slot before it retires (quiescence bound).
constexpr util::Duration kOnewayGrace{200'000};
}  // namespace

const exec::ReplicaEngine* Mechanisms::engine_of(GroupId group) const {
  const LocalReplica* r = local_replica(group);
  return r == nullptr ? nullptr : &r->engine;
}

void Mechanisms::engine_pump(LocalReplica& r) {
  while (!r.dispatch.has_value() && !r.pending.empty() && r.phase == Phase::kOperational) {
    // State ops need the engine drained (exclusive barrier); everything else
    // needs a free admission slot.
    const bool admissible = r.pending.front().kind == QueueItem::Kind::kGetState
                                ? r.engine.idle()
                                : r.engine.can_admit();
    if (!admissible) {
      // The front item is next in total order but the engine has no free
      // slot (or a state op needs the engine drained). Swap its "deliver"
      // span for an "admit-wait" span so the critical-path breakdown
      // separates queue-behind wait from admission-slot wait; engine_admit
      // closes whichever span the item carries.
      QueueItem& front = r.pending.front();
      if (obs::SpanStore* spans = rec_.spans();
          spans != nullptr && !front.admit_blocked &&
          front.kind == QueueItem::Kind::kRequest && front.trace != 0) {
        front.admit_blocked = true;
        if (front.span != 0) spans->end(front.span, sim_.now());
        front.span = spans->begin(front.trace,
                                  spans->find_named(front.trace, "invocation"),
                                  node_, obs::Layer::kMech, "admit-wait", sim_.now());
      }
      return;
    }
    QueueItem item = std::move(r.pending.front());
    r.pending.pop_front();
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->recovery().replayed_one(r.group, r.id, sim_.now());
    }
    switch (item.kind) {
      case QueueItem::Kind::kRequest:
        engine_admit(r, item);
        break;
      case QueueItem::Kind::kGetState:
        // Exclusive dispatch: r.dispatch gates the queue until the
        // published state's reply lands at the recovery endpoint.
        inject_get_state(r, item.env);
        break;
      case QueueItem::Kind::kSetStateDiscard:
        stats_.set_state_discarded_at_existing += 1;
        break;
    }
  }
}

void Mechanisms::engine_admit(LocalReplica& r, const QueueItem& item) {
  const Envelope& e = item.env;

  // ---- decode: the agreed envelope becomes a GIOP request again.
  std::optional<giop::Inspection> info = giop::inspect(e.payload);
  if (!info) return;
  const orb::Endpoint from = orb::group_endpoint(e.client_group);

  obs::SpanStore* const spans = rec_.spans();
  if (spans != nullptr && item.span != 0) spans->end(item.span, sim_.now());

  if (info->has_context(giop::kVendorHandshakeContextId)) {
    // Client-server handshakes are served inside the ORB; they never
    // occupy a FOM slot.
    handshake_flights_[std::make_pair(from, info->request_id)].push_back(
        HandshakeFlight{r.group, /*replay=*/false});
    tap_.inject(from, e.payload);
    return;
  }

  stats_.requests_delivered += 1;
  ctr_requests_injected_.add();

  exec::Fom& fom = r.engine.admit(e.client_group, e.op_seq, from,
                                  info->response_expected, sim_.now());
  if (rec_.tracing()) {
    rec_.record(node_, obs::Layer::kMech, "request_inject", e.op_seq,
                "group=" + std::to_string(r.group.value) +
                    " replica=" + std::to_string(r.id.value) +
                    " client=" + std::to_string(e.client_group.value) +
                    " op_seq=" + std::to_string(e.op_seq));
  }
  if (spans != nullptr && item.trace != 0 && info->response_expected) {
    fom.trace = item.trace;
    const obs::SpanId parent = spans->find_named(item.trace, "invocation");
    // Zero-length decode marker plus the open execute span: the per-phase
    // breakdown the critical-path analysis attributes stall time with.
    const obs::SpanId decode =
        spans->begin(item.trace, parent, node_, obs::Layer::kMech, "fom-decode",
                     sim_.now(), "pos=" + std::to_string(fom.position));
    spans->end(decode, sim_.now());
    fom.exec_span = spans->begin(item.trace, parent, node_, obs::Layer::kOrb,
                                 "execute", sim_.now(),
                                 "replica=" + std::to_string(r.id.value));
  }
  fom.enter(exec::FomPhase::kExecute, sim_.now());
  tap_.inject(from, e.payload);
  if (info->response_expected) return;

  // Oneway: no reply will ever match this FOM. The slot is held for the
  // quiescence grace period (§5: oneways complicate quiescence), then the
  // FOM retires at its position so later replies are not stuck behind it.
  const GroupId group = r.group;
  const ReplicaId incarnation = r.id;
  const std::uint64_t position = fom.position;
  sim_.schedule(kOnewayGrace, [this, group, incarnation, position] {
    LocalReplica* replica = local_replica(group);
    if (replica == nullptr || replica->id != incarnation ||
        replica->phase == Phase::kDead) {
      return;
    }
    if (exec::Fom* f = replica->engine.find(position)) {
      f->enter(exec::FomPhase::kDone, sim_.now());
      replica->engine.retire_immediate(position, sim_.now());
      pump(*replica);
    }
  });
}

bool Mechanisms::engine_capture_reply(const orb::Endpoint& to, util::Bytes& iiop,
                                      const giop::Inspection& info) {
  for (auto& [gid, replica] : replicas_) {
    LocalReplica& r = *replica;
    if (r.phase == Phase::kDead) continue;
    exec::Fom* fom = r.engine.match(to, info.request_id);
    if (fom == nullptr) continue;

    Envelope e;
    e.kind = EnvelopeKind::kReply;
    e.client_group = fom->client_group;
    e.target_group = r.group;
    e.op_seq = fom->op_seq;
    e.payload = std::move(iiop);

    obs::SpanStore* const spans = rec_.spans();
    const std::uint64_t trace = fom->trace;
    const ReplicaId incarnation = r.id;
    // ---- log: the operation's effect is on record (under active
    // replication a zero-cost hop; passive logging happened at delivery).
    fom->enter(exec::FomPhase::kLog, sim_.now());
    obs::SpanId park_span = 0;
    if (spans != nullptr && trace != 0) {
      if (fom->exec_span != 0) spans->end(fom->exec_span, sim_.now());
      const obs::SpanId parent = spans->find_named(trace, "invocation");
      const obs::SpanId log_span =
          spans->begin(trace, parent, node_, obs::Layer::kMech, "fom-log",
                       sim_.now(), "pos=" + std::to_string(fom->position));
      spans->end(log_span, sim_.now());
      // The reply parks in the sequencer from here until every earlier
      // position has emitted; zero-length when it emits immediately.
      park_span = spans->begin(trace, parent, node_, obs::Layer::kMech,
                               "reply-park", sim_.now(),
                               "pos=" + std::to_string(fom->position));
      e.payload = giop::with_trace_context(e.payload, trace);
    }
    // ---- reply: built and handed to the sequencer; emitted now if this is
    // the lowest outstanding position, parked otherwise.
    fom->enter(exec::FomPhase::kReply, sim_.now());
    r.engine.finish(
        fom->position, sim_.now(),
        [this, envelope = std::move(e), trace, park_span, incarnation]() mutable {
          if (obs::SpanStore* s = rec_.spans(); s != nullptr && trace != 0) {
            if (park_span != 0) s->end(park_span, sim_.now());
            s->begin_named(trace, s->find_named(trace, "invocation"), node_,
                           obs::Layer::kTotem, "reply", sim_.now(),
                           "replica=" + std::to_string(incarnation.value));
          }
          multicast(envelope);
        });
    pump(r);
    return true;
  }
  return false;
}

}  // namespace eternal::core
