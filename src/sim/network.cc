#include "sim/network.h"

#include <algorithm>
#include <utility>

#include "sim/fault.h"

namespace leed::sim {

EndpointId Network::AddEndpoint(NicSpec spec) {
  endpoints_.push_back(Endpoint{spec, nullptr, 0, 0, {}});
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void Network::SetReceiver(EndpointId id, Receiver receiver) {
  endpoints_.at(id).receiver = std::move(receiver);
}

void Network::AttachMetrics(const obs::Scope& scope) {
  scope.ResetInstruments();
  metrics_.msgs_sent = scope.GetCounter("msgs_sent");
  metrics_.bytes_sent = scope.GetCounter("bytes_sent");
  metrics_.msgs_delivered = scope.GetCounter("msgs_delivered");
  metrics_.msgs_dropped = scope.GetCounter("msgs_dropped");
}

SimTime Network::IngressBacklog(EndpointId id) const {
  return std::max<SimTime>(0, endpoints_.at(id).ingress_free_at - sim_.Now());
}

Status Network::Send(EndpointId src, EndpointId dst, uint64_t wire_bytes,
                     std::any payload) {
  if (src >= endpoints_.size() || dst >= endpoints_.size()) {
    return Status::InvalidArgument("unknown endpoint");
  }
  const SimTime now = sim_.Now();

  SimTime extra_delay = 0;
  NetVerdict verdict = NetVerdict::kDeliver;
  if (faults_ != nullptr) {
    verdict = faults_->OnSend(src, dst, now, &extra_delay);
  }
  if (verdict == NetVerdict::kDropInjected ||
      verdict == NetVerdict::kDropPartition) {
    // The message left the sender (it counts as sent) but never transits
    // the fabric: no pipe occupancy at either NIC, no delivery event.
    Endpoint& s = endpoints_[src];
    s.stats.messages_sent++;
    s.stats.bytes_sent += wire_bytes;
    if (metrics_.msgs_sent) {
      metrics_.msgs_sent->Inc();
      metrics_.bytes_sent->Add(wire_bytes);
    }
    ++dropped_;
    if (metrics_.msgs_dropped) metrics_.msgs_dropped->Inc();
    trace_->Record(now, obs::TraceKind::kNetDrop, obs::TraceEvent::kNoNode,
                   src, dst,
                   verdict == NetVerdict::kDropInjected ? 1 : 2);
    return Status::Ok();
  }

  if (verdict == NetVerdict::kDuplicate) {
    // The fabric delivers the message twice: two full pipe transits, two
    // delivery events. Layers above must tolerate replays.
    DeliverOne(src, dst, wire_bytes, payload, now, extra_delay);
  }
  DeliverOne(src, dst, wire_bytes, std::move(payload), now, extra_delay);
  return Status::Ok();
}

void Network::DeliverOne(EndpointId src, EndpointId dst, uint64_t wire_bytes,
                         std::any payload, SimTime now, SimTime extra_delay) {
  Endpoint& s = endpoints_[src];
  Endpoint& d = endpoints_[dst];

  // Egress serialization at the sender NIC.
  SimTime tx_time = static_cast<SimTime>(
      static_cast<double>(wire_bytes) / s.spec.bandwidth_bpns);
  SimTime tx_start = std::max(now, s.egress_free_at);
  SimTime tx_end = tx_start + tx_time;
  s.egress_free_at = tx_end;

  // Propagation + stack cost: the slower of the two stacks dominates
  // (a Pi talking to a server pays the Pi's USB-ethernet overhead).
  SimTime base = std::max(s.spec.base_latency_ns, d.spec.base_latency_ns);

  // Ingress serialization at the receiver NIC (incast point).
  SimTime rx_time = static_cast<SimTime>(
      static_cast<double>(wire_bytes) / d.spec.bandwidth_bpns);
  SimTime rx_start = std::max(tx_end + base, d.ingress_free_at);
  SimTime rx_end = rx_start + rx_time;
  d.ingress_free_at = rx_end;

  // Injected delay is added after the pipes: the fabric held the message,
  // the NICs are not occupied for longer.
  SimTime deliver_at = rx_end + extra_delay;

  s.stats.messages_sent++;
  s.stats.bytes_sent += wire_bytes;
  if (metrics_.msgs_sent) {
    metrics_.msgs_sent->Inc();
    metrics_.bytes_sent->Add(wire_bytes);
  }

  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.wire_bytes = wire_bytes;
  msg.sent_at = now;
  msg.payload = std::move(payload);

  auto deliver = [this, dst, m = std::move(msg)]() mutable {
    Endpoint& e = endpoints_[dst];
    e.stats.messages_received++;
    e.stats.bytes_received += m.wire_bytes;
    if (e.receiver) {
      if (metrics_.msgs_delivered) metrics_.msgs_delivered->Inc();
      e.receiver(std::move(m));
    } else {
      // Structural drop: nothing listening at this endpoint. Traced with
      // the same kind as injected drops so no loss is ever silent.
      ++dropped_;
      if (metrics_.msgs_dropped) metrics_.msgs_dropped->Inc();
      trace_->Record(sim_.Now(), obs::TraceKind::kNetDrop,
                     obs::TraceEvent::kNoNode, m.src, dst, 0);
    }
  };
  // Delivery is the single hottest event in the tree (every message is
  // one); the capture list must keep fitting the inline buffer.
  static_assert(EventFitsInline<decltype(deliver)>,
                "network delivery event must not heap-allocate");
  sim_.At(deliver_at, std::move(deliver));
}

}  // namespace leed::sim
