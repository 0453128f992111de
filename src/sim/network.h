// Rack-scale network model.
//
// The paper's testbed is a single 100 Gbps ToR (Arista 716032-CQ) with
// RDMA-capable endpoints; the FAWN comparison cluster hangs off a 1 GbE
// switch. We model each endpoint's NIC as two serialization pipes (egress
// at the sender, ingress at the receiver) plus a fixed base latency for
// propagation + switching + the transport stack. Modeling the *ingress*
// pipe is what reproduces incast: many senders converging on one JBOF
// build queueing delay at its NIC exactly as §4.5 describes.
//
// The fabric is generic over its message schema: `Payload` is the RPC
// layer's message type (leed::WireMsg, a std::variant of every wire struct)
// and `WireSize(const Payload&)`, found by argument-dependent lookup, is
// what each message is charged on the pipes. Senders never pass a byte
// count, so header and object bytes come from the message itself. The
// payload is boxed so a Message stays small enough for the delivery event
// to live in the event loop's inline buffer.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace leed::sim {

using EndpointId = uint32_t;
constexpr EndpointId kInvalidEndpoint = UINT32_MAX;

struct NicSpec {
  double bandwidth_bpns = GbpsToBytesPerNs(100.0);  // bytes per ns
  SimTime base_latency_ns = 2 * kMicrosecond;       // one-way, incl. switch
};

template <typename Payload>
struct Message {
  EndpointId src = kInvalidEndpoint;
  EndpointId dst = kInvalidEndpoint;
  uint64_t wire_bytes = 0;
  SimTime sent_at = 0;
  std::unique_ptr<Payload> payload;
};

struct EndpointStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

template <typename Payload>
class Network {
 public:
  using Msg = Message<Payload>;
  using Receiver = std::function<void(Msg)>;

  explicit Network(Simulator& simulator) : sim_(simulator) {}

  EndpointId AddEndpoint(NicSpec spec) {
    endpoints_.push_back(Endpoint{spec, nullptr, 0, 0, {}});
    return static_cast<EndpointId>(endpoints_.size() - 1);
  }

  // Installs the delivery handler; a message to an endpoint without a
  // receiver is dropped (counted).
  void SetReceiver(EndpointId id, Receiver receiver) {
    endpoints_.at(id).receiver = std::move(receiver);
  }

  // Send a message of WireSize(payload) bytes. Latency = egress
  // serialization (sender pipe) + base latency (max of the two endpoints'
  // stacks) + ingress serialization (receiver pipe). Both pipes are FIFO.
  Status Send(EndpointId src, EndpointId dst, Payload payload);

  const EndpointStats& stats(EndpointId id) const { return endpoints_[id].stats; }
  uint64_t dropped_messages() const { return dropped_; }

  // Publish fabric-wide totals (msgs/bytes sent+delivered, drops) under
  // `scope` (e.g. "net"). Per-endpoint breakdowns stay in EndpointStats.
  void AttachMetrics(const obs::Scope& scope) {
    scope.ResetInstruments();
    metrics_.msgs_sent = scope.GetCounter("msgs_sent");
    metrics_.bytes_sent = scope.GetCounter("bytes_sent");
    metrics_.msgs_delivered = scope.GetCounter("msgs_delivered");
    metrics_.msgs_dropped = scope.GetCounter("msgs_dropped");
  }

  // Attach (or detach) the injectable fault layer (drop/duplicate/delay/
  // partition rules; see sim/fault.h). Null = fault-free fabric.
  void set_faults(NetFaults* faults) { faults_ = faults; }

  // Every drop — structural (no receiver), injected, or partition — emits
  // a kNetDrop trace event here so lost messages are debuggable from
  // --trace-out. Defaults to the process-wide ring.
  void set_trace(obs::TraceRing* trace) {
    trace_ = trace ? trace : &obs::TraceRing::Default();
  }

 private:
  struct Endpoint {
    NicSpec spec;
    Receiver receiver;
    SimTime egress_free_at = 0;
    SimTime ingress_free_at = 0;
    EndpointStats stats;
  };

  void DeliverOne(EndpointId src, EndpointId dst, uint64_t wire_bytes,
                  std::unique_ptr<Payload> payload, SimTime now,
                  SimTime extra_delay);
  void CountSent(Endpoint& s, uint64_t wire_bytes);

  Simulator& sim_;
  std::vector<Endpoint> endpoints_;
  uint64_t dropped_ = 0;
  NetFaults* faults_ = nullptr;
  obs::TraceRing* trace_ = &obs::TraceRing::Default();

  // Registry handles; null until AttachMetrics.
  struct {
    obs::Counter* msgs_sent = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* msgs_delivered = nullptr;
    obs::Counter* msgs_dropped = nullptr;
  } metrics_;
};

template <typename Payload>
Status Network<Payload>::Send(EndpointId src, EndpointId dst, Payload payload) {
  if (src >= endpoints_.size() || dst >= endpoints_.size()) {
    return Status::InvalidArgument("unknown endpoint");
  }
  const SimTime now = sim_.Now();
  const uint64_t wire_bytes = WireSize(payload);

  SimTime extra_delay = 0;
  NetVerdict verdict = NetVerdict::kDeliver;
  if (faults_ != nullptr) {
    verdict = faults_->OnSend(src, dst, now, &extra_delay);
  }
  if (verdict == NetVerdict::kDropInjected ||
      verdict == NetVerdict::kDropPartition) {
    // The message left the sender (it counts as sent) but never transits
    // the fabric: no pipe occupancy at either NIC, no delivery event.
    CountSent(endpoints_[src], wire_bytes);
    ++dropped_;
    if (metrics_.msgs_dropped) metrics_.msgs_dropped->Inc();
    trace_->Record(now, obs::TraceKind::kNetDrop, obs::TraceEvent::kNoNode,
                   src, dst,
                   verdict == NetVerdict::kDropInjected ? 1 : 2);
    return Status::Ok();
  }

  auto box = std::make_unique<Payload>(std::move(payload));
  if (verdict == NetVerdict::kDuplicate) {
    // The fabric delivers the message twice: two full pipe transits, two
    // delivery events. Layers above must tolerate replays.
    DeliverOne(src, dst, wire_bytes, std::make_unique<Payload>(*box), now,
               extra_delay);
  }
  DeliverOne(src, dst, wire_bytes, std::move(box), now, extra_delay);
  return Status::Ok();
}

template <typename Payload>
void Network<Payload>::CountSent(Endpoint& s, uint64_t wire_bytes) {
  s.stats.messages_sent++;
  s.stats.bytes_sent += wire_bytes;
  if (metrics_.msgs_sent) {
    metrics_.msgs_sent->Inc();
    metrics_.bytes_sent->Add(wire_bytes);
  }
}

template <typename Payload>
void Network<Payload>::DeliverOne(EndpointId src, EndpointId dst,
                                  uint64_t wire_bytes,
                                  std::unique_ptr<Payload> payload,
                                  SimTime now, SimTime extra_delay) {
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

  CountSent(s, wire_bytes);

  Msg msg{src, dst, wire_bytes, now, std::move(payload)};
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
