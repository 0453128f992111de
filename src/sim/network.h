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
// Messages carry an arbitrary payload (std::any); the RPC layers above put
// request/response structs in it. Wire size is explicit so that header and
// object bytes are charged honestly.

#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace leed::sim {

class NetFaults;  // sim/fault.h

using EndpointId = uint32_t;
constexpr EndpointId kInvalidEndpoint = UINT32_MAX;

struct NicSpec {
  double bandwidth_bpns = GbpsToBytesPerNs(100.0);  // bytes per ns
  SimTime base_latency_ns = 2 * kMicrosecond;       // one-way, incl. switch
};

struct Message {
  EndpointId src = kInvalidEndpoint;
  EndpointId dst = kInvalidEndpoint;
  uint64_t wire_bytes = 0;
  SimTime sent_at = 0;
  std::any payload;
};

using Receiver = std::function<void(Message)>;

struct EndpointStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

class Network {
 public:
  explicit Network(Simulator& simulator) : sim_(simulator) {}

  EndpointId AddEndpoint(NicSpec spec);

  // Installs the delivery handler; a message to an endpoint without a
  // receiver is dropped (counted).
  void SetReceiver(EndpointId id, Receiver receiver);

  // Send a message. Latency = egress serialization (sender pipe) +
  // base latency (max of the two endpoints' stacks) + ingress
  // serialization (receiver pipe). Both pipes are FIFO.
  Status Send(EndpointId src, EndpointId dst, uint64_t wire_bytes,
              std::any payload);

  const EndpointStats& stats(EndpointId id) const { return endpoints_[id].stats; }
  uint64_t dropped_messages() const { return dropped_; }

  // Publish fabric-wide totals (msgs/bytes sent+delivered, drops) under
  // `scope` (e.g. "net"). Per-endpoint breakdowns stay in EndpointStats.
  void AttachMetrics(const obs::Scope& scope);

  // Instantaneous ingress backlog in ns — how far behind the receiver NIC
  // is; visible to tests asserting incast behaviour.
  SimTime IngressBacklog(EndpointId id) const;

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
  void DeliverOne(EndpointId src, EndpointId dst, uint64_t wire_bytes,
                  std::any payload, SimTime now, SimTime extra_delay);
  struct Endpoint {
    NicSpec spec;
    Receiver receiver;
    SimTime egress_free_at = 0;
    SimTime ingress_free_at = 0;
    EndpointStats stats;
  };

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

}  // namespace leed::sim
