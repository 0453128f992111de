// Front-end client library (paper §3.1.2, §3.5, §3.7).
//
// Runs co-located with the application (the x86 client machines in the
// testbed). Responsibilities:
//   * view cache: routes each key to its replication chain; refreshes from
//     the control plane when a hop-counter NACK reveals a stale view;
//   * request scheduling: every outgoing request passes through the
//     Algorithm-1 flow-control scheduler against the per-SSD token view
//     learned from piggybacked responses (the "earliest possible
//     scheduling decision", principle P2);
//   * replica choice: writes go to the chain head; reads go to the replica
//     advertising the most tokens when CRRS is on (§3.7), else to the tail;
//     filling replicas are skipped either way;
//   * reliability: bounded retries on NACK / overload / timeout, with
//     first-issue-to-final-completion latency reported to the caller.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/membership.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "common/shared_bytes.h"
#include "engine/token_bucket.h"
#include "flowctl/scheduler.h"
#include "leed/wire.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace leed {

// Flow-scheduler tenants per client; operations are dealt to them
// round-robin.
inline constexpr uint32_t kClientTenants = 4;
// Ceiling of the retry backoff (see ClientConfig::retry_delay).
inline constexpr SimTime kRetryDelayCap = 10 * kMillisecond;

struct ClientConfig {
  bool flow_control = true;   // Fig. 8 knob ("w/ LS" vs "w/o LS")
  bool crrs_reads = true;     // Fig. 7 knob (read shipping / replica choice)
  SimTime request_timeout = 20 * kMillisecond;
  uint32_t max_retries = 10;
  // Retry schedule: capped exponential backoff. Attempt k waits
  // d = min(retry_delay * 2^(k-1), kRetryDelayCap) plus a deterministic
  // jitter drawn per retry from [0, d / 4] — without the jitter, clients
  // that fail together (a store NACKing kUnavailable, a dead node timing
  // out) retry in lockstep and re-collide forever.
  SimTime retry_delay = 300 * kMicrosecond;   // first-retry base
  uint64_t backoff_seed = 0;  // per-client (ClusterSim: seed ^ client index)
  uint32_t stores_per_ssd = 4; // vnode -> SSD mapping for token accounts
  int64_t initial_tokens = 16;
  // Weighted-allocation identity presented to back-end SSDs (§3.5).
  uint32_t tenant_id = 0;
  // Observability: when `metrics_prefix` is non-empty the client publishes
  // "<metrics_prefix>.backoff_us" and its flow scheduler
  // "<metrics_prefix>.sched.*" (ClusterSim wires "client<i>"); empty
  // leaves standalone clients unregistered.
  obs::Registry* metrics_registry = nullptr;
  std::string metrics_prefix;
  // Consistency checking (src/check): when non-null, every operation's
  // invoke/response is recorded under `history_client_id` (ClusterSim wires
  // one shared log across its clients when ClusterConfig::record_history is
  // set). Retries stay inside one recorded op: the interval runs from first
  // issue to final completion, which is exactly the client-visible window.
  check::HistoryLog* history = nullptr;
  uint32_t history_client_id = 0;
};

// A client's counts, in a registry-owned struct; only backoff_us is
// published, as "<metrics_prefix>.backoff_us".
struct ClientStats {
  uint64_t issued = 0;         // operations started (not counting retries)
  uint64_t sends = 0;          // wire transmissions (incl. retries)
  uint64_t ok = 0, not_found = 0, failed = 0;
  uint64_t retries = 0, nacks = 0, overloads = 0, timeouts = 0;
  uint64_t backoff_us = 0;     // total retry backoff scheduled (incl. jitter)
  Histogram latency_us;        // first issue -> final completion
};

class Client {
 public:
  using GetCallback =
      std::function<void(Status, std::vector<uint8_t>, SimTime latency_ns)>;
  using OpCallback = std::function<void(Status, SimTime latency_ns)>;
  using ScanCallback = std::function<void(Status, std::vector<store::ScanItem>,
                                          SimTime latency_ns)>;

  Client(sim::Simulator& simulator, Network& network,
         sim::EndpointId control_plane,
         const std::map<uint32_t, sim::EndpointId>* node_endpoints,
         ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  sim::EndpointId endpoint() const { return endpoint_; }

  // Adopt a view directly (ClusterSim hands the bootstrap view over);
  // afterwards updates arrive via broadcast.
  void AdoptView(cluster::ClusterView view);
  bool ready() const { return view_.epoch > 0; }
  const cluster::ClusterView& view() const { return view_; }

  void Get(std::string key, GetCallback callback);
  void Put(std::string key, std::vector<uint8_t> value, OpCallback callback);
  void Del(std::string key, OpCallback callback);
  // Ordered range read: up to `limit` items with key >= start_key, served by
  // the chain owning start_key (scans are partition-local — keys are hash-
  // partitioned, so the range a single chain can answer is its own shard's
  // key set). Charged ScanTokenCost(limit) up front: the limit is the upper
  // bound of what the server may return, so Algorithm-1's admission uses it.
  void Scan(std::string start_key, uint32_t limit, ScanCallback callback);

  // In-flight operations (for closed-loop drivers).
  size_t outstanding() const { return inflight_.size(); }

  const ClientStats& stats() const { return *stats_; }
  flowctl::FlowScheduler& scheduler() { return *scheduler_; }
  ClientConfig& config() { return config_; }

 private:
  struct Inflight {
    engine::OpType op;
    std::string key;
    SharedBytes value;  // every attempt's request shares it
    uint32_t scan_limit = 0;
    GetCallback get_cb;
    OpCallback op_cb;
    ScanCallback scan_cb;
    SimTime first_issued = 0;
    uint32_t attempts = 0;
    uint32_t tenant = 0;
    flowctl::SsdRef last_target;
    sim::EventId timeout_event = 0;
    uint64_t history_op = 0;
  };

  void StartOp(std::shared_ptr<Inflight> op);
  void Issue(std::shared_ptr<Inflight> op);
  bool Route(const std::string& key, engine::OpType op, cluster::VNodeId* vnode,
             uint8_t* hop, flowctl::SsdRef* target) const;
  void OnMessage(Message msg);
  void OnResponse(ResponseMsg resp);
  void OnTimeout(uint64_t req_id);
  SimTime BackoffDelay(const Inflight& op);
  void RetryLater(std::shared_ptr<Inflight> op);
  void Complete(std::shared_ptr<Inflight> op, Status st,
                std::vector<uint8_t> value,
                std::vector<store::ScanItem> scan_items = {});
  void RequestViewRefresh();

  sim::Simulator& sim_;
  Network& net_;
  sim::EndpointId cp_endpoint_;
  const std::map<uint32_t, sim::EndpointId>* node_endpoints_;
  ClientConfig config_;
  obs::Scope scope_;     // "<metrics_prefix>", or a registry of its own
  ClientStats* stats_;   // registry-owned, zeroed at construction
  sim::EndpointId endpoint_;

  cluster::ClusterView view_;
  cluster::HashRing serving_ring_;
  flowctl::TokenView token_view_;
  std::unique_ptr<flowctl::FlowScheduler> scheduler_;

  std::map<uint64_t, std::shared_ptr<Inflight>> inflight_;  // by req_id
  uint64_t next_req_id_ = 1;
  uint32_t tenant_rr_ = 0;
  Rng backoff_rng_;  // jitter stream; deterministic per backoff_seed
};

}  // namespace leed
