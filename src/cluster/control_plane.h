// The control-plane manager (paper §3.1.2, §3.8).
//
// The paper backs this with an etcd quorum; it is off the measured data
// path, so we model it as a single service endpoint that (1) owns the
// authoritative ClusterView, (2) tracks JBOF health through heartbeats,
// (3) orchestrates node join/leave/failure by issuing COPY commands and
// flipping vnode states, and (4) broadcasts view updates to nodes and
// clients — asynchronously, which is exactly what creates the transient
// cross-view windows that the hop-counter check (§3.8.1) guards.
//
// Transition protocol (uniform for join / leave / failure):
//   epoch N+1: ring takes its post-transition shape immediately (JOINING
//     members are in the chains; LEAVING/failed members are out); every
//     member that now serves a range it does not yet store is marked
//     *filling* for that range, and a COPY is commissioned from a chain
//     member that has the data. Reads avoid filling ranges; writes flow
//     through the new chains from the first epoch, and the COPY receiver
//     skips any key the chain already wrote (snapshot never overwrites a
//     newer chain write).
//   epoch N+2 (all copies done): JOINING -> RUNNING, LEAVING -> deleted,
//     filling cleared.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cluster/membership.h"
#include "leed/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace leed::cluster {

struct ControlPlaneConfig {
  uint32_t replication_factor = 3;  // > Chain::kMaxLength aborts
  SimTime heartbeat_period = 50 * kMillisecond;
  SimTime failure_timeout = 250 * kMillisecond;
  bool monitor_heartbeats = true;

  // Observability: the control plane registers its instruments under
  // "cluster.*" in `metrics_registry` (null: a registry of its own)
  // and emits transition trace events to `trace`.
  obs::Registry* metrics_registry = nullptr;
  obs::TraceRing* trace = nullptr;
};

// The control plane's counts, in a registry-owned struct; copies_abandoned,
// store_failures and vnodes_failed_over are published under "cluster.".
struct ControlPlaneStats {
  uint64_t views_broadcast = 0;
  uint64_t joins_started = 0, joins_completed = 0;
  uint64_t leaves_started = 0, leaves_completed = 0;
  uint64_t failures_detected = 0;
  uint64_t copies_commissioned = 0, copies_completed = 0;
  uint64_t copies_reassigned = 0;  // source died mid-stream, re-routed
  uint64_t copies_abandoned = 0;   // no surviving source (data loss)
  uint64_t copies_cancelled = 0;   // destination died; fill became moot
  uint64_t store_failures = 0;     // FailStore transitions started
  uint64_t vnodes_failed_over = 0; // vnodes removed by store failovers
  uint64_t stale_heartbeats_ignored = 0;  // from administratively-dead nodes
  uint64_t stale_copy_acks_rejected = 0;  // CopyDone from dead-node endpoints
};

class ControlPlane {
 public:
  ControlPlane(sim::Simulator& simulator, Network& network,
               ControlPlaneConfig config);
  ~ControlPlane();

  sim::EndpointId endpoint() const { return endpoint_; }

  // --- setup (before Start) ---
  // Create an initial RUNNING virtual node; no copy involved.
  VNodeId Bootstrap(uint32_t owner_node, uint32_t local_store, uint64_t position);
  void RegisterNode(uint32_t node_id, sim::EndpointId ep);
  void RegisterClient(sim::EndpointId ep);
  void Start();

  // --- runtime operations ---
  // A new virtual node joins at the midpoint of the widest arc; returns its
  // id (transition completes asynchronously).
  VNodeId StartJoin(uint32_t owner_node, uint32_t local_store);
  // Voluntary leave; data drains to successors first.
  void StartLeave(VNodeId id);
  // Mark a node dead immediately (tests/benches); heartbeat timeout calls
  // this too.
  void FailNode(uint32_t node_id);
  // Vnode-granular failover: one local store's SSD died permanently, but the
  // node itself is healthy and keeps serving its other stores. Removes only
  // that store's vnodes from the ring and re-replicates exactly their arcs
  // from surviving chain members. StoreFailedMsg routes here.
  void FailStore(uint32_t node_id, uint32_t local_store);
  // A crashed node came back (ClusterSim::RestartNode): clear its dead
  // mark, point its id at the restarted object's endpoint, and reset the
  // heartbeat clock so it is not immediately re-declared dead. The node
  // rejoins the ring through the normal StartJoin path afterwards.
  void ReviveNode(uint32_t node_id, sim::EndpointId ep);

  const ClusterView& view() const { return view_; }
  const ControlPlaneStats& stats() const { return *stats_; }

  // True while any join/leave/failure transition has copies outstanding.
  bool TransitionInProgress() const { return !pending_.empty(); }

 private:
  enum class TransitionKind { kJoin, kLeave, kFail };
  struct Transition {
    TransitionKind kind;
    std::vector<VNodeId> subjects;   // joining vnode, or leaving/dead vnodes
    std::set<uint64_t> open_copies;  // copy ids not yet done
  };

  void OnMessage(Message msg);
  void Broadcast();
  void SendView(sim::EndpointId to);
  void CheckHeartbeats();
  void FinishTransition(uint64_t transition_id);

  // Commission the copies implied by moving from `old_ring` to the current
  // view's ring, for the keys formerly/newly chained through `pivots`.
  // Appends filling entries and copy commands. Returns the copy ids.
  std::set<uint64_t> CommissionCopies(const HashRing& old_ring,
                                      const HashRing& new_ring,
                                      const std::vector<VNodeId>& pivots,
                                      const std::set<uint32_t>& dead_nodes);

  sim::Simulator& sim_;
  Network& net_;
  ControlPlaneConfig config_;
  sim::EndpointId endpoint_;

  ClusterView view_;
  std::map<uint32_t, sim::EndpointId> node_endpoints_;
  std::vector<sim::EndpointId> client_endpoints_;
  std::map<uint32_t, SimTime> last_heartbeat_;
  std::set<uint32_t> dead_nodes_;
  // (node, local_store) pairs whose backing SSD died. Cleared for a node by
  // ReviveNode (a restarted node comes back with a replaced, blank device).
  std::set<std::pair<uint32_t, uint32_t>> dead_stores_;

  // True if the data behind this vnode is gone: its host node is dead or
  // its backing store's SSD died. Such vnodes must never be copy sources.
  bool HostIsDead(const VNodeInfo& info,
                  const std::set<uint32_t>& dead_nodes) const;
  bool IsDeadNodeEndpoint(sim::EndpointId ep) const;

  // Re-route copies whose source died mid-stream (FailNode/FailStore scan
  // this and re-issue from a surviving data holder); cancel copies whose
  // destination died (the fill is moot — the dst vnode is being removed).
  void ReassignOrphanedCopies();

  std::map<uint64_t, Transition> pending_;      // transition id -> state
  std::map<uint64_t, uint64_t> copy_to_transition_;
  std::map<uint64_t, CopyCommandMsg> open_copy_cmds_;
  uint64_t next_vnode_ = 0;
  uint64_t next_copy_id_ = 1;
  uint64_t next_transition_id_ = 1;

  std::unique_ptr<sim::PeriodicTimer> hb_timer_;

  obs::Scope scope_;
  ControlPlaneStats* stats_;  // registry-owned, zeroed at construction
  obs::TraceRing* trace_;
};

}  // namespace leed::cluster
