// A storage node: the unit the paper deploys per JBOF (or per Raspberry Pi
// for the FAWN baseline).
//
// A Node glues together: a platform (cores, NIC, power), a storage stack
// (LEED's IoEngine, or a FAWN/KVell BaselineExecutor), the replication
// protocol (chain replication, optionally with CRRS request shipping), the
// membership machinery (view cache, hop-counter verification, COPY
// execution for join/leave/failure), and heartbeats to the control plane.
//
// Core mapping follows §3.4: for the LEED stack, cores [0, ssd_count) run
// the per-SSD data stores and the remaining cores poll the NIC (every
// received/sent message charges rx/tx cycles on a polling core, round-
// robin). Baselines charge their network cost on the same cores as their
// stores (FAWN/KVell use kernel/SPDK stacks without LEED's split).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/executor.h"
#include "cluster/control_plane.h"
#include "cluster/membership.h"
#include "engine/io_engine.h"
#include "engine/storage_service.h"
#include "leed/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/chain.h"
#include "replication/crrs.h"
#include "sim/cpu_model.h"
#include "sim/platform.h"

namespace leed {

enum class StackKind : uint8_t { kLeed, kFawn, kKvell };

// Deadline after which a parked CRAQ version query is reaped with a NACK
// (the query or its reply was dropped, or the tail failed over); keeps
// craq_pending_ from leaking parked requests past the client timeout.
inline constexpr SimTime kCraqQueryTimeout = 10 * kMillisecond;

struct NodeConfig {
  sim::PlatformSpec platform;
  StackKind stack = StackKind::kLeed;
  engine::EngineConfig engine;          // used when stack == kLeed
  baselines::BaselineConfig baseline;   // used otherwise
  bool crrs = true;                     // CRRS read shipping (§3.7)
  // Ablation: resolve dirty reads with a CRAQ-style version query to the
  // tail instead of shipping the read (§3.7's rejected alternative).
  bool craq_version_query = false;
  // TEST-ONLY (mutation switch for the consistency harness, docs/CHECKING.md):
  // pretend every key is clean, so mid-chain replicas answer reads from
  // their last *applied* version even while a newer write is still
  // propagating. The nemesis sweep must flag this as non-linearizable —
  // it is the end-to-end proof the checker can see a CRRS dirty-read bug.
  bool test_only_serve_dirty_reads = false;
  // TEST-ONLY (mutation switch, docs/CHECKING.md): serve SCANs from the
  // applied store state without parking on dirty keys, so a mid-chain
  // replica can return values the tail already superseded — a torn scan.
  // The nemesis sweep must flag this as non-linearizable; it is the
  // end-to-end proof the scan-aware checker can see the bug.
  bool test_only_serve_torn_scans = false;
  // Per-message network-stack cycle costs on the reference core.
  uint64_t net_rx_cycles = 1200;
  uint64_t net_tx_cycles = 700;
  SimTime heartbeat_period = 20 * kMillisecond;

  // Observability: the node registers its instruments as "node<id>.*" in
  // `metrics_registry` (null: a registry of the node's own) and rewrites
  // the engine's scope to "node<id>.engine.*". Trace events go to `trace`.
  obs::Registry* metrics_registry = nullptr;
  obs::TraceRing* trace = nullptr;
};

// A node's counts. The registry owns the struct and publishes every field
// as "node<id>.<field>" (node.cc's table).
struct NodeStats {
  uint64_t client_requests = 0;
  uint64_t gets_served = 0;
  uint64_t scans_served = 0;
  uint64_t scan_items_returned = 0;
  uint64_t scans_parked = 0;        // scans that waited out a dirty window
  uint64_t reads_shipped = 0;       // CRRS dirty-key shipping
  uint64_t writes_headed = 0;       // writes entering at this head
  uint64_t chain_writes = 0;        // traversing writes received
  uint64_t chain_acks = 0;
  uint64_t commits_as_tail = 0;
  uint64_t nacks_sent = 0;          // hop-counter / view mismatches
  uint64_t copy_items_sent = 0;
  uint64_t copy_items_applied = 0;
  uint64_t copy_items_skipped = 0;  // chain-write superseded snapshot item
  uint64_t craq_queries_sent = 0;   // dirty reads resolved via version query
  uint64_t craq_queries_answered = 0;
  uint64_t craq_queries_reaped = 0; // parked queries NACKed on deadline/view
  uint64_t offload_gets = 0;        // GETs served via host-bypass offload
  uint64_t internal_retries = 0;    // local applies deferred by overload
  uint64_t obligation_retries = 0;  // chain-apply retries (bounded)
  uint64_t obligation_giveups = 0;  // chain applies failed after max retries
  uint64_t view_updates = 0;
  uint64_t pending_reforwards = 0;
  uint64_t store_unavailable_nacks = 0;  // ops refused on a failed store
};

class Node {
 public:
  Node(sim::Simulator& simulator, Network& network,
       sim::EndpointId control_plane, NodeConfig config, uint32_t node_id,
       uint64_t seed);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  sim::EndpointId endpoint() const { return endpoint_; }
  uint32_t id() const { return node_id_; }

  void Start();
  // Fail-stop: drop every subsequent message and stop heartbeating. The
  // control plane declares the node dead after its timeout.
  void Fail();
  bool failed() const { return failed_; }

  // Crash: fail-stop plus loss of all DRAM state. Outbound sends are
  // suppressed and the engine's periodic timers stop; the devices (owned
  // by ClusterSim via EngineConfig::external_ssds) keep their contents.
  // The object lingers as an inert zombie until ClusterSim::RestartNode
  // replaces it.
  void Crash();
  bool crashed() const { return crashed_; }

  // Rebuild the storage stack's state from device contents (superblocks +
  // log scans); see IoEngine::RecoverFromDevices. LEED stack only.
  void Recover(std::function<void(Status, store::RecoveryStats)> done);

  engine::StorageService& storage() { return *storage_; }
  engine::IoEngine* leed_engine() { return leed_engine_.get(); }
  sim::CpuModel& cpu() { return *cpu_; }
  const cluster::ClusterView& view() const { return view_; }
  const NodeStats& stats() const { return *stats_; }
  const NodeConfig& config() const { return config_; }

  // Direct store access for preloading (bypasses the network on purpose).
  void DirectPut(uint32_t local_store, std::string key, SharedBytes value,
                 std::function<void(Status)> done);

  // Mean power draw over [0, window] given this node's platform and CPU
  // utilization (paper's wall-meter measurement).
  double PowerWatts(SimTime window_ns) const;

 private:
  void OnMessage(Message msg);
  void Dispatch(Message msg);

  // Where a data-path request lands. `code` is kOk when the request may be
  // served here; otherwise the code it is refused with (see Place).
  struct Placement {
    StatusCode code = StatusCode::kWrongView;
    const cluster::VNodeInfo* info = nullptr;  // the owned vnode, if any
    cluster::Chain chain;                      // the key's chain
    int idx = -1;                              // the vnode's index in it
    bool is_tail() const { return idx == static_cast<int>(chain.size()) - 1; }
  };
  // The §3.8 hop-counter check every client request, chain write and
  // offloaded GET passes first: this node owns `vnode`, its store is alive,
  // the stack can serve `op`, and the key's chain puts `vnode` at `hop`
  // (any index for a shipped read). Refusals: kWrongView (NACK),
  // kUnavailable (store on a failed SSD), kInvalidArgument (SCAN on a stack
  // without an ordered view).
  Placement Place(engine::OpType op, cluster::VNodeId vnode,
                  std::string_view key, uint8_t hop, bool shipped) const;
  // Answers a request Place refused; false (and silent) when it was placed.
  bool Refused(const Placement& p, sim::EndpointId reply_to, uint64_t req_id);
  // Whether `vnode` is still backfilling at `keypos`, or anywhere when the
  // read spans a key range (nullopt).
  bool Filling(cluster::VNodeId vnode, std::optional<uint64_t> keypos) const;
  // Ships a first-touch read to the tail-most chain member that is not
  // Filling for it; kUnavailable when no such member is reachable.
  void ShipRead(ClientRequestMsg req, const Placement& p,
                std::optional<uint64_t> keypos);

  void HandleClientRequest(ClientRequestMsg req);
  void HandleGet(ClientRequestMsg req);
  // SCAN entry point: snapshot the range index, gate on CRRS dirty windows
  // (park until they drain unless this replica is the tail), then fetch the
  // values through the engine. kBusy completions (compaction moved a value
  // under the snapshot) re-enter here for a fresh snapshot, bounded by
  // kMaxInternalRetries.
  void HandleScan(ClientRequestMsg req, uint32_t attempt = 0);
  void ServeScanLocally(ClientRequestMsg req, uint32_t local_store,
                        std::vector<store::ScanLoc> snapshot, uint32_t attempt);
  // Host-bypass offload (Scalio-style): serve an index-hit GET straight
  // from the NIC offload engine, charging no rx/tx or store-core cycles.
  // Returns false (req intact) when the op must take the CPU slow path.
  bool TryOffloadGet(ClientRequestMsg& req);
  // Deadline sweep for a parked CRAQ version query (see kCraqQueryTimeout).
  void ReapCraqQuery(uint64_t qid);
  void ServeGetLocally(ClientRequestMsg req, uint32_t local_store);
  void HandleChainWrite(ChainWriteMsg w);
  void HandleChainAck(ChainAckMsg ack);
  void HandleCraqQuery(CraqQueryMsg query);
  void HandleCraqReply(CraqReplyMsg reply);
  void HandleViewUpdate(cluster::ViewUpdateMsg update);
  void HandleCopyCommand(cluster::CopyCommandMsg cmd);
  void HandleCopyItem(cluster::CopyItemMsg item);

  // Degraded mode: the engine latched `ssd` permanently failed. Report
  // each of its stores to the control plane (StoreFailedMsg) and start
  // refusing their ops with kUnavailable; other stores keep serving.
  void OnSsdFailed(uint32_t ssd);

  // Cap on overload retries of a local chain apply, and on a SCAN's
  // re-snapshots. Each apply retry backs off exponentially
  // (kInternalRetryDelay << attempt, capped); when the budget is spent the
  // write fails with kUnavailable and the chain propagates the failed ack
  // instead of spinning forever against a store that never drains.
  static constexpr uint32_t kMaxInternalRetries = 16;
  static constexpr SimTime kInternalRetryDelay = 200 * kMicrosecond;

  // Apply a committed write to the local store, retrying on overload with
  // capped exponential backoff (a chain obligation cannot be silently
  // dropped); after kMaxInternalRetries the apply fails kUnavailable.
  void ApplyLocal(cluster::VNodeId vnode, bool is_del, std::string key,
                  SharedBytes value, std::function<void(Status)> done,
                  uint32_t attempt = 0);

  // The one reply path to clients: the response names this node, the SSD
  // behind `local_store` and, when given, that SSD's advertised tokens. The
  // offload engine replies over its own DMA path (`charge_tx` false).
  void RespondToClient(sim::EndpointId reply_to, uint64_t req_id,
                       StatusCode code, uint32_t local_store,
                       std::optional<uint32_t> tokens,
                       std::vector<uint8_t> value = {},
                       std::vector<store::ScanItem> items = {},
                       bool charge_tx = true);
  void SendNack(sim::EndpointId reply_to, uint64_t req_id);
  void SendAckBackward(const cluster::Chain& chain,
                       cluster::VNodeId self, uint64_t write_id,
                       const std::string& key, bool success,
                       replication::CommitStamp commit);
  void CommitAsTail(cluster::VNodeId vnode, replication::PendingWrite w,
                    const cluster::Chain& chain);
  // Apply an ack-admitted pending write (commit-stamp order per key), then
  // release the key's apply slot and continue with any queued successor.
  void ApplyAckedWrite(cluster::VNodeId vnode, uint64_t write_id,
                       std::string key);
  // Serve reads parked on (vnode, key) once the key's dirty window closed;
  // no-op while pending writes remain. SweepParkedReads re-evaluates all
  // parked reads after a view change (ownership may be gone entirely).
  void ServeParkedReads(cluster::VNodeId vnode, const std::string& key);
  void SweepParkedReads();

  // Send any message to another node/client, charging tx cycles.
  void SendMsg(sim::EndpointId to, WireMsg msg);

  sim::CpuCore& NetCore();
  // replicas_[id] with registry gauges attached on first creation.
  replication::ReplicaState& Replica(cluster::VNodeId id);
  cluster::Chain ChainForKey(std::string_view key) const;
  const cluster::VNodeInfo* OwnedVNode(cluster::VNodeId id) const;
  uint64_t MakeWriteId() { return (static_cast<uint64_t>(node_id_) << 40) | next_write_seq_++; }
  void RefreshFillTracking();
  void ReforwardPending();

  sim::Simulator& sim_;
  Network& net_;
  sim::EndpointId cp_endpoint_;
  NodeConfig config_;
  uint32_t node_id_;
  sim::EndpointId endpoint_;
  bool failed_ = false;
  bool crashed_ = false;

  std::unique_ptr<sim::CpuModel> cpu_;
  std::unique_ptr<engine::IoEngine> leed_engine_;
  std::unique_ptr<baselines::BaselineExecutor> baseline_;
  engine::StorageService* storage_ = nullptr;

  cluster::ClusterView view_;
  cluster::HashRing serving_ring_;  // cache rebuilt per view update
  std::map<cluster::VNodeId, replication::ReplicaState> replicas_;
  // Endpoints of peer nodes, learned from ClusterSim at setup.
  std::map<uint32_t, sim::EndpointId>* node_endpoints_ = nullptr;

  struct CopyIn {
    uint32_t outstanding = 0;
    bool last_seen = false;
    bool done_sent = false;
  };
  std::map<uint64_t, CopyIn> copy_in_;
  // Shipped reads that landed on a *dirty* non-tail replica. That only
  // happens when the true tail is filling (the shipper picks the tail-most
  // data-complete member), and §3.7's "the ship target holds the latest
  // committed value" no longer holds there: the tail may have acked the
  // client while this replica's apply is still in flight. Such reads wait
  // until the key's pending writes drain; the client's request timeout
  // bounds the wait if the ack never arrives.
  std::map<std::pair<cluster::VNodeId, std::string>,
           std::vector<ClientRequestMsg>>
      parked_reads_;
  // Reads parked on an outstanding CRAQ version query.
  std::map<uint64_t, ClientRequestMsg> craq_pending_;
  uint64_t next_craq_id_ = 1;

  uint32_t net_core_rr_ = 0;
  uint64_t next_write_seq_ = 1;
  // Per-vnode tail commit sequence (stamped into backward acks).
  std::map<cluster::VNodeId, uint64_t> commit_seq_;
  std::unique_ptr<sim::PeriodicTimer> hb_timer_;

  obs::Scope scope_;
  NodeStats* stats_;  // registry-owned, shared with a restarted successor
  obs::TraceRing* trace_ = nullptr;
  struct {
    obs::Gauge* stores_failed;
    obs::Gauge* power_w;
    obs::Gauge* repl_pending_writes;
    obs::Gauge* repl_dirty_keys;
  } gauges_{};

 public:
  // Wired by ClusterSim after all nodes exist.
  void set_node_endpoints(std::map<uint32_t, sim::EndpointId>* m) {
    node_endpoints_ = m;
  }
};

}  // namespace leed
