// ClusterSim: builds a complete simulated deployment — control plane,
// storage nodes (LEED / FAWN / KVell stacks on their respective platforms),
// clients — and drives measured workload runs. This is the harness every
// bench and example uses; it corresponds to the paper's testbed rack.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/control_plane.h"
#include "common/histogram.h"
#include "leed/client.h"
#include "leed/node.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/ycsb.h"

namespace leed {

struct ClusterConfig {
  uint32_t num_nodes = 3;
  NodeConfig node;  // template applied to every node
  uint32_t num_clients = 2;
  ClientConfig client;
  cluster::ControlPlaneConfig control_plane;
  uint64_t seed = 0x1eed;
  // Consistency checking (src/check): record every client operation into a
  // shared HistoryLog (client i records as history client i).
  bool record_history = false;
};

struct RunResult {
  uint64_t completed = 0;  // ok + not_found
  uint64_t errors = 0;
  uint64_t scan_items = 0;  // items returned by completed SCANs (YCSB-E)
  double duration_s = 0;
  double throughput_qps = 0;
  Histogram latency_us;
  double cluster_power_w = 0;  // storage nodes only, like the paper's meters
  double energy_j = 0;
  double queries_per_joule = 0;
  // Optional time series (Fig. 9): one entry per bucket, throughput in QPS.
  std::vector<std::pair<double, double>> timeline;  // (seconds, qps)
};

class ClusterSim {
 public:
  explicit ClusterSim(ClusterConfig config);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  // Create the initial virtual nodes (equally spaced, consecutive arcs on
  // distinct physical nodes so chains span JBOFs), start everything, and
  // settle the first view.
  void Bootstrap();

  // Load keys [0, num_keys) with generator-deterministic values, written
  // directly to every replica's store (bypassing the network — this stands
  // in for the hours-long load phase of the real testbed).
  void Preload(uint64_t num_keys, uint32_t value_size);

  struct DriveOptions {
    uint32_t concurrency_per_client = 64;  // closed-loop window
    double open_loop_qps = 0;              // >0: Poisson open loop instead
    SimTime warmup = 50 * kMillisecond;
    SimTime duration = 500 * kMillisecond;
    SimTime timeline_bucket = 0;  // >0: collect throughput buckets (Fig. 9)
    // Called at measurement start (after warmup) — e.g. to kick a join.
    std::function<void()> at_measure_start;
  };

  RunResult Run(workload::YcsbGenerator& generator, const DriveOptions& options);

  // --- membership operations (Fig. 9) ---
  // Adds a fresh node and joins one vnode per store. Returns node id.
  uint32_t JoinNode();
  // Gracefully drains and removes every vnode of `node_id`.
  void LeaveNode(uint32_t node_id);
  // Fail-stop the node (heartbeats stop; control plane detects).
  void KillNode(uint32_t node_id);

  // --- fault injection (sim/fault.h, docs/FAULTS.md) ---
  // Power-loss crash: DRAM state gone, every device IO black-holed from
  // here on, outbound messages suppressed. The devices themselves (owned
  // by this ClusterSim for the LEED stack) keep their contents.
  void CrashNode(uint32_t node_id);
  // Bring a crashed node back: a fresh Node object over the surviving
  // devices runs superblock + log-scan recovery, starts heartbeating, and
  // rejoins the ring (one StartJoin per store). LEED stack only.
  void RestartNode(uint32_t node_id);
  // Permanently kill one SSD (device death, docs/FAULTS.md): every
  // subsequent IO on it hard-fails. The engine latches the backing store
  // failed after N consecutive errors; the node keeps serving its healthy
  // stores (degraded mode) and the control plane fails over just the dead
  // store's vnodes (FailStore).
  void KillSsd(uint32_t node_id, uint32_t ssd);
  // Swap a blank replacement device into a *down* (crashed or failed)
  // node's SSD slot. The kill → crash → replace → restart sequence brings
  // the node back with an empty store that backfills through the normal
  // join path; no-op while the node is up (the engine holds the device).
  void ReplaceSsd(uint32_t node_id, uint32_t ssd);
  // Arm a parsed fault plan; clause times are relative to Now().
  void ArmFaultPlan(const sim::FaultPlan& plan);
  sim::FaultInjector& faults() { return *faults_; }

  sim::Simulator& simulator() { return *sim_; }
  Network& network() { return *net_; }
  cluster::ControlPlane& control_plane() { return *cp_; }
  Node& node(uint32_t i) { return *nodes_[i]; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  Client& client(uint32_t i) { return *clients_[i]; }
  uint32_t num_clients() const { return static_cast<uint32_t>(clients_.size()); }
  const ClusterConfig& config() const { return config_; }
  // Where every component registers: config().node.metrics_registry when
  // the caller set one, else a registry this cluster owns.
  obs::Registry& registry() const { return *config_.node.metrics_registry; }
  // Non-null iff ClusterConfig::record_history was set.
  const check::HistoryLog* history() const { return history_.get(); }
  check::HistoryLog* mutable_history() { return history_.get(); }

  // Mean power over a window given per-core busy-time deltas.
  double ClusterPowerWatts(const std::vector<std::vector<SimTime>>& busy_at_start,
                           SimTime window) const;

 private:
  std::vector<std::vector<SimTime>> SnapshotBusy() const;
  // Build node `node_id` over its devices and register its endpoint with
  // the peers and the control plane. The caller places and starts it.
  std::unique_ptr<Node> MakeNode(uint32_t node_id);
  // Create (or return the surviving) devices for `node_id`'s LEED engine;
  // empty for baseline stacks. Owned here so they outlive node objects.
  std::vector<sim::SimSsd*> NodeDevices(uint32_t node_id);
  // A fresh device for slot `ssd` of `node_id`, with its fault state;
  // `salt` is 0 for the original device and distinct for a replacement.
  std::unique_ptr<sim::SimSsd> MakeSsd(uint32_t node_id, uint32_t ssd,
                                       uint64_t salt);

  std::unique_ptr<obs::Registry> owned_registry_;  // outlives every handle
  ClusterConfig config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::unique_ptr<cluster::ControlPlane> cp_;
  std::unique_ptr<check::HistoryLog> history_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::map<uint32_t, sim::EndpointId> node_endpoints_;
  // Per-node simulated SSDs for the kLeed stack ([node][ssd]); crash-
  // restart hands the same devices to the replacement node.
  std::vector<std::vector<std::unique_ptr<sim::SimSsd>>> node_ssds_;
  // Crashed Node objects are kept (inert) rather than destroyed: in-flight
  // simulator callbacks may still reference them.
  std::vector<std::unique_ptr<Node>> graveyard_;
  // Dead devices replaced by ReplaceSsd, kept for the same reason.
  std::vector<std::unique_ptr<sim::SimSsd>> ssd_graveyard_;
};

}  // namespace leed
