// Seed-deterministic fault injection for the simulation substrate.
//
// LEED's durability story (§3.8: chain repair, tail promotion, "an acked
// PUT survives any single crash") is only testable if the substrate can
// actually misbehave. This module centralizes every injectable fault:
//
//   * device faults (DeviceFaults): probabilistic read/write errors,
//     one-shot scripted failures at the Nth IO, latency spikes, torn
//     writes (a prefix of the data persists, then the IO errors), and a
//     crash point after which the device black-holes everything;
//   * network faults (NetFaults): probabilistic drop/duplicate/delay plus
//     directed link partitions that heal at a scripted sim time;
//   * node crash/restart bookkeeping (FaultInjector::CrashNode /
//     ReviveNode), which flips every device of a node into the crashed
//     state so in-flight and future IOs vanish exactly as power loss
//     would.
//
// Determinism: all randomness flows through leed::Rng seeded from the run
// seed, so a (seed, FaultPlan) pair replays bit-exactly — the CI replay
// gate runs fault schedules twice and diffs the artifacts. Every injected
// fault increments a counter under the "faults" scope and emits an obs
// trace event, so a failing torture run is auditable from --trace-out.
//
// FaultPlan is the scriptable façade: a small textual grammar (parsed by
// ParseFaultPlan, see docs/FAULTS.md) that leedsim accepts via
// --fault-plan= and ClusterSim arms against a running cluster.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rand.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace leed::sim {

using EndpointId = uint32_t;  // matches network.h

// ---- device faults --------------------------------------------------------

struct DeviceFaultSpec {
  double read_error_rate = 0.0;   // per-read probability of IoError
  double write_error_rate = 0.0;  // per-write probability (torn if enabled)
  uint64_t fail_read_at = 0;      // 1-based: the Nth read fails once; 0=off
  uint64_t fail_write_at = 0;     // 1-based: the Nth write fails once; 0=off
  double latency_spike_prob = 0.0;
  double latency_spike_factor = 1.0;  // service-time multiplier on a spike
  bool torn_writes = false;  // failed writes persist a random strict prefix
  uint64_t crash_at_io = 0;  // 1-based: this IO and everything after vanish
  uint64_t dead_at = 0;      // 1-based: this IO and everything after IoError
};

// What happens to one IO.
enum class IoFault : uint8_t {
  kNone = 0,   // proceed (latency_factor may still be > 1)
  kError = 1,  // complete with Status::IoError, nothing persists
  kTorn = 2,   // persist keep_bytes of the data, then Status::IoError
  kCrash = 3,  // persist keep_bytes (writes), callback never fires
};

struct FaultCounters {
  obs::Counter* dev_dead = nullptr;
  obs::Counter* dev_read_errors = nullptr;
  obs::Counter* dev_write_errors = nullptr;
  obs::Counter* dev_torn_writes = nullptr;
  obs::Counter* dev_latency_spikes = nullptr;
  obs::Counter* dev_crash_dropped = nullptr;
  obs::Counter* net_drops_injected = nullptr;
  obs::Counter* net_dups = nullptr;
  obs::Counter* net_delays = nullptr;
  obs::Counter* net_partition_drops = nullptr;
  obs::Counter* node_crashes = nullptr;
  obs::Counter* node_restarts = nullptr;
};

// Per-device fault state. Devices consult it on every Submit; a null
// pointer (the default everywhere) means no fault layer and zero cost.
class DeviceFaults {
 public:
  DeviceFaults(Simulator& sim, DeviceFaultSpec spec, uint64_t seed,
               uint32_t node, uint32_t unit, FaultCounters* counters,
               obs::TraceRing* trace);

  // Decide the fate of the next IO. For kTorn/kCrash writes, *keep_bytes
  // is set to the strict prefix of `length` that persists; for kNone,
  // *latency_factor may be raised above 1.0 (spike).
  IoFault OnIo(bool is_write, uint64_t length, double* latency_factor,
               uint64_t* keep_bytes);

  // Crash/revive the device (power loss semantics). While crashed, every
  // IO returns kCrash: nothing persists, no callback ever fires.
  void Crash() { crashed_ = true; }
  void Revive() { crashed_ = false; }
  bool crashed() const { return crashed_; }

  // Permanent device death (hardware failure semantics, distinct from
  // crash): every IO from now on completes with Status::IoError after the
  // normal service latency, so the engine above can observe the failure
  // and latch the store unavailable. There is no revive — a dead device
  // is replaced, not repaired.
  void Kill();
  bool dead() const { return dead_; }

  // Replace the spec (e.g. when a fault plan is armed against devices that
  // were registered fault-free at cluster construction).
  void set_spec(const DeviceFaultSpec& spec) { spec_ = spec; }
  const DeviceFaultSpec& spec() const { return spec_; }

  uint32_t node() const { return node_; }
  uint32_t unit() const { return unit_; }
  uint64_t ios_seen() const { return ios_; }

 private:
  Simulator& sim_;
  DeviceFaultSpec spec_;
  Rng rng_;
  uint32_t node_;
  uint32_t unit_;
  FaultCounters* counters_;
  obs::TraceRing* trace_;
  uint64_t ios_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  bool crashed_ = false;
  bool dead_ = false;
};

// ---- network faults -------------------------------------------------------

struct NetFaultSpec {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  SimTime delay_ns = 0;  // extra latency when a delay fires
};

// A directed (or bidirectional) link cut between two endpoints, active in
// [start, heal) of absolute sim time; heal == 0 means it never heals.
struct PartitionRule {
  EndpointId a = 0;
  EndpointId b = 0;
  bool bidirectional = true;
  SimTime start = 0;
  SimTime heal = 0;
};

enum class NetVerdict : uint8_t {
  kDeliver = 0,
  kDropInjected = 1,
  kDropPartition = 2,
  kDuplicate = 3,
};

class NetFaults {
 public:
  NetFaults(uint64_t seed, FaultCounters* counters);

  void set_spec(const NetFaultSpec& spec) { spec_ = spec; }
  void AddPartition(const PartitionRule& rule) { partitions_.push_back(rule); }

  // Decide the fate of one message. On kDeliver, *extra_delay may be set
  // (injected latency). Counters are bumped here; the Network emits the
  // trace event (it also traces structural drops).
  NetVerdict OnSend(EndpointId src, EndpointId dst, SimTime now,
                    SimTime* extra_delay);

 private:
  bool Partitioned(EndpointId src, EndpointId dst, SimTime now) const;

  NetFaultSpec spec_;
  Rng rng_;
  FaultCounters* counters_;
  std::vector<PartitionRule> partitions_;
};

// ---- fault plan (scriptable schedule) -------------------------------------

struct FaultPlan {
  struct DevClause {
    DeviceFaultSpec spec;
    int32_t node = -1;  // -1 = every node
    int32_t ssd = -1;   // -1 = every ssd of the selected node(s)
    SimTime dead_after = 0;  // relative to arming time; 0 = off
  };
  struct PartitionClause {
    uint32_t node_a = 0;
    uint32_t node_b = 0;
    bool bidirectional = true;
    SimTime start = 0;  // relative to arming time
    SimTime heal = 0;   // relative; 0 = never heals
  };
  struct CrashClause {
    uint32_t node = 0;
    SimTime at = 0;       // relative to arming time
    SimTime restart = 0;  // relative; 0 = stays down
  };

  std::vector<DevClause> devices;
  bool has_net = false;
  NetFaultSpec net;
  std::vector<PartitionClause> partitions;
  std::vector<CrashClause> crashes;

  bool Empty() const {
    return devices.empty() && !has_net && partitions.empty() &&
           crashes.empty();
  }
};

// Parse the --fault-plan grammar: ';'-separated clauses of kind:k=v,k=v.
//   dev:read_err=0.01,write_err=0.01,fail_read_at=5,fail_write_at=0,
//       spike_p=0.05,spike_x=8,torn=1,crash_at_io=0,dead_at=0,
//       dead_after_ms=0,node=-1,ssd=-1
//   net:drop=0.01,dup=0.001,delay_p=0.02,delay_us=500
//   part:a=0,b=1,at_ms=20,heal_ms=80,oneway=0
//   crash:node=2,at_ms=50,restart_ms=120
// See docs/FAULTS.md for the full schema.
Result<FaultPlan> ParseFaultPlan(const std::string& text);

// ---- injector (owns per-run fault state) ----------------------------------

class FaultInjector {
 public:
  // Counters register as "faults.*" in `registry` (null: a registry of
  // the injector's own); `trace` defaults to the process-wide ring. `seed`
  // drives the network-fault Rng (device Rngs get their own seeds at
  // AddDevice so they stay stable as devices come and go).
  FaultInjector(Simulator& sim, uint64_t seed,
                obs::Registry* registry = nullptr,
                obs::TraceRing* trace = nullptr);

  // Register a device's fault state; the returned pointer stays valid for
  // the injector's lifetime and is what BlockDevice::set_faults takes.
  DeviceFaults* AddDevice(const DeviceFaultSpec& spec, uint64_t seed,
                          uint32_t node, uint32_t unit);

  // Re-spec already-registered devices matching (node, unit); -1 = all.
  void SetDeviceSpec(const DeviceFaultSpec& spec, int32_t node, int32_t unit);

  // Permanently kill every registered device matching (node, unit); -1 =
  // all. Scripted-test entry for the dev:dead_at/dead_after plan faults.
  void KillDevice(int32_t node, int32_t unit);

  // Drop the fault state of the device at (node, unit) so a replacement
  // device can register fresh state under the same identity (blank-disk
  // swap after permanent death). The old DeviceFaults object stays alive
  // (in-flight IOs may still consult it) but is detached from matching.
  void RetireDevice(uint32_t node, uint32_t unit);

  NetFaults& net() { return net_; }
  FaultCounters& counters() { return counters_; }
  obs::TraceRing* trace() { return trace_; }

  // Power-loss semantics for every registered device of `node_id`;
  // emits kNodeCrash / kNodeRestart trace events and counters.
  void CrashNode(uint32_t node_id);
  void ReviveNode(uint32_t node_id);
  bool node_crashed(uint32_t node_id) const {
    return crashed_nodes_.contains(node_id);
  }

 private:
  Simulator& sim_;
  obs::Scope scope_;
  obs::TraceRing* trace_;
  FaultCounters counters_;
  NetFaults net_;
  std::vector<std::unique_ptr<DeviceFaults>> devices_;
  // Replaced devices: pointers must outlive in-flight IOs, but the state
  // no longer matches (node, unit) lookups.
  std::vector<std::unique_ptr<DeviceFaults>> retired_devices_;
  std::set<uint32_t> crashed_nodes_;
};

}  // namespace leed::sim
