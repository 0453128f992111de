// Nemesis seed-sweep harness: drives a full ClusterSim under a fault plan
// plus scripted membership churn, captures the client-visible history, and
// runs the linearizability checker on every seed (docs/CHECKING.md).
//
// This is the consistency oracle built on PR 3's fault injection: the same
// plans that only proved durability (acked => durable) now also prove
// ordering. leedsim --check=linearizability and the checker self-tests
// both run through this entry point so the CI gate and the unit tests
// exercise the identical pipeline.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/availability.h"
#include "check/linearize.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/fault.h"

namespace leed::check {

// A fault plan plus scripted join/leave churn (churn is not expressible in
// the dev:/net:/part:/crash: grammar — it needs ClusterSim membership
// calls).
struct NemesisPlan {
  std::string name;      // "crash", "partition", "churn", "ssdkill", "custom"
  sim::FaultPlan faults;  // armed relative to measurement start
  SimTime join_at = -1;   // >= 0: JoinNode() at this offset
  SimTime leave_at = -1;  // >= 0: LeaveNode(leave_node) at this offset
  uint32_t leave_node = 1;
  // SSD-death churn (ssdkill, docs/FAULTS.md): KillSsd(kill_node, kill_ssd)
  // at kill_ssd_at; optionally CrashNode(kill_node) at crash_at; then
  // ReplaceSsd + RestartNode at replace_at (the operator swapping in a
  // blank device, after which the node rejoins and backfills).
  SimTime kill_ssd_at = -1;
  SimTime crash_at = -1;
  SimTime replace_at = -1;
  uint32_t kill_node = 2;
  uint32_t kill_ssd = 0;
};

// Writes each violation's minimized sub-history to
// "<stem>-<key>-<kind>.history". A later violation of the same kind on the
// same key is written to "...-<kind>-2.history", "-3", and so on, so no
// dump overwrites another. Returns the paths written, in violation order.
std::vector<std::string> WriteViolationDumps(const std::string& stem,
                                             const std::vector<Violation>& violations);

// Resolves a plan spec: one of the named plans ("crash", "partition",
// "churn", "none") or a raw fault-plan grammar string (docs/FAULTS.md).
Result<NemesisPlan> ResolveNemesisPlan(const std::string& spec);

// Names of the canned plans, in sweep order.
std::vector<std::string> NamedNemesisPlans();

struct NemesisOptions {
  uint64_t base_seed = 1;
  uint32_t seeds = 8;
  std::string plan = "partition";  // ResolveNemesisPlan spec

  // Workload shape: small hot keyspace + write-heavy mix maximizes
  // read/write races, which is what a consistency check wants.
  uint32_t num_keys = 24;
  uint32_t num_clients = 3;
  uint32_t ops_per_client = 240;
  uint32_t value_size = 64;
  uint32_t put_permille = 400;  // of the remaining, a slice is DELs
  uint32_t del_permille = 60;
  // SCANs per mille of driven ops (start key drawn from the hot keyspace,
  // up to scan_limit items). The "nk<i>" keys sort lexicographically, so
  // scans exercise real multi-key runs of the range index while racing the
  // same dirty windows as the write mix — the torn-scan trap.
  uint32_t scan_permille = 0;
  uint32_t scan_limit = 4;
  SimTime run_for = 200 * kMillisecond;  // hard deadline for the drive phase

  // Run every seed with host-bypass GET offload enabled
  // (EngineConfig::offload_enabled): index-hit reads skip the DPU CPU
  // path. The sweeps must stay linearizable — dirty/filling/shipped reads
  // always fall back to the slow path.
  bool offload = false;

  // TEST-ONLY mutation switch: serve possibly-dirty reads from mid-chain
  // replicas (disables CRRS dirty-bit shipping). The sweep must then
  // report violations — this is the end-to-end self-test of the pipeline.
  bool unsafe_dirty_reads = false;

  // TEST-ONLY mutation switch (NodeConfig::test_only_serve_torn_scans):
  // serve SCANs from mid-chain replicas without parking on dirty keys, so
  // a scan can return values the tail already superseded. With a scan mix
  // armed the sweep must report violations — the end-to-end self-test of
  // the scan-aware checker.
  bool unsafe_torn_scans = false;

  // Non-empty: violating (minimized, per-key) sub-histories plus the full
  // violating history are written here for triage.
  std::string dump_dir;
  // Non-empty: the full history of the *first* seed is always written here
  // (the replay gate diffs it across runs).
  std::string history_out;
  bool verbose = false;

  // Worker threads for the seed sweep (docs/PARALLEL_SIM.md): 0 = one per
  // host core, 1 = serial on the calling thread (the oracle the replay
  // gate compares against). Seeds are independent simulations with
  // per-seed registries/rings and index-addressed results, so every jobs
  // value produces byte-identical histories, dumps, and aggregates.
  uint32_t jobs = 1;

  // Accept seeds whose recovery abandoned copies (copies_abandoned > 0 —
  // an arc with no surviving source, i.e. real data loss). Off by default:
  // callers treat data-loss seeds as failures unless the plan is expected
  // to destroy every replica (it never should at replication_factor 3).
  bool allow_data_loss = false;
};

struct SeedResult {
  uint64_t seed = 0;
  Verdict verdict = Verdict::kLinearizable;
  uint64_t ops = 0;           // recorded history length
  uint64_t completed = 0;     // ops with a determinate outcome
  uint64_t steps = 0;         // checker steps spent
  // Control-plane data-loss count at run end (cluster.copies_abandoned).
  uint64_t copies_abandoned = 0;
  // Client-side availability over the nemesis window (phase-2 start to
  // drain end), extracted from the same history the checker reads.
  AvailabilityReport availability;
  std::vector<Violation> violations;
  std::vector<std::string> dump_paths;
};

struct NemesisResult {
  std::vector<SeedResult> seeds;
  uint32_t violating_seeds = 0;
  uint32_t inconclusive_seeds = 0;
  // Seeds with copies_abandoned > 0; gates nonzero exit in leedsim unless
  // NemesisOptions::allow_data_loss.
  uint32_t data_loss_seeds = 0;

  bool AllLinearizable() const {
    return violating_seeds == 0 && inconclusive_seeds == 0;
  }
};

// Runs `options.seeds` independent simulations (seed = base_seed + i) and
// checks each captured history. Deterministic: the same options produce
// byte-identical histories and dumps.
NemesisResult RunNemesisSweep(const NemesisOptions& options);

}  // namespace leed::check
