// Intra-JBOF I/O execution engine (paper §3.4) + data swapping (§3.6).
//
// One IoEngine drives the storage side of a SmartNIC JBOF:
//   * static core<->device mapping: the data store of SSD i runs on core i
//     (no dispatcher core — LEED takes the load-agnostic pipeline and adds
//     admission control rather than burning a core on load-aware dispatch);
//   * per-SSD active queue (in-flight commands holding tokens) and a
//     shallow bounded waiting queue, FCFS;
//   * token admission: a command executes only when the SSD's token pool —
//     continuously rescaled from measured per-IO latency — covers its cost;
//     a full waiting queue rejects with kOverloaded, which the inter-JBOF
//     flow control turns into client-side throttling;
//   * data swapping: a periodic watchdog compares waiting-queue occupancy
//     across the JBOF's SSDs and temporarily redirects overloaded PUT
//     traffic to the most-available donor SSD's swap region; the region is
//     wholesale-reclaimed once compaction has merged everything home.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "engine/storage_service.h"
#include "engine/token_bucket.h"
#include "sim/cpu_model.h"
#include "sim/platform.h"
#include "sim/simulator.h"
#include "sim/ssd_model.h"
#include "store/data_store.h"
#include "store/recovery.h"

namespace leed::engine {

// Store-core cycles an offloaded GET burns when the index needs a second
// consultation and the offload engine punts to the CPU path: one
// DRAM-resident SegTbl probe (DESIGN.md §10).
inline constexpr uint64_t kOffloadIndexConsultCycles = 300;

struct EngineConfig {
  uint32_t ssd_count = 4;
  uint32_t stores_per_ssd = 4;
  sim::SsdSpec ssd;
  store::StoreConfig store_template;
  TokenConfig tokens;
  size_t wait_queue_capacity = 256;

  // Partition geometry: each store gets partition_bytes of its SSD, split
  // key/value log by key_log_fraction; swap_fraction of each SSD is the
  // shared swap region. If partition_bytes is 0 the engine divides the
  // whole non-swap capacity evenly.
  uint64_t partition_bytes = 0;
  double key_log_fraction = 0.5;
  double swap_fraction = 0.10;

  // Data swapping (§3.6).
  bool enable_data_swap = true;
  SimTime swap_check_period = 500 * kMicrosecond;
  size_t swap_gap_threshold = 24;  // waiting-queue occupancy gap

  // Host-bypass GET offload (Scalio-style; ROADMAP ablation): index-hit GETs
  // are served by the NIC offload engine via TrySubmitOffload, charging no
  // DPU CPU cycles. Index misses fall back to the CPU path after a fixed
  // index-consultation charge on the owning store core.
  bool offload_enabled = false;

  // Weighted token allocation across co-located tenants (§3.5). Empty =>
  // every tenant is advertised the full pool (single-tenant deployments).
  // tenant_weights[t] is tenant t's share weight; tenants beyond the
  // vector get weight 1.
  std::vector<double> tenant_weights;

  // Cap on co-scheduled compaction runs across this JBOF's stores
  // (Fig. 13b's inter-parallelism knob). 0 = unlimited.
  uint32_t max_concurrent_compactions = 0;

  // Fired exactly once per SSD, from the completion path, when the health
  // latch trips (IoEngine::kSsdFailThreshold). The owning node reports the
  // failure to the control plane.
  std::function<void(uint32_t ssd)> on_ssd_failed;

  // Devices supplied by the caller instead of engine-owned ones; must be
  // empty or exactly ssd_count entries. ClusterSim uses this so simulated
  // SSD contents outlive the engine across a node crash-restart.
  std::vector<sim::SimSsd*> external_ssds;

  // Durability checkpoint period: every period the engine snapshots each
  // store's log pointers and rewrites that store's superblock (A/B slots
  // at the base of its partition). 0 disables checkpointing; recovery then
  // scans from zeroed pointers.
  SimTime checkpoint_period = 100 * kMillisecond;

  // Observability: the engine registers its instruments as
  // "<metrics_prefix>.*", its SSDs as "<metrics_prefix>.ssd<i>.*", and its
  // stores as "<metrics_prefix>.store<id>.*" in `metrics_registry`
  // (null: a registry of the engine's own). Trace events go to `trace`
  // (default: the process-wide ring) tagged with `node_id`.
  obs::Registry* metrics_registry = nullptr;
  std::string metrics_prefix = "engine";
  obs::TraceRing* trace = nullptr;
  uint32_t node_id = obs::TraceEvent::kNoNode;
};

// The engine's counts and latency histograms. The registry owns the struct
// and publishes every field under the engine's prefix (io_engine.cc's
// table).
struct EngineStats {
  uint64_t submitted = 0;
  uint64_t executed = 0;
  uint64_t completed = 0;
  uint64_t rejected_overloaded = 0;
  uint64_t waited = 0;            // requests that sat in a waiting queue
  uint64_t swap_activations = 0;  // times a store was pointed at a donor
  uint64_t swap_reclaims = 0;     // swap regions wholesale-reset
  uint64_t offload_fast_hits = 0;       // GETs served by the offload engine
  uint64_t offload_slow_fallbacks = 0;  // offload punts to the CPU path
  Histogram queue_us;             // waiting-queue residence
  Histogram service_us;           // store execution time
  Histogram total_us;             // submit -> completion on this node
};

class IoEngine : public StorageService {
 public:
  // Uses cores [0, ssd_count) of `cpu` for the per-SSD data stores.
  IoEngine(sim::Simulator& simulator, sim::CpuModel& cpu, EngineConfig config,
           uint64_t seed);
  ~IoEngine() override;

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Submit a request. Completion (or an immediate kOverloaded rejection)
  // arrives through req.callback.
  void Submit(Request req) override;

  // Host-bypass fast path: serve `req` (a GET) through the offload engine,
  // bypassing tokens, queues and the store cores. Returns false — leaving
  // `req` intact for a regular Submit — when offload is disabled, the op is
  // not a GET, the SSD is dead, or the index needs a second consultation
  // (that punt charges kOffloadIndexConsultCycles on the store core).
  bool TrySubmitOffload(Request& req);

  uint32_t num_stores() const override {
    return static_cast<uint32_t>(stores_.size());
  }
  // SCAN: LEED stores carry a DRAM range index, so the engine supports
  // ordered snapshots (one synchronous event).
  bool SupportsScan() const override { return true; }
  std::vector<store::ScanLoc> ScanSnapshot(uint32_t store_id,
                                           std::string_view start,
                                           uint32_t limit) override {
    return stores_[store_id]->ScanKeys(start, limit);
  }
  uint32_t ssd_of_store(uint32_t store_id) const override {
    return store_id / config_.stores_per_ssd;
  }
  store::DataStore& data_store(uint32_t store_id) { return *stores_[store_id]; }
  sim::SimSsd& ssd(uint32_t i) { return *ssd_ptrs_[i]; }
  uint32_t ssd_count() const { return config_.ssd_count; }

  // Stop all periodic activity (swap watchdog, checkpoint timer). Called
  // when the owning node crashes: a dead node must not keep scheduling
  // simulator events.
  void Quiesce();

  // Rebuild every store from device contents: read each store's
  // superblock, restore log pointers (shared swap logs from the newest
  // checkpoint that names them), then scan each key log — beyond the
  // checkpointed tail — to re-adopt acknowledged appends. Call once, on a
  // freshly-constructed engine whose external_ssds hold pre-crash
  // contents. Asynchronous; `done` gets the summed per-store stats.
  void RecoverFromDevices(std::function<void(Status, store::RecoveryStats)> done);

  uint64_t checkpoint_seq() const { return checkpoint_seq_; }

  // Per-SSD health latch: this many consecutive hard IO errors (IoError
  // completions with no intervening success) mark the SSD permanently
  // failed — the engine fires on_ssd_failed once and the node stops
  // routing that SSD's stores.
  static constexpr uint32_t kSsdFailThreshold = 8;
  // Health: true once `ssd` has latched failed. Latched state never
  // clears — a dead SSD is replaced by restarting the node with a blank
  // device.
  bool SsdFailed(uint32_t ssd) const { return per_ssd_[ssd]->failed; }
  uint32_t FailedSsdCount() const;

  // Flow-control signals.
  uint32_t AvailableTokens(uint32_t ssd) const override {
    return per_ssd_[ssd]->tokens.available();
  }
  // The share of `ssd`'s available tokens advertised to `tenant` under the
  // configured weights.
  uint32_t AvailableTokensFor(uint32_t ssd, uint32_t tenant) const;
  size_t WaitQueueDepth(uint32_t ssd) const { return per_ssd_[ssd]->waiting.size(); }
  size_t ActiveCount(uint32_t ssd) const { return per_ssd_[ssd]->active; }

  const EngineStats& stats() const { return *stats_; }
  const EngineConfig& config() const { return config_; }

  // Enable/disable the token-based admission (the "load-aware scheduling"
  // knob of Fig. 8; disabled = pure FCFS fire-and-forget).
  void set_admission_control(bool on) { admission_control_ = on; }
  bool admission_control() const { return admission_control_; }

  void set_data_swap_enabled(bool on);

  // The donor a store is currently swapping to (tests / Fig. 10).
  std::optional<uint8_t> SwapTargetOf(uint32_t store_id) const {
    return stores_[store_id]->swap_target();
  }

 private:
  struct PerSsd {
    explicit PerSsd(const EngineConfig& cfg) : tokens(cfg.tokens) {}
    TokenPool tokens;
    std::deque<Request> waiting;  // FCFS, at most wait_queue_capacity
    size_t active = 0;
    size_t waiting_writes = 0;  // queued PUT/DELETEs — the swappable share
    uint32_t consecutive_io_errors = 0;
    bool failed = false;  // latched: kSsdFailThreshold errors in a row
  };

  struct RecoverRun;

  void Execute(uint32_t ssd, Request req);
  // Retires an executed command (CPU path, scan or offload fast path):
  // counts it, samples its service time since `started` and its total
  // time since enqueue, ends its trace span, refunds its tokens, answers
  // it and admits waiters the refund now covers.
  void Retire(uint32_t ssd, uint32_t cost, SimTime started, Request& req,
              Status status, std::vector<uint8_t> value,
              std::vector<store::ScanItem> items);
  // Per-SSD health latch, fed raw device completion statuses through the
  // BlockDevice io observer (KV-level statuses wrap device errors into
  // corruption/internal codes, so Retire cannot see them).
  void OnRawIo(uint32_t ssd, bool ok, SimTime device_latency_ns);
  void PumpWaiting(uint32_t ssd);
  void SwapCheck();
  void WriteCheckpoints();
  void ReadNextSuperblock(std::shared_ptr<RecoverRun> run);
  void RestoreLogs(std::shared_ptr<RecoverRun> run);
  void RecoverNextStore(std::shared_ptr<RecoverRun> run);

  sim::Simulator& sim_;
  sim::CpuModel& cpu_;
  EngineConfig config_;
  obs::Scope scope_;
  obs::TraceRing* trace_;
  EngineStats* stats_;  // registry-owned
  obs::Counter* ssd_failures_;
  uint64_t next_op_seq_ = 1;  // trace correlation ids
  bool admission_control_ = true;

  std::vector<std::unique_ptr<sim::SimSsd>> ssds_;  // owned (external_ssds empty)
  std::vector<sim::SimSsd*> ssd_ptrs_;              // owned or external, always set
  std::vector<uint64_t> sb_offsets_;                // per store, on its home SSD
  uint64_t checkpoint_seq_ = 0;
  // Per-SSD swap region logs (index = donor SSD).
  std::vector<std::unique_ptr<log::CircularLog>> swap_key_logs_;
  std::vector<std::unique_ptr<log::CircularLog>> swap_value_logs_;
  // Per-store home logs, ordered [ssd][slot].
  std::vector<std::unique_ptr<log::CircularLog>> home_logs_;
  std::vector<std::unique_ptr<store::DataStore>> stores_;
  std::vector<std::unique_ptr<PerSsd>> per_ssd_;
  std::unique_ptr<sim::PeriodicTimer> swap_timer_;
  std::unique_ptr<sim::PeriodicTimer> checkpoint_timer_;
};

}  // namespace leed::engine
