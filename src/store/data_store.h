// The LEED data store (paper §3.2, §3.3): one instance per (virtual) node /
// SSD partition.
//
// Execution model mirrors the prototype's event-based asynchronous
// framework: every GET/PUT/DEL is a state machine that charges CPU cycles
// on its owning core (the core statically mapped to its SSD, §3.4) and
// issues asynchronous IOs against the circular key/value logs; nothing ever
// blocks or busy-polls. NVMe access counts per op are the paper's 2/3/2
// (GET/PUT/DEL) in the common case.
//
// Concurrency: the single lock bit per segment (SegTbl) serializes writers
// (PUT/DEL/COPY/value-log compaction) per segment; GETs never take the
// lock — log immutability protects them — and transparently retry from the
// SegTbl lookup if a compaction reclaimed the region under their feet
// (bounded retries; the re-lookup sees the relocated offsets).
//
// Data swapping (§3.6): SetSwapTarget(ssd) redirects new PUT appends (both
// the head bucket and the value) to a donor SSD's log pair; every item and
// SegTbl entry carries the SSD identifier, so GETs follow naturally, and
// the home compaction merges swapped segments back.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/shared_bytes.h"
#include "common/status.h"
#include "log/circular_log.h"
#include "obs/metrics.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "store/format.h"
#include "store/range_index.h"
#include "store/segment_table.h"

namespace leed::store {

// Cycle costs on the reference core (ARM A72 @3 GHz); divided by the
// platform ipc_factor. Calibration constants — see DESIGN.md §4.
struct CpuCosts {
  uint64_t op_dispatch = 900;          // parse request, hash, SegTbl probe
  uint64_t bucket_parse_per_item = 12; // chain search per item scanned
  uint64_t bucket_build = 1100;        // upsert + serialize updated bucket
  uint64_t value_build_per_kib = 700;  // copy/format value payload
  uint64_t op_complete = 600;          // response formatting / bookkeeping
  uint64_t compaction_per_item = 70;   // dedupe/copy per live item
  uint64_t compaction_setup = 2500;    // per sub-compaction dispatch
  uint64_t scan_index_per_item = 40;   // range-index walk, per snapshotted key
};

class Compactor;  // store/compaction.h

// Caps how many compaction runs may execute concurrently across the stores
// sharing it (the inter-parallelism knob of Fig. 13b). A freed slot goes
// first to the stores it refused, oldest refusal first, so a store whose
// log stays above threshold cannot keep the slot to itself.
struct CompactionGate {
  uint32_t max = 0;
  uint32_t active = 0;
  std::deque<Compactor*> refused;
};

struct StoreConfig {
  uint32_t store_id = 0;
  uint8_t home_ssd = 0;
  uint32_t num_segments = 4096;
  uint32_t bucket_size = 4096;
  uint32_t chain_bits = 4;             // K: max chain length 2^K - 1
  double compaction_threshold = 0.70;  // trigger on used fraction
  uint64_t compaction_chunk = 256 * 1024;  // bytes of log head per run
  uint32_t subcompactions = 8;         // S-way intra-parallelism (Fig 13a)
  bool prefetch = true;                // prefetch run N+1's chunk during N
  CpuCosts costs;
  double ipc_factor = 1.0;
  // Optional shared limit on co-scheduled compactions (Fig. 13b).
  std::shared_ptr<CompactionGate> compaction_gate;

  // Observability: instruments register as "<metrics_prefix>.<field>" in
  // `metrics_registry` (null: a registry of the store's own). An empty
  // prefix defaults to "store<store_id>"; the IoEngine scopes its stores
  // as "<engine_prefix>.store<id>".
  obs::Registry* metrics_registry = nullptr;
  std::string metrics_prefix;
};

// A key/value circular-log pair living on one SSD.
struct LogSet {
  uint8_t ssd_id = 0;
  log::CircularLog* key_log = nullptr;
  log::CircularLog* value_log = nullptr;
};

// A store's counts. The registry owns the struct and publishes every field
// as "<metrics_prefix>.<field>" (data_store.cc's table).
struct StoreStats {
  uint64_t gets = 0, puts = 0, dels = 0;
  uint64_t get_not_found = 0;
  uint64_t ssd_reads = 0, ssd_writes = 0;
  uint64_t get_chain_extra_reads = 0;  // chain walks beyond the head bucket
  uint64_t get_retries = 0;            // compaction-induced re-lookups
  uint64_t key_compactions = 0, value_compactions = 0;
  uint64_t segments_collapsed = 0;
  uint64_t items_live_moved = 0, items_dropped = 0;
  uint64_t swap_puts = 0;              // PUTs redirected to a donor SSD
  uint64_t prefetch_hits = 0, prefetch_misses = 0;
  uint64_t lock_waits = 0;
  uint64_t puts_failed_full = 0;
  uint64_t fast_gets = 0;        // GETs entered via the offload fast path
  uint64_t fast_get_aborts = 0;  // fast-path GETs demoted to the CPU path
  uint64_t scans = 0;            // scan fetch phases executed
  uint64_t scan_items = 0;       // value entries returned by scans
  uint64_t scan_stale_locs = 0;  // snapshot entries invalidated under fetch
};

class DataStore {
 public:
  using GetCallback = std::function<void(Status, std::vector<uint8_t>)>;
  using OpCallback = std::function<void(Status)>;
  // CopyOut sink: called once per live item, then the done callback.
  using ItemSink = std::function<void(std::string key, std::vector<uint8_t> value)>;

  // Bound on a GET's restarts after compaction moved what it was reading.
  static constexpr uint32_t kMaxGetRetries = 4;
  // SCAN fetch pacing: after fetching this many values a scan yields to
  // the event loop, so long scans interleave with point ops
  // deterministically (as CopyOut yields per segment). It also caps the
  // values one read fetches.
  static constexpr uint32_t kScanStepItems = 8;
  // Fixed latency of the host-bypass offload engine (Scalio-style): the NIC
  // hardware path that resolves an index-hit GET without touching a DPU
  // core. Charged as wall-clock delay, not CPU cycles. See DESIGN.md §10.
  static constexpr SimTime kOffloadEngineNs = 900;

  DataStore(sim::Simulator& simulator, sim::CpuCore& core, LogSet home,
            StoreConfig config);
  ~DataStore();

  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  // Register a donor SSD's log pair (required before SetSwapTarget(ssd)).
  void AddLogSet(LogSet set);

  // Redirect subsequent PUT appends to the donor SSD (nullopt = home).
  void SetSwapTarget(std::optional<uint8_t> ssd_id);
  std::optional<uint8_t> swap_target() const { return swap_target_; }

  void Get(std::string key, GetCallback callback);

  // Host-bypass fast path (Scalio-style offload). FastGetEligible reports
  // whether the in-DRAM index resolves `key` without a second consultation
  // (single-bucket chain); FastGet then runs the GET charging no CPU
  // cycles — only the fixed kOffloadEngineNs plus device time. A
  // compaction-induced retry demotes the op back to the charged CPU path.
  bool FastGetEligible(std::string_view key) const;
  void FastGet(std::string key, GetCallback callback);
  // The value is shared, not copied: the value-log append hands the same
  // buffer to the device.
  void Put(std::string key, SharedBytes value, OpCallback callback);
  void Del(std::string key, OpCallback callback);

  // Stream all live items whose key satisfies `want` (used by COPY, §3.8).
  // Locks one segment at a time; mutually exclusive with PUT/DEL on that
  // segment, as the paper requires.
  void CopyOut(std::function<bool(std::string_view)> want, ItemSink sink,
               OpCallback done);

  // --- SCAN (ordered view; DESIGN.md §11) ---
  using ScanCallback = std::function<void(Status, std::vector<ScanItem>)>;

  // Phase 1: atomically snapshot up to `limit` ordered (key, location)
  // pairs with key >= start from the DRAM range index. Synchronous — one
  // simulator event — so the snapshot is consistent with respect to every
  // committed PUT/DEL. The caller charges scan_index_per_item cycles.
  std::vector<ScanLoc> ScanKeys(std::string_view start, uint32_t limit) const;

  // Phase 2: fetch the snapshot's value-log entries, yielding every
  // kScanStepItems entries. Entries that lie back to back in one log (each
  // starting where the previous one ends, as a run of PUTs or a compaction
  // leaves them) are fetched as one run by one read, never past the
  // step's remaining budget; every other entry is its own read. Locations
  // are immutable log offsets; if compaction reclaimed one under the
  // snapshot (read rejected, or an entry's key echo mismatches), the fetch
  // fails with kBusy and the caller re-snapshots (node.cc HandleScan, which
  // runs its CRRS dirty-window check between the phases).
  void ScanFetch(std::vector<ScanLoc> snapshot, ScanCallback callback);

  const RangeIndex& range_index() const { return range_index_; }

  // Rebuild a range index from a full bucket scan of the current SegTbl:
  // per segment, read the chain, merge newest-first, drop tombstones, and
  // insert every live item's location. Writes into `out`, or into this
  // store's own index (after clearing it) when out == nullptr — the
  // recovery path. Locks one segment at a time, like CopyOut.
  void RebuildRangeIndex(RangeIndex* out,
                         std::function<void(Status, uint64_t live_items)> done);

  // Kick compaction if a log crossed its threshold and none is running.
  void MaybeCompact();
  bool compaction_running() const;
  // Force a compaction pass (benches; Fig 13).
  void ForceKeyCompaction(OpCallback done);
  void ForceValueCompaction(OpCallback done);

  const StoreStats& stats() const { return *stats_; }
  const StoreConfig& config() const { return config_; }
  const SegmentTable& segments() const { return segtbl_; }
  SegmentTable& segments() { return segtbl_; }
  const LogSet& home() const { return home_; }
  const LogSet& log_set(uint8_t ssd_id) const { return log_sets_.at(ssd_id); }
  bool HasLogSet(uint8_t ssd_id) const { return log_sets_.contains(ssd_id); }

  // Number of segments whose chain head currently lives off-home.
  size_t swapped_segments() const { return swapped_segments_.size(); }

  uint32_t SegmentOf(std::string_view key) const {
    return static_cast<uint32_t>(HashKey(key, 0x5e91e57 + config_.store_id) %
                                 config_.num_segments);
  }

  sim::Simulator& simulator() { return sim_; }
  sim::CpuCore& core() { return core_; }

 private:
  friend class Compactor;

  uint64_t Cycles(uint64_t c) const {
    double scaled = static_cast<double>(c) / config_.ipc_factor;
    return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
  }

  const LogSet& TargetLogs() const;

  // --- GET machine ---
  struct GetOp;
  void GetLookup(std::shared_ptr<GetOp> op);
  void GetReadBucket(std::shared_ptr<GetOp> op, uint8_t ssd, uint64_t offset,
                     uint8_t remaining_chain);
  void GetSearch(std::shared_ptr<GetOp> op, const BucketHeader& header,
                 std::optional<KeyItem> hit, uint8_t remaining_chain);
  void GetReadRest(std::shared_ptr<GetOp> op, uint8_t ssd, uint64_t offset,
                   uint8_t count);
  // The key's newest item was found: a tombstone is NotFound, anything
  // else reads the value entry.
  void GetFound(std::shared_ptr<GetOp> op, const KeyItem& item);
  void GetRetry(std::shared_ptr<GetOp> op);
  void GetFinish(std::shared_ptr<GetOp> op, Status status,
                 std::vector<uint8_t> value);
  // Charges `cycles` on the core for CPU-path GETs; offloaded GETs skip the
  // charge (the offload engine does the work in its fixed-cost envelope).
  void RunGetWork(const std::shared_ptr<GetOp>& op, uint64_t cycles,
                  std::function<void()> fn);

  // --- PUT/DEL machine (shared; DEL is a PUT of a tombstone) ---
  struct PutOp;
  void PutAcquire(std::shared_ptr<PutOp> op);
  // Called with the segment locked: true when the op unlocked it and
  // parked on parked_puts_ until a compaction run frees home-log space.
  bool ParkForCompaction(const std::shared_ptr<PutOp>& op);
  void PutReadHead(std::shared_ptr<PutOp> op);
  void PutApply(std::shared_ptr<PutOp> op);
  void PutCommit(std::shared_ptr<PutOp> op);
  void PutFinish(std::shared_ptr<PutOp> op, Status status);
  // Re-run parked PUT/DELs through the lock path. A compaction run calls it
  // as it ends, when it advanced a log head or no run is left that could.
  // Without an advance (`may_park` false) the ops do not park again: each
  // goes on and fails OutOfSpace if its append does not fit.
  void ResumeParkedPuts(bool may_park);

  // --- live-segment walk (COPY, range-index rebuild) ---
  // Visits every non-empty segment in id order: takes its lock, reads its
  // chain, merges it newest-wins into walk->live, and calls the visitor
  // with the segment still locked. The visitor ends with WalkNext, which
  // unlocks the segment and yields to the event loop before the next one.
  // A failed chain read unlocks the segment and ends the walk with its
  // status.
  struct SegmentWalk;
  using SegmentVisitor = std::function<void(std::shared_ptr<SegmentWalk>)>;
  void WalkLiveSegments(OpCallback done, SegmentVisitor visit);
  void WalkStep(std::shared_ptr<SegmentWalk> walk);
  void WalkNext(std::shared_ptr<SegmentWalk> walk);

  // --- COPY machine ---
  struct CopyOp;
  void CopyEmitValues(std::shared_ptr<SegmentWalk> walk,
                      std::shared_ptr<CopyOp> copy, size_t index);

  // --- SCAN machine ---
  struct ScanOp;
  void ScanFetchStep(std::shared_ptr<ScanOp> op);
  void ScanFinish(std::shared_ptr<ScanOp> op, Status status);

  // Compaction/swap repair: repoint the index entry for `key` from the old
  // value location to the new one (no-op if a newer PUT superseded it).
  void RepairIndexLocation(std::string_view key, const RangeIndex::ValueLoc& from,
                           const RangeIndex::ValueLoc& to);

  // A segment's chain as read from the key log, newest bucket first. The
  // views point into `buffers`, which the chain keeps alive (moving it
  // keeps them valid).
  struct Chain {
    std::vector<std::vector<uint8_t>> buffers;
    std::vector<BucketView> buckets;

    uint64_t item_count() const {
      uint64_t n = 0;
      for (const BucketView& b : buckets) n += b.item_count();
      return n;
    }
  };

  // Chain read helper shared with the compactor: reads and verifies the
  // full chain of a segment. Must be called with seg locked or from a
  // context that tolerates relocation retries.
  void ReadChain(uint32_t segment_id, uint8_t ssd, uint64_t offset,
                 uint8_t chain_len, std::function<void(Status, Chain)> cb);

  void UnlockAndPump(uint32_t segment_id);

  sim::Simulator& sim_;
  sim::CpuCore& core_;
  StoreConfig config_;
  LogSet home_;
  std::map<uint8_t, LogSet> log_sets_;
  std::optional<uint8_t> swap_target_;
  SegmentTable segtbl_;
  obs::Scope scope_;
  StoreStats* stats_;  // registry-owned
  std::set<uint32_t> swapped_segments_;
  // PUT/DELs waiting, unlocked, for compaction to free home-log space.
  std::deque<std::shared_ptr<PutOp>> parked_puts_;
  RangeIndex range_index_;
  std::unique_ptr<Compactor> compactor_;
};

}  // namespace leed::store
