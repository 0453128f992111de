// Compaction for the LEED data store (paper §3.3.1).
//
// One run serves both logs: read the chunk at the log head (or take it from
// the prefetch), split it into per-segment units, partition the units S
// ways, relocate what is live, and advance the head once every unit has
// relocated. The two logs differ only in how the chunk becomes units and in
// what one unit does:
//   * key log: every segment with a bucket in the chunk, plus segments that
//     data swapping (§3.6) parked on donor SSDs, is *collapsed* — its whole
//     chain is read, items are merged newest-wins, tombstones and shadowed
//     versions dropped, and the segment is rewritten at the tail as one
//     contiguous bucket array. Swapped segments bring their values home
//     too;
//   * value log: the chunk's entries are grouped by owning segment; a unit
//     locks its segment, keeps the entries an item still points at
//     (item.value_offset == the entry), re-appends them in one batch,
//     updates the items and rewrites the segment. Old values stay readable
//     until the head moves — the property §3.3.1 relies on ("our log
//     structure ensures that the old value is still valid before
//     committing").
//
// Both use the paper's two optimizations:
//   * prefetching: run N issues the read for run N+1's chunk in the
//     background, so the next run starts from DRAM (Fig. 13a setup);
//   * S-way sub-compactions: the units are partitioned into S groups
//     processed concurrently, overlapping their IOs (Fig. 13a).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "store/data_store.h"

namespace leed::store {

class Compactor {
 public:
  enum class Log { kKey, kValue };

  explicit Compactor(DataStore& store) : s_(store) {}
  ~Compactor();

  // Start a run on each log that crossed its threshold (the key log also
  // when swapped segments piled up) and has none running.
  void MaybeStart();

  bool running() const { return key_.running || value_.running; }

  // Run one pass over `log`'s head chunk; Busy if one is already running
  // or the compaction gate is full.
  void Start(Log log, DataStore::OpCallback done);

  // How many swapped segments one key run merges back at most.
  static constexpr size_t kSwapMergePerRun = 32;
  // A value run reads this much past its chunk so the entry straddling the
  // chunk boundary parses whole.
  static constexpr uint64_t kValueReadSlack = 64 * 1024;

 private:
  struct Prefetch {
    bool valid = false;
    uint64_t offset = 0;
    std::vector<uint8_t> data;
  };
  struct LogState {
    bool running = false;
    Prefetch prefetch;
  };

  // One segment's work in a run; a value unit also names its entries,
  // run->entries[begin, end).
  struct Unit {
    uint32_t segment;
    size_t begin = 0, end = 0;
  };
  struct Run;

  // Every run ends here: clear its flag, free its gate slot, report
  // `status`, keep draining when it advanced the head, and resume parked
  // writes when it did or no run is left that could.
  void EndRun(Run& run, Status status, bool advanced);
  // The shared gate (when configured): take a slot, or queue for one; give
  // one back, offering it to the queued stores first.
  bool AcquireSlot();
  void ReleaseSlot();

  // A segment's newest-wins survivors; `chain` backs their keys.
  struct Merged {
    explicit Merged(DataStore::Chain read)
        : chain(std::move(read)), items(MergeNewestWins(chain.buckets)) {}

    // An item whose value moved, and the index repointed, before the
    // segment committed: where the value was.
    struct Moved {
      size_t item;
      RangeIndex::ValueLoc from;
    };

    DataStore::Chain chain;
    std::vector<KeyItemView> items;
    std::vector<Moved> moved;
  };

  LogState& state(Log log) { return log == Log::kKey ? key_ : value_; }
  log::CircularLog& log_of(Log log) const;
  // Bytes a run (or its prefetch) reads at the head; 0 when there is
  // nothing to read.
  uint64_t ReadLength(Log log) const;

  // The run skeleton: WithRegion turns the chunk into units (KeyUnits or
  // ValueUnits) and dispatches the S groups; Group works through one
  // group; UnitEnd records a unit's outcome and takes the next; Join
  // advances the head after the last group.
  void WithRegion(std::shared_ptr<Run> run, std::vector<uint8_t> region);
  std::vector<Unit> KeyUnits(const std::vector<uint8_t>& region);
  std::vector<Unit> ValueUnits(Run& run, std::vector<uint8_t> region);
  void Group(std::shared_ptr<Run> run, size_t group);
  void UnitEnd(const std::shared_ptr<Run>& run, size_t group, bool relocated);
  void Join(std::shared_ptr<Run> run);
  void IssuePrefetch(Log log);

  // A value unit with its segment locked: liveness check, one batched
  // re-append, then WriteMergedSegment.
  void RelocateLiveValues(std::shared_ptr<Run> run, size_t group, Unit unit);

  // Collapse one segment: lock, read chain, merge, optionally relocate
  // values home (swap merge-back), rewrite as a contiguous array, unlock.
  // done(ok): ok==false means live data stayed at its old location and the
  // caller must not advance the log head over it.
  void CollapseSegment(uint32_t segment_id, bool relocate_values,
                       std::function<void(bool)> done);
  void CollapseLocked(uint32_t segment_id, bool relocate_values,
                      std::function<void(bool)> done);
  void RelocateValues(uint32_t segment_id, std::shared_ptr<Merged> merged,
                      size_t index, std::function<void()> done);
  void WriteMergedSegment(uint32_t segment_id, std::shared_ptr<Merged> merged,
                          std::function<void(bool)> done);
  // A segment that did not commit still names the moved values' old
  // copies: point the index back at them (a no-op for a key a newer PUT
  // took over). Runs before the segment unlocks.
  void RestoreIndex(const Merged& merged);

  DataStore& s_;
  LogState key_;
  LogState value_;
};

}  // namespace leed::store
