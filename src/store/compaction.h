// Compaction for the LEED data store (paper §3.3.1).
//
// Key-log compaction processes a chunk at the log head: every segment with
// a bucket in the chunk is *collapsed* — its whole chain is read, items are
// merged newest-wins, tombstones and shadowed versions dropped, and the
// segment is rewritten at the tail as one contiguous bucket array (a single
// sequential append). Once every segment touched by the chunk has been
// collapsed, nothing live remains there and the head advances.
//
// Value-log compaction walks the value entries in the head chunk, groups
// them by owning segment, locks each segment, verifies liveness
// (item.value_offset points back at the entry), re-appends the surviving
// values in one batch, updates the items, rewrites the segment, and
// advances the head. Old values stay readable until the head moves — the
// property §3.3.1 relies on ("our log structure ensures that the old value
// is still valid before committing").
//
// Both runs support the paper's two optimizations:
//   * prefetching: run N issues the read for run N+1's chunk in the
//     background, so the next run starts from DRAM (Fig. 13a setup);
//   * S-way sub-compactions: the chunk's segments are partitioned into S
//     groups processed concurrently, overlapping their IOs (Fig. 13a).
//
// Key compaction also merges back segments that data swapping (§3.6)
// parked on donor SSDs, relocating their buckets *and values* home.

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
  explicit Compactor(DataStore& store) : s_(store) {}

  // Start a run if a log crossed its threshold or swapped segments piled
  // up. Returns true if anything started.
  bool MaybeStart();

  bool running() const { return key_running_ || value_running_; }
  bool key_running() const { return key_running_; }
  bool value_running() const { return value_running_; }

  void StartKey(DataStore::OpCallback done);
  void StartValue(DataStore::OpCallback done);

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

  struct KeyRun;
  struct ValueRun;

  // How a run ended: aborted before its join (a failed read, nothing to
  // parse), joined with the head where it was, or joined and advanced it.
  enum class RunEnd { kAborted, kJoined, kAdvanced };
  // Every run ends here: clear its flag, free its gate slot, report
  // `status`, keep draining after a join, and resume parked writes when
  // the head advanced or no run is left that could advance it.
  void EndRun(bool& running_flag, DataStore::OpCallback& done, Status status,
              RunEnd end);

  // A segment's newest-wins survivors; `chain` backs their keys.
  struct Merged {
    explicit Merged(DataStore::Chain read)
        : chain(std::move(read)), items(MergeNewestWins(chain.buckets)) {}

    DataStore::Chain chain;
    std::vector<KeyItemView> items;
  };

  void KeyRunWithRegion(std::shared_ptr<KeyRun> run, std::vector<uint8_t> region);
  void KeyRunGroup(std::shared_ptr<KeyRun> run, size_t group);
  void KeyRunJoin(std::shared_ptr<KeyRun> run);

  void ValueRunWithRegion(std::shared_ptr<ValueRun> run, std::vector<uint8_t> region);
  void ValueRunGroup(std::shared_ptr<ValueRun> run, size_t group);
  void ValueRunJoin(std::shared_ptr<ValueRun> run);

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

  void IssueKeyPrefetch();
  void IssueValuePrefetch();

  DataStore& s_;
  bool key_running_ = false;
  bool value_running_ = false;
  Prefetch key_prefetch_;
  Prefetch value_prefetch_;
};

}  // namespace leed::store
