// CRRS — Chain Replication with Request Shipping (paper §3.7) — replica
// state.
//
// Every data store is augmented with a hash map marking dirty keys. A
// PUT/DEL sets the dirty bit at each replica it traverses; the tail clears
// it at the commitment point and an acknowledgment flows backward clearing
// (and applying) it at each replica. A GET arriving at a replica whose
// dirty bit for the key is clear can be served locally; a dirty key ships
// the read to the tail, which always holds the latest committed value.
//
// Implementation note (documented in DESIGN.md): non-tail replicas buffer
// the pending write value here and apply it to their local store when the
// backward ack arrives, rather than applying on receipt and rolling back on
// failure. Observable semantics are identical — reads are gated by the
// dirty bit either way — and failure handling becomes "drop the pending
// buffer" instead of a media rollback. A replica promoted to tail commits
// its entire pending buffer, which is exactly §3.8.2's "the penultimate
// node keeps the dirty bit until it becomes the tail, which then commits
// the write and propagates the response".

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/shared_bytes.h"
#include "obs/metrics.h"
#include "sim/network.h"

namespace leed::replication {

// Commit order stamped by the tail at its commitment point: view epoch
// first (tail promotion bumps the epoch), then a per-vnode sequence. The
// backward-ack path is NOT FIFO under injected network delays, so replicas
// must apply acked writes in stamp order per key, not in ack-arrival order
// (found by the linearizability checker, docs/CHECKING.md).
struct CommitStamp {
  uint64_t epoch = 0;
  uint64_t seq = 0;
  friend bool operator<(const CommitStamp& a, const CommitStamp& b) {
    return a.epoch != b.epoch ? a.epoch < b.epoch : a.seq < b.seq;
  }
  friend bool operator==(const CommitStamp& a, const CommitStamp& b) {
    return a.epoch == b.epoch && a.seq == b.seq;
  }
};

struct PendingWrite {
  uint64_t write_id = 0;
  bool is_del = false;
  std::string key;
  SharedBytes value;  // shared with the chain message and the apply
  // Carried along the chain so a promoted tail can still answer the client.
  sim::EndpointId reply_to = sim::kInvalidEndpoint;
  uint64_t req_id = 0;
  uint64_t view_epoch = 0;
  // Set by AdmitAck when the tail's commitment ack arrives.
  CommitStamp commit;
};

class ReplicaState {
 public:
  // Optional registry gauges tracking this replica's buffered writes and
  // dirty keys. The node wires every replica it owns to one shared pair
  // ("node<id>.repl.{pending_writes,dirty_keys}"), so the gauges aggregate
  // replication pressure across the node's vnodes — the occupancy CRRS
  // trades against (§3.7).
  void AttachMetrics(obs::Gauge* pending_writes, obs::Gauge* dirty_keys) {
    pending_gauge_ = pending_writes;
    dirty_gauge_ = dirty_keys;
  }

  bool IsDirty(const std::string& key) const {
    auto it = dirty_.find(key);
    return it != dirty_.end() && it->second > 0;
  }
  size_t dirty_keys() const { return dirty_.size(); }
  size_t pending_writes() const { return pending_.size(); }

  // Buffer a traversing write; marks the key dirty.
  void AddPending(PendingWrite w);

  // Remove and return the pending write (ack arrived / promotion); clears
  // the key's dirty bit when it was the last pending write on that key.
  std::optional<PendingWrite> TakePending(uint64_t write_id);

  // Promotion to tail: drain everything in write-id (arrival) order.
  std::vector<PendingWrite> TakeAllPending();

  // --- commit-ordered apply admission (backward-ack path) ---
  // A successful ack for buffered write `write_id` arrived carrying the
  // tail's commit stamp. Returns the write to apply now (the key's apply
  // slot was acquired; stamp recorded on the entry), or nullopt when
  //  * the write is unknown (already resolved),
  //  * a strictly newer commit was already applied/admitted on this key —
  //    then *superseded is set and the caller should drop the buffer
  //    without touching the store (the store already holds a later value),
  //  * an earlier-stamped apply is still running — the write waits and is
  //    handed out by FinishApply later.
  std::optional<uint64_t> AdmitAck(uint64_t write_id, CommitStamp stamp,
                                   bool* superseded);
  // The in-flight apply on `key` finished (the entry was TakePending-ed).
  // Returns the next admitted write to apply, if one queued up meanwhile.
  std::optional<uint64_t> FinishApply(const std::string& key);

  // Inspection for view-change re-forwarding.
  const std::map<uint64_t, PendingWrite>& pending() const { return pending_; }
  const PendingWrite* PeekPending(uint64_t write_id) const {
    auto it = pending_.find(write_id);
    return it == pending_.end() ? nullptr : &it->second;
  }

  // Write-id dedupe across re-forwards after failures. The window is
  // bounded FIFO: re-forwards can only reference writes from the current
  // transition epoch, so evicting old ids is safe — and without eviction
  // this set would grow by one entry per committed write forever.
  static constexpr size_t kAppliedWindow = 64 * 1024;
  bool SeenApplied(uint64_t write_id) const { return applied_.contains(write_id); }
  void MarkApplied(uint64_t write_id) {
    if (applied_.insert(write_id).second) {
      applied_order_.push_back(write_id);
      while (applied_order_.size() > kAppliedWindow) {
        applied_.erase(applied_order_.front());
        applied_order_.pop_front();
      }
    }
  }

  // --- COPY skip-set while this vnode backfills a filling range ---
  // Records every chain-written key so that snapshot items never overwrite
  // a newer chain write.
  void StartFillTracking() { fill_tracking_ = true; }
  void StopFillTracking() {
    fill_tracking_ = false;
    chain_written_.clear();
  }
  bool fill_tracking() const { return fill_tracking_; }
  void RecordChainWrite(const std::string& key) {
    if (fill_tracking_) chain_written_.insert(key);
  }
  bool WasChainWritten(const std::string& key) const {
    return chain_written_.contains(key);
  }

 private:
  obs::Gauge* pending_gauge_ = nullptr;
  obs::Gauge* dirty_gauge_ = nullptr;
  // key -> pending count; membership/size lookups only, never iterated
  // leed-lint: allow(unordered-iter): count/find/erase only; no iteration
  std::unordered_map<std::string, uint32_t> dirty_;
  std::map<uint64_t, PendingWrite> pending_;  // ordered by write id
  // leed-lint: allow(unordered-iter): write-id dedup set, membership only
  std::unordered_set<uint64_t> applied_;
  std::deque<uint64_t> applied_order_;  // FIFO eviction for applied_
  // Per-key apply serialization for the backward-ack path. `scheduled` is
  // the highest admitted stamp (admission watermark); `waiting` holds
  // admitted writes queued behind a running apply, in stamp order. Entries
  // are erased once the key has no pending writes left.
  struct ApplySlot {
    bool busy = false;
    CommitStamp scheduled;
    std::map<CommitStamp, uint64_t> waiting;
  };
  std::map<std::string, ApplySlot> apply_;
  bool fill_tracking_ = false;
  // leed-lint: allow(unordered-iter): test-only membership probe, no iteration
  std::unordered_set<std::string> chain_written_;
};

}  // namespace leed::replication
