// DRAM range index (ordered view over the key log).
//
// LEED's hash layout (SegTbl + bucket chains) answers point ops in 2/3/2
// NVMe accesses but cannot answer range queries. This B+-tree keeps a
// sorted key -> value-log-location map in DRAM alongside SegTbl, following
// KVell's sorted-in-DRAM / unsorted-on-SSD split (the KVell baseline keys
// its slots with the same tree):
//
//   * PUT/DEL maintain it at commit time (upsert / erase-on-tombstone),
//   * recovery rebuilds it from a full bucket scan of the recovered SegTbl,
//   * compaction and swap merge-back repair locations whenever a live value
//     is relocated, so a scan snapshot never strands a stale location
//     longer than one value-log head advance.
//
// SCAN takes a synchronous snapshot of the ordered (key, location) run via
// VisitFrom — one simulator event, hence atomic with respect to the store —
// and then fetches the immutable value-log entries asynchronously.
//
// Node layout: every node is one allocation of fixed-capacity arrays. A
// key is stored as its first 16 bytes, zero-padded and read as two
// big-endian words, plus its length; the rare key longer than 16 bytes
// keeps the rest in an out-of-line tail. Comparing prefix words orders
// keys exactly like std::string (bytes as unsigned), so a node is searched
// by binary search over its prefix array and a 16-byte YCSB key never
// touches the heap or a second cache line.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace leed::store {

class RangeIndex {
 public:
  // Where the newest committed value of a key lives.
  struct ValueLoc {
    uint8_t ssd = 0;
    uint64_t offset = 0;
    uint32_t value_len = 0;

    bool operator==(const ValueLoc& o) const {
      return ssd == o.ssd && offset == o.offset && value_len == o.value_len;
    }
  };

  RangeIndex();
  ~RangeIndex();

  RangeIndex(const RangeIndex&) = delete;
  RangeIndex& operator=(const RangeIndex&) = delete;

  // Insert or overwrite. Returns true if the key was new.
  bool Upsert(std::string_view key, ValueLoc loc);
  bool Erase(std::string_view key);
  std::optional<ValueLoc> Find(std::string_view key) const;

  // Compaction/swap repair: repoint `key` to `to` iff the index still maps
  // it to exactly `from` (a newer PUT owns the entry otherwise). Returns
  // true if the entry was repointed.
  bool Repair(std::string_view key, const ValueLoc& from, const ValueLoc& to);

  void Clear();
  size_t size() const { return size_; }
  int height() const;

  // In-order visit of every entry with key >= start; stop when fn returns
  // false. Synchronous — callers snapshot under one simulator event. The
  // key view is valid only during the call.
  void VisitFrom(std::string_view start,
                 const std::function<bool(std::string_view, const ValueLoc&)>&
                     fn) const;

  // Full in-order visit (VisitFrom "").
  void Visit(
      const std::function<void(std::string_view, const ValueLoc&)>& fn) const;

  // Structural invariants (tests): strict key ordering, uniform leaf depth,
  // fanout bounds. Returns false and stops early on violation.
  bool CheckInvariants() const;

  // Deterministic full serialization ("key ssd offset len\n" per entry, keys
  // percent-escaped) — the byte-for-byte comparison oracle the crash-torture
  // harness uses against a fresh bucket scan.
  std::string DebugDump() const;

  // Approximate DRAM footprint (index-memory accounting, analysis/).
  size_t ApproxDramBytes() const;

  static constexpr int kFanout = 16;  // max children per inner node

 private:
  struct Node;
  struct Leaf;
  struct Inner;
  struct Key;
  struct Split;

  static void Free(Node* node);
  Split InsertRec(Node* node, const Key& key, ValueLoc loc, bool* inserted);
  bool EraseRec(Node* node, const Key& key);
  bool VisitRec(
      const Node* node, const Key* start,
      const std::function<bool(std::string_view, const ValueLoc&)>& fn) const;
  Leaf* FindLeaf(const Key& key) const;

  Node* root_;
  size_t size_ = 0;
  size_t key_bytes_ = 0;
};

}  // namespace leed::store
