// Consistent-hash ring over virtual nodes (paper §3.1.2, §3.8).
//
// LEED divides the key space into partitions and maps each to a (virtual)
// storage node via consistent hashing, like FAWN. A virtual node owns the
// ring arc (predecessor position, own position]; the replication chain for
// a key is the R consecutive virtual nodes clockwise from its hash.
// Node join splits an existing arc in two ("each virtual node splits the
// key range of a chosen partition into two"); leave merges the arc into
// the successor.

#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace leed::cluster {

using VNodeId = uint32_t;
constexpr VNodeId kInvalidVNode = UINT32_MAX;

// A key's replication chain: at most kMaxLength virtual nodes, held inline
// so routing a request allocates nothing.
class Chain {
 public:
  static constexpr uint32_t kMaxLength = 8;  // bounds the replication factor

  void push_back(VNodeId id) {
    assert(size_ < kMaxLength);
    ids_[size_++] = id;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  VNodeId operator[](size_t i) const { return ids_[i]; }
  VNodeId front() const { return ids_[0]; }
  VNodeId back() const { return ids_[size_ - 1]; }
  const VNodeId* begin() const { return ids_.data(); }
  const VNodeId* end() const { return ids_.data() + size_; }
  std::reverse_iterator<const VNodeId*> rbegin() const {
    return std::reverse_iterator<const VNodeId*>(end());
  }
  std::reverse_iterator<const VNodeId*> rend() const {
    return std::reverse_iterator<const VNodeId*>(begin());
  }

  friend bool operator==(const Chain& a, const Chain& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<VNodeId, kMaxLength> ids_{};
  uint32_t size_ = 0;
};

class HashRing {
 public:
  // Returns false if the position is already taken.
  bool Insert(VNodeId id, uint64_t position);
  bool Remove(VNodeId id);
  bool Contains(VNodeId id) const { return positions_.contains(id); }

  size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }

  // First virtual node at-or-clockwise-from the hash (the chain head).
  VNodeId PrimaryOf(uint64_t key_hash) const;

  // The R distinct virtual nodes clockwise from the hash: chain[0] is the
  // head, chain[r-1] the tail. Fewer than r entries if the ring is small.
  // Aborts if r exceeds Chain::kMaxLength.
  Chain ChainOf(uint64_t key_hash, uint32_t r) const;

  // Next virtual node clockwise after `id` (the node that inherits its arc
  // on leave). kInvalidVNode if the ring has no other member.
  VNodeId SuccessorOf(VNodeId id) const;

  uint64_t PositionOf(VNodeId id) const { return positions_.at(id); }

  // The arc (start, end] owned by `id`, as a pair; start==end means the
  // whole ring (single member). Wrapping is expressed by start > end.
  std::pair<uint64_t, uint64_t> ArcOf(VNodeId id) const;

  // Does `key_hash` fall in the arc owned by `id`?
  bool InArcOf(VNodeId id, uint64_t key_hash) const;

  // Midpoint of the widest arc — where a joining virtual node should land
  // to halve the largest partition.
  uint64_t WidestArcMidpoint() const;

  // Convenience: hash a key onto the ring (one fixed seed for placement —
  // independent from the data store's segment hash).
  static uint64_t KeyPosition(std::string_view key) {
    return HashKey(key, 0x12196ULL);  // ring-placement seed
  }

  std::vector<VNodeId> Members() const;

 private:
  // (position, vnode) sorted by position: a lookup is one binary search
  // over a flat array. Membership changes are rare; lookups are per op.
  using Entry = std::pair<uint64_t, VNodeId>;
  std::vector<Entry>::const_iterator LowerBound(uint64_t position) const;

  std::vector<Entry> ring_;
  std::map<VNodeId, uint64_t> positions_;  // vnode -> position
};

}  // namespace leed::cluster
