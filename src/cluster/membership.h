// Cluster membership types (paper §3.8).
//
// The control plane maintains the authoritative ClusterView: every virtual
// node's owner JBOF, ring position, and state (JOINING / RUNNING /
// LEAVING), stamped with a monotonically increasing epoch. Nodes and
// clients hold possibly-stale copies; the hop-counter check (§3.8.1)
// detects cross-view chains and NACKs so the client refreshes and retries.

#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "cluster/hash_ring.h"

namespace leed::cluster {

enum class VNodeState : uint8_t { kJoining, kRunning, kLeaving };

struct VNodeInfo {
  VNodeId id = kInvalidVNode;
  uint32_t owner_node = 0;   // which JBOF hosts it
  uint32_t local_store = 0;  // partition index inside that JBOF's engine
  uint64_t position = 0;     // ring position
  VNodeState state = VNodeState::kRunning;
};

// A ring arc (start, end] that a virtual node is still backfilling via
// COPY. Reads must not be served from `vnode` for keys in the arc until the
// control plane clears it; writes flow through normally (the chain includes
// the filling member from the first transition epoch, so snapshot + chain
// writes together make it complete).
struct FillingRange {
  VNodeId vnode = kInvalidVNode;
  uint64_t start = 0;  // exclusive
  uint64_t end = 0;    // inclusive; start==end means the whole ring
  uint64_t transition = 0;  // epoch that opened this fill

  bool Covers(uint64_t ring_position) const {
    if (start == end) return true;
    if (start < end) return ring_position > start && ring_position <= end;
    return ring_position > start || ring_position <= end;
  }
};

struct ClusterView {
  uint64_t epoch = 0;
  uint32_t replication_factor = 3;
  std::map<VNodeId, VNodeInfo> vnodes;
  std::vector<FillingRange> filling;

  bool IsFilling(VNodeId id, uint64_t ring_position) const {
    for (const auto& f : filling) {
      if (f.vnode == id && f.Covers(ring_position)) return true;
    }
    return false;
  }

  // Ring over RUNNING virtual nodes — what clients route against.
  HashRing RunningRing() const;
  // Ring over RUNNING + LEAVING (data is still there while leaving drains).
  HashRing ServingRing() const;

  // The replication chain for a key: R consecutive serving virtual nodes.
  // Each call builds the ring; hot paths keep a ServingRing() instead.
  Chain ChainForKey(std::string_view key) const;
  Chain ChainForHash(uint64_t ring_position) const;

  const VNodeInfo* Find(VNodeId id) const;
};

}  // namespace leed::cluster
