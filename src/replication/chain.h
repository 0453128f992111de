// Chain-replication topology helpers (van Renesse & Schneider, as used in
// paper §3.7).
//
// A key's chain is the ordered list of R virtual nodes from the consistent-
// hash ring: chain[0] is the head (receives PUT/DEL), chain[R-1] the tail
// (commit point, serves baseline GETs). These helpers answer "what am I in
// this chain and who are my neighbors" — the role recomputation every node
// performs whenever a view update arrives.

#pragma once

#include <cstdint>
#include <span>

#include "cluster/hash_ring.h"

namespace leed::replication {

enum class Role : uint8_t { kNone, kHead, kMid, kTail };

Role RoleIn(std::span<const cluster::VNodeId> chain, cluster::VNodeId v);

// Successor of v along the chain (toward the tail); kInvalidVNode if v is
// the tail or not a member.
cluster::VNodeId NextIn(std::span<const cluster::VNodeId> chain,
                        cluster::VNodeId v);

// Predecessor of v along the chain (toward the head); kInvalidVNode if v is
// the head or not a member.
cluster::VNodeId PrevIn(std::span<const cluster::VNodeId> chain,
                        cluster::VNodeId v);

// Index of v in the chain, or -1.
int IndexIn(std::span<const cluster::VNodeId> chain, cluster::VNodeId v);

}  // namespace leed::replication
