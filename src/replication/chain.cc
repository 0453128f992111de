#include "replication/chain.h"

namespace leed::replication {

int IndexIn(std::span<const cluster::VNodeId> chain, cluster::VNodeId v) {
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i] == v) return static_cast<int>(i);
  }
  return -1;
}

Role RoleIn(std::span<const cluster::VNodeId> chain, cluster::VNodeId v) {
  int idx = IndexIn(chain, v);
  if (idx < 0) return Role::kNone;
  if (idx == 0) return Role::kHead;
  if (idx == static_cast<int>(chain.size()) - 1) return Role::kTail;
  return Role::kMid;
}

cluster::VNodeId NextIn(std::span<const cluster::VNodeId> chain,
                        cluster::VNodeId v) {
  int idx = IndexIn(chain, v);
  if (idx < 0 || idx + 1 >= static_cast<int>(chain.size()))
    return cluster::kInvalidVNode;
  return chain[idx + 1];
}

cluster::VNodeId PrevIn(std::span<const cluster::VNodeId> chain,
                        cluster::VNodeId v) {
  int idx = IndexIn(chain, v);
  if (idx <= 0) return cluster::kInvalidVNode;
  return chain[idx - 1];
}

}  // namespace leed::replication
