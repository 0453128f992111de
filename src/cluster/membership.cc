#include "cluster/membership.h"

namespace leed::cluster {

HashRing ClusterView::RunningRing() const {
  HashRing ring;
  for (const auto& [id, info] : vnodes) {
    if (info.state == VNodeState::kRunning) ring.Insert(id, info.position);
  }
  return ring;
}

HashRing ClusterView::ServingRing() const {
  // Chains take their post-transition shape from the FIRST epoch of any
  // transition: a JOINING member is included immediately (it receives chain
  // writes from the start; its COPY snapshot backfills around them), and a
  // LEAVING member is excluded immediately ("clients stop issuing requests
  // to this virtual node immediately", §3.8.1) — its successors gain the
  // arc and backfill it. Reads are steered away from incomplete data by
  // the filling ranges, not by ring membership.
  HashRing ring;
  for (const auto& [id, info] : vnodes) {
    if (info.state != VNodeState::kLeaving) ring.Insert(id, info.position);
  }
  return ring;
}

Chain ClusterView::ChainForKey(std::string_view key) const {
  return ChainForHash(HashRing::KeyPosition(key));
}

Chain ClusterView::ChainForHash(uint64_t ring_position) const {
  return ServingRing().ChainOf(ring_position, replication_factor);
}

const VNodeInfo* ClusterView::Find(VNodeId id) const {
  auto it = vnodes.find(id);
  return it == vnodes.end() ? nullptr : &it->second;
}

}  // namespace leed::cluster
