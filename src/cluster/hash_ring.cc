#include "cluster/hash_ring.h"

#include <cstdlib>

namespace leed::cluster {

std::vector<HashRing::Entry>::const_iterator HashRing::LowerBound(
    uint64_t position) const {
  return std::lower_bound(
      ring_.begin(), ring_.end(), position,
      [](const Entry& e, uint64_t pos) { return e.first < pos; });
}

bool HashRing::Insert(VNodeId id, uint64_t position) {
  auto it = LowerBound(position);
  if ((it != ring_.end() && it->first == position) || positions_.contains(id)) {
    return false;
  }
  ring_.insert(it, Entry{position, id});
  positions_[id] = position;
  return true;
}

bool HashRing::Remove(VNodeId id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) return false;
  ring_.erase(LowerBound(it->second));
  positions_.erase(it);
  return true;
}

VNodeId HashRing::PrimaryOf(uint64_t key_hash) const {
  if (ring_.empty()) return kInvalidVNode;
  auto it = LowerBound(key_hash);
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

Chain HashRing::ChainOf(uint64_t key_hash, uint32_t r) const {
  Chain chain;
  if (ring_.empty()) return chain;
  if (r > Chain::kMaxLength) std::abort();  // no silent short chains
  size_t i = static_cast<size_t>(LowerBound(key_hash) - ring_.begin());
  const size_t take = std::min<size_t>(r, ring_.size());
  while (chain.size() < take) {
    if (i == ring_.size()) i = 0;  // wrap
    chain.push_back(ring_[i++].second);
  }
  return chain;
}

VNodeId HashRing::SuccessorOf(VNodeId id) const {
  auto pit = positions_.find(id);
  if (pit == positions_.end() || ring_.size() < 2) return kInvalidVNode;
  auto it = LowerBound(pit->second) + 1;
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::pair<uint64_t, uint64_t> HashRing::ArcOf(VNodeId id) const {
  uint64_t end = positions_.at(id);
  if (ring_.size() == 1) return {end, end};  // whole ring
  auto it = LowerBound(end);
  uint64_t start =
      (it == ring_.begin()) ? ring_.back().first : std::prev(it)->first;
  return {start, end};
}

bool HashRing::InArcOf(VNodeId id, uint64_t key_hash) const {
  auto [start, end] = ArcOf(id);
  if (start == end) return true;  // single member owns everything
  if (start < end) return key_hash > start && key_hash <= end;
  return key_hash > start || key_hash <= end;  // wrapping arc
}

uint64_t HashRing::WidestArcMidpoint() const {
  if (ring_.empty()) return UINT64_MAX / 2;
  if (ring_.size() == 1) return ring_.front().first + UINT64_MAX / 2;  // wraps
  uint64_t best_width = 0;
  uint64_t best_mid = 0;
  uint64_t prev = ring_.back().first;  // predecessor of the first entry
  for (const auto& [pos, id] : ring_) {
    (void)id;
    uint64_t width = pos - prev;  // modular arithmetic handles wrap
    if (width > best_width) {
      best_width = width;
      best_mid = prev + width / 2;
    }
    prev = pos;
  }
  return best_mid;
}

std::vector<VNodeId> HashRing::Members() const {
  std::vector<VNodeId> out;
  out.reserve(positions_.size());
  for (const auto& [id, pos] : positions_) {
    (void)pos;
    out.push_back(id);
  }
  return out;
}

}  // namespace leed::cluster
