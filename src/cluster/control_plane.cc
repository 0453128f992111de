#include "cluster/control_plane.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace leed::cluster {

namespace {
// The rest of ControlPlaneStats is private to the control plane.
constexpr obs::Field<ControlPlaneStats> kControlPlaneFields[] = {
    {"copies_abandoned", &ControlPlaneStats::copies_abandoned},
    {"store_failures", &ControlPlaneStats::store_failures},
    {"vnodes_failed_over", &ControlPlaneStats::vnodes_failed_over},
};
}  // namespace

ControlPlane::ControlPlane(sim::Simulator& simulator, Network& network,
                           ControlPlaneConfig config)
    : sim_(simulator),
      net_(network),
      config_(config),
      scope_(config.metrics_registry, "cluster"),
      stats_(scope_.Resolve(kControlPlaneFields)),
      trace_(config.trace ? config.trace : &obs::TraceRing::Default()) {
  // Chains are inline arrays of at most Chain::kMaxLength vnodes; a larger
  // replication factor cannot be served, so refuse it in every build type.
  if (config_.replication_factor > Chain::kMaxLength) {
    std::fprintf(stderr,
                 "ControlPlane: replication_factor %u exceeds the maximum "
                 "chain length %u\n",
                 config_.replication_factor, Chain::kMaxLength);
    std::abort();
  }
  view_.replication_factor = config_.replication_factor;
  *stats_ = ControlPlaneStats{};
  endpoint_ = net_.AddEndpoint(sim::NicSpec{});  // control traffic is tiny
  net_.SetReceiver(endpoint_, [this](Message m) { OnMessage(std::move(m)); });
}

ControlPlane::~ControlPlane() = default;

VNodeId ControlPlane::Bootstrap(uint32_t owner_node, uint32_t local_store,
                                uint64_t position) {
  VNodeId id = static_cast<VNodeId>(next_vnode_++);
  view_.vnodes[id] =
      VNodeInfo{id, owner_node, local_store, position, VNodeState::kRunning};
  return id;
}

void ControlPlane::RegisterNode(uint32_t node_id, sim::EndpointId ep) {
  node_endpoints_[node_id] = ep;
}

void ControlPlane::RegisterClient(sim::EndpointId ep) {
  client_endpoints_.push_back(ep);
}

void ControlPlane::Start() {
  view_.epoch++;
  Broadcast();
  for (const auto& [node, ep] : node_endpoints_) {
    (void)ep;
    last_heartbeat_[node] = sim_.Now();
  }
  if (config_.monitor_heartbeats) {
    hb_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, config_.heartbeat_period, [this] { CheckHeartbeats(); });
    hb_timer_->Start();
  }
}

void ControlPlane::SendView(sim::EndpointId to) {
  net_.Send(endpoint_, to, ViewUpdateMsg{view_});
}

void ControlPlane::Broadcast() {
  stats_->views_broadcast++;
  for (const auto& [node, ep] : node_endpoints_) {
    if (dead_nodes_.contains(node)) continue;
    SendView(ep);
  }
  for (auto ep : client_endpoints_) SendView(ep);
}

void ControlPlane::CheckHeartbeats() {
  const SimTime now = sim_.Now();
  std::vector<uint32_t> newly_dead;
  for (const auto& [node, last] : last_heartbeat_) {
    if (dead_nodes_.contains(node)) continue;
    if (now - last > config_.failure_timeout) newly_dead.push_back(node);
  }
  for (uint32_t node : newly_dead) {
    stats_->failures_detected++;
    FailNode(node);
  }
}

void ControlPlane::OnMessage(Message msg) {
  if (auto* hb = std::get_if<HeartbeatMsg>(msg.payload.get())) {
    // A node declared dead stays dead until ReviveNode. A stale heartbeat —
    // e.g. one delayed across a healed partition — must not refresh the
    // clock and half-resurrect it (nor can the node be failed twice:
    // CheckHeartbeats and FailNode both skip dead nodes).
    if (dead_nodes_.contains(hb->node)) {
      stats_->stale_heartbeats_ignored++;
      return;
    }
    last_heartbeat_[hb->node] = sim_.Now();
    return;
  }
  if (auto* sf = std::get_if<StoreFailedMsg>(msg.payload.get())) {
    FailStore(sf->node, sf->local_store);
    return;
  }
  if (auto* done = std::get_if<CopyDoneMsg>(msg.payload.get())) {
    // A dead node's ack does not make a fill durable: the data it claims to
    // hold is out of the view. Its copies were already cancelled/reassigned
    // by ReassignOrphanedCopies; drop the stale ack on the floor.
    if (IsDeadNodeEndpoint(msg.src)) {
      stats_->stale_copy_acks_rejected++;
      return;
    }
    auto it = copy_to_transition_.find(done->copy_id);
    if (it == copy_to_transition_.end()) return;  // duplicate / stale
    uint64_t tid = it->second;
    copy_to_transition_.erase(it);
    open_copy_cmds_.erase(done->copy_id);
    stats_->copies_completed++;
    auto pit = pending_.find(tid);
    if (pit == pending_.end()) return;
    pit->second.open_copies.erase(done->copy_id);
    if (pit->second.open_copies.empty()) FinishTransition(tid);
    return;
  }
  if (auto* req = std::get_if<ViewRequestMsg>(msg.payload.get())) {
    SendView(req->reply_to != sim::kInvalidEndpoint ? req->reply_to : msg.src);
    return;
  }
}

std::set<uint64_t> ControlPlane::CommissionCopies(
    const HashRing& old_ring, const HashRing& new_ring,
    const std::vector<VNodeId>& pivots, const std::set<uint32_t>& dead_nodes) {
  (void)pivots;  // the elementary-arc scan finds all affected ranges directly
  std::set<uint64_t> copies;
  const uint32_t r = view_.replication_factor;

  // Elementary arcs: between consecutive positions of the UNION of both
  // rings, the old and new chains are each constant. Sampling per new-ring
  // member alone is wrong — when a vnode leaves, its successor's arc covers
  // two sub-ranges with *different* old chains, and the sub-range formerly
  // owned by the leaver needs its own copy.
  std::set<uint64_t> breakpoints;
  for (VNodeId u : old_ring.Members()) breakpoints.insert(old_ring.PositionOf(u));
  for (VNodeId u : new_ring.Members()) breakpoints.insert(new_ring.PositionOf(u));
  if (breakpoints.empty()) return copies;

  std::vector<uint64_t> points(breakpoints.begin(), breakpoints.end());
  for (size_t i = 0; i < points.size(); ++i) {
    const uint64_t arc_end = points[i];
    const uint64_t arc_start = points[(i + points.size() - 1) % points.size()];
    if (points.size() == 1 && arc_start == arc_end) {
      // Single breakpoint: the arc is the whole ring; handled below with
      // start == end semantics.
    }
    auto new_chain = new_ring.ChainOf(arc_end, r);
    auto old_chain = old_ring.ChainOf(arc_end, r);
    if (new_chain == old_chain) continue;
    auto in_old = [&](VNodeId m) {
      return std::find(old_chain.begin(), old_chain.end(), m) != old_chain.end();
    };

    // Source: the tail-most member of the new chain that already has the
    // data (was in the old chain) and is alive.
    VNodeId source = kInvalidVNode;
    for (auto it = new_chain.rbegin(); it != new_chain.rend(); ++it) {
      if (!in_old(*it)) continue;
      const VNodeInfo* info = view_.Find(*it);
      if (!info || HostIsDead(*info, dead_nodes)) continue;
      source = *it;
      break;
    }
    // Fall back to any live old-chain member still in the view (a LEAVING
    // node keeps serving COPY while it drains).
    if (source == kInvalidVNode) {
      for (auto it = old_chain.rbegin(); it != old_chain.rend(); ++it) {
        const VNodeInfo* info = view_.Find(*it);
        if (!info || HostIsDead(*info, dead_nodes)) continue;
        source = *it;
        break;
      }
    }
    if (source == kInvalidVNode) {
      // Nothing survives for this arc: unrecoverable data loss. Surface it —
      // nemesis gates fail a run on a nonzero abandoned count rather than
      // letting the transition pass silently.
      stats_->copies_abandoned++;
      const uint32_t dst_unit =
          new_chain.empty() ? 0u : static_cast<uint32_t>(new_chain.front());
      const VNodeInfo* head =
          new_chain.empty() ? nullptr : view_.Find(new_chain.front());
      trace_->Record(sim_.Now(), obs::TraceKind::kCopyAbandoned,
                     head ? head->owner_node : obs::TraceEvent::kNoNode,
                     dst_unit, /*id=*/0);
      continue;
    }

    const std::pair<uint64_t, uint64_t> arc{arc_start, arc_end};
    for (VNodeId m : new_chain) {
      if (in_old(m) || m == source) continue;
      const VNodeInfo* dst_info = view_.Find(m);
      const VNodeInfo* src_info = view_.Find(source);
      if (!dst_info || !src_info) continue;
      auto dst_ep = node_endpoints_.find(dst_info->owner_node);
      auto src_ep = node_endpoints_.find(src_info->owner_node);
      if (dst_ep == node_endpoints_.end() || src_ep == node_endpoints_.end())
        continue;

      uint64_t copy_id = next_copy_id_++;
      copies.insert(copy_id);
      stats_->copies_commissioned++;
      view_.filling.push_back(FillingRange{m, arc.first, arc.second,
                                           /*transition=*/next_transition_id_});
      CopyCommandMsg cmd;
      cmd.copy_id = copy_id;
      cmd.src = source;
      cmd.dst = m;
      cmd.dst_node = dst_info->owner_node;
      cmd.dst_endpoint = dst_ep->second;
      cmd.range_start = arc.first;
      cmd.range_end = arc.second;
      cmd.transition_epoch = view_.epoch + 1;
      open_copy_cmds_[copy_id] = cmd;
      net_.Send(endpoint_, src_ep->second, std::move(cmd));
    }
  }
  return copies;
}

VNodeId ControlPlane::StartJoin(uint32_t owner_node, uint32_t local_store) {
  stats_->joins_started++;
  HashRing old_ring = view_.ServingRing();
  uint64_t pos = old_ring.WidestArcMidpoint();
  // Nudge past (astronomically unlikely) position collisions.
  auto taken = [&](uint64_t p) {
    for (const auto& [id, info] : view_.vnodes) {
      (void)id;
      if (info.position == p) return true;
    }
    return false;
  };
  while (taken(pos)) ++pos;
  VNodeId v = static_cast<VNodeId>(next_vnode_++);
  view_.vnodes[v] =
      VNodeInfo{v, owner_node, local_store, pos, VNodeState::kJoining};
  HashRing new_ring = view_.ServingRing();

  auto copies = CommissionCopies(old_ring, new_ring, {v}, {});
  view_.epoch++;
  if (copies.empty()) {
    // Empty cluster or no data to move: run immediately.
    view_.vnodes[v].state = VNodeState::kRunning;
    stats_->joins_completed++;
    Broadcast();
    return v;
  }
  uint64_t tid = next_transition_id_++;
  for (uint64_t c : copies) copy_to_transition_[c] = tid;
  pending_[tid] = Transition{TransitionKind::kJoin, {v}, copies};
  Broadcast();
  return v;
}

void ControlPlane::StartLeave(VNodeId id) {
  auto it = view_.vnodes.find(id);
  if (it == view_.vnodes.end() || it->second.state != VNodeState::kRunning) return;
  stats_->leaves_started++;
  HashRing old_ring = view_.ServingRing();
  it->second.state = VNodeState::kLeaving;
  HashRing new_ring = view_.ServingRing();

  auto copies = CommissionCopies(old_ring, new_ring, {id}, {});
  view_.epoch++;
  if (copies.empty()) {
    view_.vnodes.erase(id);
    stats_->leaves_completed++;
    Broadcast();
    return;
  }
  uint64_t tid = next_transition_id_++;
  for (uint64_t c : copies) copy_to_transition_[c] = tid;
  pending_[tid] = Transition{TransitionKind::kLeave, {id}, copies};
  Broadcast();
}

void ControlPlane::ReassignOrphanedCopies() {
  const HashRing ring = view_.ServingRing();
  // Detach a copy from its transition, finishing the transition if that was
  // the last one outstanding. Shared by the abandon and cancel paths.
  auto drop_copy = [&](uint64_t copy_id) {
    auto tit = copy_to_transition_.find(copy_id);
    if (tit == copy_to_transition_.end()) return;
    uint64_t tid = tit->second;
    copy_to_transition_.erase(tit);
    auto pit = pending_.find(tid);
    if (pit != pending_.end()) {
      pit->second.open_copies.erase(copy_id);
      if (pit->second.open_copies.empty()) FinishTransition(tid);
    }
  };
  for (auto& [copy_id, cmd] : open_copy_cmds_) {
    // A copy whose DESTINATION died is moot — the dst vnode is on its way
    // out of the view, and the dead node will never durably finish the
    // fill. Cancel it (no data lost: the range's surviving holders keep it)
    // so the older transition can drain instead of wedging forever.
    const VNodeInfo* dst_info = view_.Find(cmd.dst);
    if (!dst_info || HostIsDead(*dst_info, dead_nodes_)) {
      stats_->copies_cancelled++;
      drop_copy(copy_id);
      continue;
    }

    const VNodeInfo* src_info = view_.Find(cmd.src);
    const bool src_dead = !src_info || HostIsDead(*src_info, dead_nodes_);
    if (!src_dead) continue;

    // Pick a surviving data holder: a member of the destination range's
    // current chain, alive, other than the destination itself.
    VNodeId replacement = kInvalidVNode;
    auto chain = ring.ChainOf(cmd.range_end, view_.replication_factor);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (*it == cmd.dst || *it == cmd.src) continue;
      const VNodeInfo* info = view_.Find(*it);
      if (!info || HostIsDead(*info, dead_nodes_)) continue;
      // A member itself still filling this range has no data to give.
      if (view_.IsFilling(*it, cmd.range_end)) continue;
      replacement = *it;
      break;
    }
    if (replacement == kInvalidVNode) {
      // No surviving source: abandon the copy so the transition can finish
      // (the range is as recovered as it can be; count the loss).
      stats_->copies_abandoned++;
      trace_->Record(sim_.Now(), obs::TraceKind::kCopyAbandoned,
                     dst_info->owner_node, static_cast<uint32_t>(cmd.dst),
                     copy_id);
      drop_copy(copy_id);
      continue;
    }
    const VNodeInfo* new_src = view_.Find(replacement);
    auto ep = node_endpoints_.find(new_src->owner_node);
    if (ep == node_endpoints_.end()) continue;
    stats_->copies_reassigned++;
    cmd.src = replacement;
    // The destination tolerates duplicate items (chain-written keys are
    // skipped; re-applied snapshot items are idempotent overwrites).
    net_.Send(endpoint_, ep->second, cmd);
  }
  // Purge abandoned ids from the open map.
  for (auto it = open_copy_cmds_.begin(); it != open_copy_cmds_.end();) {
    if (!copy_to_transition_.contains(it->first)) {
      it = open_copy_cmds_.erase(it);
    } else {
      ++it;
    }
  }
}

void ControlPlane::FailNode(uint32_t node_id) {
  if (dead_nodes_.contains(node_id)) return;
  dead_nodes_.insert(node_id);
  HashRing old_ring = view_.ServingRing();
  std::vector<VNodeId> subjects;
  for (auto& [id, info] : view_.vnodes) {
    if (info.owner_node == node_id && info.state != VNodeState::kLeaving) {
      info.state = VNodeState::kLeaving;  // excluded from serving immediately
      subjects.push_back(id);
    }
  }
  if (subjects.empty()) return;
  HashRing new_ring = view_.ServingRing();

  auto copies = CommissionCopies(old_ring, new_ring, subjects, dead_nodes_);
  view_.epoch++;
  if (copies.empty()) {
    for (VNodeId v : subjects) view_.vnodes.erase(v);
    Broadcast();
    ReassignOrphanedCopies();
    return;
  }
  uint64_t tid = next_transition_id_++;
  for (uint64_t c : copies) copy_to_transition_[c] = tid;
  pending_[tid] = Transition{TransitionKind::kFail, subjects, copies};
  Broadcast();
  // Earlier transitions may have been streaming from or to the dead node.
  ReassignOrphanedCopies();
}

void ControlPlane::FailStore(uint32_t node_id, uint32_t local_store) {
  if (dead_nodes_.contains(node_id)) return;  // whole node already failed
  if (!dead_stores_.insert({node_id, local_store}).second) return;  // dup
  stats_->store_failures++;

  HashRing old_ring = view_.ServingRing();
  std::vector<VNodeId> subjects;
  for (auto& [id, info] : view_.vnodes) {
    if (info.owner_node == node_id && info.local_store == local_store &&
        info.state != VNodeState::kLeaving) {
      info.state = VNodeState::kLeaving;  // out of serving chains immediately
      subjects.push_back(id);
    }
  }
  if (subjects.empty()) return;
  stats_->vnodes_failed_over += subjects.size();
  trace_->Record(sim_.Now(), obs::TraceKind::kStoreFailover, node_id,
                 local_store, node_id,
                 static_cast<int64_t>(subjects.size()));
  HashRing new_ring = view_.ServingRing();

  // Unlike FailNode, the node is NOT marked dead — it keeps heartbeating
  // and serving its healthy stores. Only this store's vnodes leave the
  // ring; CommissionCopies re-replicates exactly their arcs, with the dead
  // store excluded as a source via HostIsDead.
  auto copies = CommissionCopies(old_ring, new_ring, subjects, dead_nodes_);
  view_.epoch++;
  if (copies.empty()) {
    for (VNodeId v : subjects) view_.vnodes.erase(v);
    Broadcast();
    ReassignOrphanedCopies();
    return;
  }
  uint64_t tid = next_transition_id_++;
  for (uint64_t c : copies) copy_to_transition_[c] = tid;
  pending_[tid] = Transition{TransitionKind::kFail, subjects, copies};
  Broadcast();
  // Earlier transitions may have been streaming from or to the dead store.
  ReassignOrphanedCopies();
}

void ControlPlane::ReviveNode(uint32_t node_id, sim::EndpointId ep) {
  dead_nodes_.erase(node_id);
  // The restart replaced the hardware (ClusterSim swaps in blank devices),
  // so the node's store death marks no longer describe what is mounted.
  std::erase_if(dead_stores_,
                [&](const auto& p) { return p.first == node_id; });
  node_endpoints_[node_id] = ep;
  last_heartbeat_[node_id] = sim_.Now();
}

bool ControlPlane::HostIsDead(const VNodeInfo& info,
                              const std::set<uint32_t>& dead_nodes) const {
  return dead_nodes.contains(info.owner_node) ||
         dead_stores_.contains({info.owner_node, info.local_store});
}

bool ControlPlane::IsDeadNodeEndpoint(sim::EndpointId ep) const {
  for (uint32_t node : dead_nodes_) {
    auto it = node_endpoints_.find(node);
    if (it != node_endpoints_.end() && it->second == ep) return true;
  }
  return false;
}

void ControlPlane::FinishTransition(uint64_t transition_id) {
  auto it = pending_.find(transition_id);
  if (it == pending_.end()) return;
  Transition t = std::move(it->second);
  pending_.erase(it);

  for (VNodeId v : t.subjects) {
    auto vit = view_.vnodes.find(v);
    if (vit == view_.vnodes.end()) continue;
    if (t.kind == TransitionKind::kJoin) {
      vit->second.state = VNodeState::kRunning;
      stats_->joins_completed++;
    } else {
      view_.vnodes.erase(vit);
      if (t.kind == TransitionKind::kLeave) stats_->leaves_completed++;
    }
  }
  // Clear this transition's filling entries.
  auto& f = view_.filling;
  f.erase(std::remove_if(f.begin(), f.end(),
                         [&](const FillingRange& r) {
                           return r.transition == transition_id;
                         }),
          f.end());
  view_.epoch++;
  Broadcast();
}

}  // namespace leed::cluster
