#include "leed/node.h"

#include <algorithm>


namespace leed {
namespace {

// A std::visit visitor built from one lambda per WireMsg alternative.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

constexpr obs::Field<NodeStats> kNodeFields[] = {
    {"client_requests", &NodeStats::client_requests},
    {"gets_served", &NodeStats::gets_served},
    {"scans_served", &NodeStats::scans_served},
    {"scan_items_returned", &NodeStats::scan_items_returned},
    {"scans_parked", &NodeStats::scans_parked},
    {"reads_shipped", &NodeStats::reads_shipped},
    {"writes_headed", &NodeStats::writes_headed},
    {"chain_writes", &NodeStats::chain_writes},
    {"chain_acks", &NodeStats::chain_acks},
    {"commits_as_tail", &NodeStats::commits_as_tail},
    {"nacks_sent", &NodeStats::nacks_sent},
    {"copy_items_sent", &NodeStats::copy_items_sent},
    {"copy_items_applied", &NodeStats::copy_items_applied},
    {"copy_items_skipped", &NodeStats::copy_items_skipped},
    {"craq_queries_sent", &NodeStats::craq_queries_sent},
    {"craq_queries_answered", &NodeStats::craq_queries_answered},
    {"craq_queries_reaped", &NodeStats::craq_queries_reaped},
    {"offload_gets", &NodeStats::offload_gets},
    {"internal_retries", &NodeStats::internal_retries},
    {"repl.obligation_retries", &NodeStats::obligation_retries},
    {"repl.obligation_giveups", &NodeStats::obligation_giveups},
    {"view_updates", &NodeStats::view_updates},
    {"pending_reforwards", &NodeStats::pending_reforwards},
    {"store_unavailable_nacks", &NodeStats::store_unavailable_nacks},
};

}  // namespace

using cluster::VNodeId;
using replication::PendingWrite;

Node::Node(sim::Simulator& simulator, Network& network,
           sim::EndpointId control_plane, NodeConfig config, uint32_t node_id,
           uint64_t seed)
    : sim_(simulator),
      net_(network),
      cp_endpoint_(control_plane),
      config_(std::move(config)),
      node_id_(node_id),
      scope_(config_.metrics_registry, "node" + std::to_string(node_id)),
      stats_(scope_.Resolve(kNodeFields)),
      trace_(config_.trace ? config_.trace : &obs::TraceRing::Default()) {
  scope_.ResetInstruments();
  gauges_.stores_failed = scope_.GetGauge("stores_failed");
  gauges_.power_w = scope_.GetGauge("power_w");
  gauges_.repl_pending_writes = scope_.GetGauge("repl.pending_writes");
  gauges_.repl_dirty_keys = scope_.GetGauge("repl.dirty_keys");

  const auto& plat = config_.platform;
  cpu_ = std::make_unique<sim::CpuModel>(sim_, plat.cores, plat.freq_ghz);
  endpoint_ = net_.AddEndpoint(plat.nic);
  net_.SetReceiver(endpoint_, [this](Message m) { OnMessage(std::move(m)); });

  if (config_.stack == StackKind::kLeed) {
    // Nest the engine's whole instrument tree (engine counters, per-SSD
    // devices, per-store counters) under this node's namespace.
    config_.engine.metrics_registry = &scope_.registry();
    config_.engine.metrics_prefix = scope_.Sub("engine").prefix();
    config_.engine.trace = trace_;
    config_.engine.node_id = node_id_;
    config_.engine.on_ssd_failed = [this](uint32_t ssd) { OnSsdFailed(ssd); };
    leed_engine_ = std::make_unique<engine::IoEngine>(sim_, *cpu_, config_.engine,
                                                      seed ^ 0xeed);
    storage_ = leed_engine_.get();
  } else {
    baseline_ = std::make_unique<baselines::BaselineExecutor>(
        sim_, *cpu_, config_.baseline, seed ^ 0xba5e);
    storage_ = baseline_.get();
  }
}

Node::~Node() = default;

replication::ReplicaState& Node::Replica(VNodeId id) {
  auto [it, inserted] = replicas_.try_emplace(id);
  if (inserted)
    it->second.AttachMetrics(gauges_.repl_pending_writes, gauges_.repl_dirty_keys);
  return it->second;
}

void Node::Start() {
  hb_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config_.heartbeat_period, [this] {
        if (failed_) return;
        net_.Send(endpoint_, cp_endpoint_, cluster::HeartbeatMsg{node_id_});
      });
  hb_timer_->Start();
}

void Node::Fail() {
  failed_ = true;
  if (hb_timer_) hb_timer_->Stop();
}

void Node::Crash() {
  Fail();
  crashed_ = true;
  // A crashed node must not keep scheduling periodic work; in-flight
  // callbacks may still run but their sends are suppressed and their
  // device IOs black-holed by the fault layer.
  if (leed_engine_) leed_engine_->Quiesce();
}

void Node::Recover(std::function<void(Status, store::RecoveryStats)> done) {
  if (!leed_engine_) {
    done(Status::InvalidArgument("recovery requires the LEED stack"), {});
    return;
  }
  leed_engine_->RecoverFromDevices(std::move(done));
}

void Node::OnSsdFailed(uint32_t ssd) {
  if (failed_ || crashed_ || !leed_engine_) return;
  const uint32_t per = config_.engine.stores_per_ssd;
  gauges_.stores_failed->Set(
      static_cast<double>(leed_engine_->FailedSsdCount()) * per);
  // Report each store on the dead SSD so the control plane can fail over
  // exactly those vnodes; this node keeps serving its other stores.
  for (uint32_t s = 0; s < per; ++s) {
    SendMsg(cp_endpoint_,
            cluster::StoreFailedMsg{node_id_, ssd * per + s});
  }
}

double Node::PowerWatts(SimTime window_ns) const {
  double watts = sim::NodePowerWatts(config_.platform.power,
                                     cpu_->MeanUtilization(window_ns));
  gauges_.power_w->Set(watts);
  return watts;
}

sim::CpuCore& Node::NetCore() {
  const uint32_t cores = cpu_->num_cores();
  if (config_.stack == StackKind::kLeed) {
    // §3.4 static mapping: storage cores [0, ssd_count), polling cores
    // [ssd_count, cores-1), control core last.
    uint32_t first = std::min(config_.engine.ssd_count, cores - 1);
    uint32_t count = cores > first + 1 ? cores - 1 - first : 1;
    uint32_t idx = first + (net_core_rr_++ % count);
    return cpu_->core(std::min(idx, cores - 1));
  }
  return cpu_->core(net_core_rr_++ % cores);
}

void Node::SendMsg(sim::EndpointId to, WireMsg msg) {
  if (crashed_ || to == sim::kInvalidEndpoint) return;
  NetCore().Charge(config_.net_tx_cycles);
  net_.Send(endpoint_, to, std::move(msg));
}

cluster::Chain Node::ChainForKey(std::string_view key) const {
  return serving_ring_.ChainOf(cluster::HashRing::KeyPosition(key),
                               view_.replication_factor);
}

const cluster::VNodeInfo* Node::OwnedVNode(VNodeId id) const {
  const cluster::VNodeInfo* info = view_.Find(id);
  if (!info || info->owner_node != node_id_) return nullptr;
  return info;
}

void Node::OnMessage(Message msg) {
  if (failed_) return;  // fail-stop: silently drop
  // Host-bypass offload: the NIC offload engine filters incoming frames
  // before the DPU network stack ever polls them, so an offloadable GET
  // costs no rx cycles; anything it punts takes the normal charged path.
  if (config_.engine.offload_enabled) {
    if (auto* req = std::get_if<ClientRequestMsg>(msg.payload.get())) {
      if (TryOffloadGet(*req)) return;
    }
  }
  auto dispatch = [this, m = std::move(msg)]() mutable {
    Dispatch(std::move(m));
  };
  static_assert(sim::EventFitsInline<decltype(dispatch)>,
                "node rx continuation must not heap-allocate");
  NetCore().Run(config_.net_rx_cycles, std::move(dispatch));
}

void Node::Dispatch(Message msg) {
  if (failed_) return;
  std::visit(
      Overloaded{
          [this](ClientRequestMsg& m) { HandleClientRequest(std::move(m)); },
          [this](ChainWriteMsg& m) { HandleChainWrite(std::move(m)); },
          [this](ChainAckMsg& m) { HandleChainAck(std::move(m)); },
          [this](cluster::ViewUpdateMsg& m) { HandleViewUpdate(std::move(m)); },
          [this](cluster::CopyCommandMsg& m) {
            HandleCopyCommand(std::move(m));
          },
          [this](cluster::CopyItemMsg& m) { HandleCopyItem(std::move(m)); },
          [this](CraqQueryMsg& m) { HandleCraqQuery(std::move(m)); },
          [this](CraqReplyMsg& m) { HandleCraqReply(std::move(m)); },
          // Client- and control-plane-bound messages never address a node.
          [](ResponseMsg&) {},
          [](cluster::ViewRequestMsg&) {},
          [](cluster::HeartbeatMsg&) {},
          [](cluster::CopyDoneMsg&) {},
          [](cluster::StoreFailedMsg&) {},
      },
      *msg.payload);
}

// ---------------------------------------------------------------------------
// Client requests
// ---------------------------------------------------------------------------

Node::Placement Node::Place(engine::OpType op, VNodeId vnode,
                            std::string_view key, uint8_t hop,
                            bool shipped) const {
  Placement p;
  p.info = OwnedVNode(vnode);
  if (!p.info) return p;
  if (leed_engine_ &&
      leed_engine_->SsdFailed(leed_engine_->ssd_of_store(p.info->local_store))) {
    // Degraded mode: this store's SSD is dead and cannot serve reads or
    // take writes durably. kUnavailable (not kWrongView) so the client
    // backs off instead of hammering the view service; the failover
    // transition will reroute the vnode.
    p.code = StatusCode::kUnavailable;
    return p;
  }
  if (op == engine::OpType::kScan && !storage_->SupportsScan()) {
    // Baseline stacks expose no ordered view; tell the client outright
    // instead of NACKing it into a refresh-retry loop.
    p.code = StatusCode::kInvalidArgument;
    return p;
  }
  p.chain = ChainForKey(key);
  p.idx = replication::IndexIn(p.chain, vnode);
  // Shipped reads skip the hop check (the shipper rewrote the target); the
  // sender's hop only addresses first-touch requests.
  if (p.idx >= 0 && (shipped || p.idx == hop)) p.code = StatusCode::kOk;
  return p;
}

bool Node::Refused(const Placement& p, sim::EndpointId reply_to,
                   uint64_t req_id) {
  if (p.code == StatusCode::kOk) return false;
  if (p.code == StatusCode::kWrongView) {
    SendNack(reply_to, req_id);
    return true;
  }
  if (p.code == StatusCode::kUnavailable) ++stats_->store_unavailable_nacks;
  RespondToClient(reply_to, req_id, p.code, p.info->local_store, std::nullopt);
  return true;
}

bool Node::Filling(VNodeId vnode, std::optional<uint64_t> keypos) const {
  if (keypos) return view_.IsFilling(vnode, *keypos);
  return std::any_of(view_.filling.begin(), view_.filling.end(),
                     [vnode](const cluster::FillingRange& f) {
                       return f.vnode == vnode;
                     });
}

void Node::HandleClientRequest(ClientRequestMsg req) {
  ++stats_->client_requests;
  if (req.op == engine::OpType::kGet) {
    HandleGet(std::move(req));
    return;
  }
  if (req.op == engine::OpType::kScan) {
    HandleScan(std::move(req));
    return;
  }
  // Writes enter at the head of the chain.
  Placement p = Place(req.op, req.vnode, req.key, req.hop, /*shipped=*/false);
  if (p.code == StatusCode::kOk && p.idx != 0) p.code = StatusCode::kWrongView;
  if (Refused(p, req.reply_to, req.req_id)) return;
  ++stats_->writes_headed;
  ChainWriteMsg w;
  w.write_id = MakeWriteId();
  w.is_del = (req.op == engine::OpType::kDel);
  w.key = std::move(req.key);
  w.value = std::move(req.value);
  w.vnode = req.vnode;
  w.hop = 0;
  w.view_epoch = view_.epoch;
  w.reply_to = req.reply_to;
  w.req_id = req.req_id;
  HandleChainWrite(std::move(w));
}

void Node::HandleGet(ClientRequestMsg req) {
  const Placement p = Place(req.op, req.vnode, req.key, req.hop, req.shipped);
  if (Refused(p, req.reply_to, req.req_id)) return;

  auto& rep = Replica(req.vnode);
  const uint64_t keypos = cluster::HashRing::KeyPosition(req.key);
  const bool is_tail = p.is_tail();
  const bool filling = view_.IsFilling(req.vnode, keypos);
  const bool dirty =
      !config_.test_only_serve_dirty_reads && rep.IsDirty(req.key);
  // CRAQ ablation: a dirty (but data-complete) replica resolves the read
  // with a version query to the tail instead of shipping it.
  if (config_.crrs && config_.craq_version_query && dirty && !filling &&
      !req.shipped && !is_tail) {
    VNodeId tail = p.chain.back();
    const cluster::VNodeInfo* tinfo = view_.Find(tail);
    if (tinfo && node_endpoints_ && node_endpoints_->contains(tinfo->owner_node)) {
      ++stats_->craq_queries_sent;
      uint64_t qid = next_craq_id_++;
      trace_->Record(sim_.Now(), obs::TraceKind::kCraqQuery, node_id_,
                     req.vnode, qid);
      craq_pending_[qid] = std::move(req);
      CraqQueryMsg query;
      query.query_id = qid;
      query.key = craq_pending_[qid].key;
      query.tail_vnode = tail;
      query.reply_to = endpoint_;
      SendMsg(node_endpoints_->at(tinfo->owner_node), std::move(query));
      // Bound the park: if the query or its reply is dropped (or the tail
      // fails over), the entry would otherwise leak past the client timeout.
      sim_.Schedule(kCraqQueryTimeout,
                    [this, qid] { ReapCraqQuery(qid); });
      return;
    }
  }

  const bool must_ship =
      !req.shipped &&
      (filling ||                                        // incomplete data here
       (config_.crrs && !config_.craq_version_query && dirty) ||  // CRRS ship
       (!config_.crrs && !is_tail));                     // baseline CR: tail only
  if (must_ship) {
    ShipRead(std::move(req), p, keypos);
    return;
  }

  if (req.shipped && dirty && !is_tail) {
    // A shipped read normally lands at the tail, whose store always holds
    // the latest committed value. This one landed on a dirty *mid* replica
    // instead (the true tail is filling, so the shipper picked the
    // tail-most data-complete member). Serving the store now could return
    // the pre-commit value even though the tail already acked the writer —
    // a client-visible stale read (found by the linearizability checker,
    // docs/CHECKING.md). Park until the key's pending writes drain; the
    // client's request timeout bounds the wait.
    parked_reads_[{req.vnode, req.key}].push_back(std::move(req));
    return;
  }

  ServeGetLocally(std::move(req), p.info->local_store);
}

void Node::ShipRead(ClientRequestMsg req, const Placement& p,
                    std::optional<uint64_t> keypos) {
  // Ship to the tail-most chain member that is data-complete for the read
  // (§3.7: the tail always commits the latest write).
  VNodeId target = cluster::kInvalidVNode;
  for (auto it = p.chain.rbegin(); it != p.chain.rend(); ++it) {
    if (*it == req.vnode || Filling(*it, keypos)) continue;
    target = *it;
    break;
  }
  const cluster::VNodeInfo* tinfo = target != cluster::kInvalidVNode
                                        ? view_.Find(target)
                                        : nullptr;
  if (!tinfo || !node_endpoints_ || !node_endpoints_->contains(tinfo->owner_node)) {
    RespondToClient(req.reply_to, req.req_id, StatusCode::kUnavailable,
                    p.info->local_store, std::nullopt);
    return;
  }
  ++stats_->reads_shipped;
  trace_->Record(sim_.Now(), obs::TraceKind::kCrrsShip, node_id_, req.vnode,
                 req.req_id, static_cast<int64_t>(target));
  req.vnode = target;
  req.shipped = true;
  SendMsg(node_endpoints_->at(tinfo->owner_node), std::move(req));
}

void Node::HandleScan(ClientRequestMsg req, uint32_t attempt) {
  const Placement p = Place(req.op, req.vnode, req.key, req.hop, req.shipped);
  if (Refused(p, req.reply_to, req.req_id)) return;
  // Data completeness: fill progress is tracked per key position but the
  // scan spans an arbitrary key range, so any fill activity on this vnode
  // disqualifies the whole replica (it may be missing keys anywhere in the
  // range). Ship to a chain member with no fill activity at all.
  if (!req.shipped && (Filling(req.vnode, std::nullopt) ||
                       (!config_.crrs && !p.is_tail()))) {
    ShipRead(std::move(req), p, std::nullopt);
    return;
  }
  const uint32_t local_store = p.info->local_store;

  // Atomic snapshot of the range index (synchronous: one sim event). The
  // fetch phase below may observe kBusy if compaction moves a
  // value afterwards, but never a torn mix of index generations.
  std::vector<store::ScanLoc> snapshot =
      storage_->ScanSnapshot(local_store, req.key, req.scan_limit);

  // Per-key serve guard. The snapshot walks the store's whole ordered
  // index, and every key in it demands its own safety argument:
  //  - Chains are ring windows, so this store serves each key through
  //    whichever of this node's vnodes sits in THAT key's chain — as tail
  //    for some keys and head/mid for others (the placement above
  //    describes only the start key's chain).
  //  - A recovered (or drained) store can still index keys for arcs it no
  //    longer owns: point ops never route here for them, but a scan would
  //    happily return the leftover — and possibly stale — values. Drop
  //    any key whose current chain does not pass through this store.
  //  - A filling member may not have backfilled a key yet; drop it (a
  //    scan is limit-truncated anyway, and the checker never infers
  //    absence from scan results).
  //  - CRRS torn-scan guard: a non-tail member's store holds only
  //    *applied* writes, so during a key's dirty window the value here may
  //    already be superseded by a commit the tail acked. Park until the
  //    window drains; the tail serves dirty keys safely (it applies before
  //    acking). This is the guard test_only_serve_torn_scans disables.
  size_t kept = 0;
  for (size_t i = 0; i < snapshot.size(); ++i) {
    store::ScanLoc& loc = snapshot[i];
    auto kchain = ChainForKey(loc.key);
    VNodeId member = cluster::kInvalidVNode;
    for (VNodeId v : kchain) {
      const cluster::VNodeInfo* vi = OwnedVNode(v);
      if (vi && vi->local_store == local_store) {
        member = v;
        break;
      }
    }
    if (member == cluster::kInvalidVNode) {
      continue;  // stale-arc leftover
    }
    const uint64_t kpos = cluster::HashRing::KeyPosition(loc.key);
    if (view_.IsFilling(member, kpos)) {
      continue;  // not backfilled yet
    }
    if (!config_.test_only_serve_torn_scans &&
        Replica(member).IsDirty(loc.key) && kchain.back() != member) {
      ++stats_->scans_parked;
      parked_reads_[{member, loc.key}].push_back(std::move(req));
      return;
    }
    if (kept != i) snapshot[kept] = std::move(loc);
    ++kept;
  }
  snapshot.resize(kept);
  ServeScanLocally(std::move(req), local_store, std::move(snapshot), attempt);
}

void Node::ServeScanLocally(ClientRequestMsg req, uint32_t local_store,
                            std::vector<store::ScanLoc> snapshot,
                            uint32_t attempt) {
  engine::Request sreq;
  sreq.type = engine::OpType::kScan;
  sreq.key = req.key;
  sreq.store_id = local_store;
  sreq.tenant = req.tenant;
  sreq.scan_limit = req.scan_limit;
  sreq.scan_snapshot = std::move(snapshot);
  auto shared = std::make_shared<ClientRequestMsg>(std::move(req));
  sreq.scan_callback = [this, shared, local_store, attempt](
                           Status st, std::vector<store::ScanItem> items,
                           engine::ResponseMeta meta) {
    if (st.IsBusy() && attempt + 1 < kMaxInternalRetries) {
      // Compaction recycled a snapshot location mid-fetch: take a fresh
      // snapshot and retry. Bounded — a store compacting faster than it can
      // be scanned eventually surfaces as kOverloaded to the client.
      ++stats_->internal_retries;
      sim_.Schedule(kInternalRetryDelay, [this, shared, attempt] {
        if (failed_) return;
        HandleScan(std::move(*shared), attempt + 1);
      });
      return;
    }
    ++stats_->scans_served;
    stats_->scan_items_returned += items.size();
    RespondToClient(shared->reply_to, shared->req_id,
                    st.IsBusy() ? StatusCode::kOverloaded : st.code(),
                    local_store, meta.available_tokens, {}, std::move(items));
  };
  storage_->Submit(std::move(sreq));
}

void Node::ServeParkedReads(VNodeId vnode, const std::string& key) {
  auto it = parked_reads_.find(std::make_pair(vnode, key));
  if (it == parked_reads_.end()) return;
  if (Replica(vnode).IsDirty(key)) return;  // a pending write remains
  std::vector<ClientRequestMsg> reqs = std::move(it->second);
  parked_reads_.erase(it);
  const cluster::VNodeInfo* info = OwnedVNode(vnode);
  for (auto& req : reqs) {
    if (!info) {
      SendNack(req.reply_to, req.req_id);
      continue;
    }
    if (req.op == engine::OpType::kScan) {
      // Re-enter the scan path: it re-snapshots the index and re-checks the
      // dirty set (another key in range may have gone dirty meanwhile).
      HandleScan(std::move(req));
    } else {
      ServeGetLocally(std::move(req), info->local_store);
    }
  }
}

void Node::SweepParkedReads() {
  // Snapshot the keys first: serving/nacking mutates the map.
  std::vector<std::pair<VNodeId, std::string>> keys;
  keys.reserve(parked_reads_.size());
  for (const auto& [k, reqs] : parked_reads_) {
    (void)reqs;
    keys.push_back(k);
  }
  for (auto& [vnode, key] : keys) {
    if (!OwnedVNode(vnode)) {
      // Ownership moved away with the view; bounce the reads back to the
      // clients so they re-resolve against the new chain.
      auto it = parked_reads_.find(std::make_pair(vnode, key));
      if (it == parked_reads_.end()) continue;
      for (auto& req : it->second) SendNack(req.reply_to, req.req_id);
      parked_reads_.erase(it);
      continue;
    }
    ServeParkedReads(vnode, key);
  }
}

void Node::ServeGetLocally(ClientRequestMsg req, uint32_t local_store) {
  engine::Request sreq;
  sreq.type = engine::OpType::kGet;
  sreq.key = std::move(req.key);
  sreq.store_id = local_store;
  sreq.tenant = req.tenant;
  auto reply_to = req.reply_to;
  auto req_id = req.req_id;
  sreq.callback = [this, reply_to, req_id, local_store](
                      Status st, std::vector<uint8_t> value,
                      engine::ResponseMeta meta) {
    ++stats_->gets_served;
    RespondToClient(reply_to, req_id, st.code(), local_store,
                    meta.available_tokens, std::move(value));
  };
  storage_->Submit(std::move(sreq));
}

bool Node::TryOffloadGet(ClientRequestMsg& req) {
  // The offload engine's frame filter serves a strict subset of what
  // HandleGet serves locally (see DESIGN.md §10): the same placement check,
  // then anything ambiguous — filling or dirty replica, non-tail under
  // plain CR, shipped read landing anywhere but the tail — punts back to
  // the CPU path, which re-runs the full logic. The filter itself is free
  // (fixed-function hardware) and replies to nothing; the engine-level
  // index consultation is what a punt pays for.
  if (!leed_engine_ || req.op != engine::OpType::kGet) return false;
  const Placement p = Place(req.op, req.vnode, req.key, req.hop, req.shipped);
  if (p.code != StatusCode::kOk) return false;
  if (view_.IsFilling(req.vnode, cluster::HashRing::KeyPosition(req.key))) {
    return false;
  }
  if (req.shipped && !p.is_tail()) {
    // Shipped read diverted to a data-complete mid replica (true tail is
    // filling) — HandleGet may have to park it; too subtle for the filter.
    return false;
  }
  if (config_.crrs) {
    // First-touch reads punt on the dirty bit — the CPU path ships them.
    // Shipped reads already landed on the tail (checked above) and skip
    // it: the tail's store value is committed throughout its dirty window
    // (the window IS the in-flight commit apply), so serving it returns
    // exactly what HandleGet's local path would. This is the real dirty
    // bit, NOT the test_only_serve_dirty_reads view of it: the offload
    // filter is hardware and does not inherit the mutation, so the
    // planted dirty-read bug still flows through the CPU path for the
    // checker to catch.
    if (!req.shipped && Replica(req.vnode).IsDirty(req.key)) return false;
  } else if (!p.is_tail()) {
    return false;  // baseline CR: only the tail serves reads
  }

  engine::Request sreq;
  sreq.type = engine::OpType::kGet;
  sreq.key = req.key;  // copy: req must stay intact if the engine punts
  sreq.store_id = p.info->local_store;
  sreq.tenant = req.tenant;
  sreq.callback = [this, reply_to = req.reply_to, req_id = req.req_id,
                   local_store = p.info->local_store](
                      Status st, std::vector<uint8_t> value,
                      engine::ResponseMeta meta) {
    ++stats_->gets_served;
    ++stats_->offload_gets;
    // The offload engine replies from its own DMA path: no tx cycles.
    RespondToClient(reply_to, req_id, st.code(), local_store,
                    meta.available_tokens, std::move(value), {},
                    /*charge_tx=*/false);
  };
  if (!leed_engine_->TrySubmitOffload(sreq)) return false;
  ++stats_->client_requests;
  return true;
}

void Node::HandleCraqQuery(CraqQueryMsg query) {
  // The tail is the serialization point (§3.7): answering here orders the
  // read against every committed write.
  ++stats_->craq_queries_answered;
  CraqReplyMsg reply;
  reply.query_id = query.query_id;
  SendMsg(query.reply_to, std::move(reply));
}

void Node::HandleCraqReply(CraqReplyMsg reply) {
  auto it = craq_pending_.find(reply.query_id);
  if (it == craq_pending_.end()) return;
  ClientRequestMsg req = std::move(it->second);
  craq_pending_.erase(it);
  const cluster::VNodeInfo* info = OwnedVNode(req.vnode);
  if (!info) {
    SendNack(req.reply_to, req.req_id);
    return;
  }
  // Serve the last *committed* local copy (pending writes have not been
  // applied to the store yet, so the store read is exactly the committed
  // version the tail serialized us against).
  ServeGetLocally(std::move(req), info->local_store);
}

void Node::ReapCraqQuery(uint64_t qid) {
  if (failed_) return;
  auto it = craq_pending_.find(qid);
  if (it == craq_pending_.end()) return;  // answered in time
  ++stats_->craq_queries_reaped;
  ClientRequestMsg req = std::move(it->second);
  craq_pending_.erase(it);
  // NACK so the client re-resolves and retries; serving the store here
  // without the tail's answer could return a pre-commit value.
  SendNack(req.reply_to, req.req_id);
}

// ---------------------------------------------------------------------------
// Chain writes
// ---------------------------------------------------------------------------

void Node::HandleChainWrite(ChainWriteMsg w) {
  ++stats_->chain_writes;
  trace_->Record(sim_.Now(), obs::TraceKind::kChainHop, node_id_, w.vnode,
                 w.write_id, w.hop);
  const Placement p =
      Place(w.is_del ? engine::OpType::kDel : engine::OpType::kPut, w.vnode,
            w.key, w.hop, /*shipped=*/false);
  if (Refused(p, w.reply_to, w.req_id)) return;
  auto& rep = Replica(w.vnode);
  if (rep.SeenApplied(w.write_id)) return;  // duplicate after re-forward
  rep.RecordChainWrite(w.key);

  PendingWrite pw;
  pw.write_id = w.write_id;
  pw.is_del = w.is_del;
  pw.key = w.key;
  pw.value = w.value;  // shared with the forwarded message, not copied
  pw.reply_to = w.reply_to;
  pw.req_id = w.req_id;
  pw.view_epoch = w.view_epoch;

  if (p.is_tail()) {
    CommitAsTail(w.vnode, std::move(pw), p.chain);
    return;
  }
  rep.AddPending(std::move(pw));
  // Forward to the successor.
  VNodeId next = p.chain[p.idx + 1];
  const cluster::VNodeInfo* ninfo = view_.Find(next);
  if (!ninfo || !node_endpoints_ || !node_endpoints_->contains(ninfo->owner_node)) {
    return;  // successor unknown; a view update will re-forward
  }
  ChainWriteMsg fwd = std::move(w);
  fwd.vnode = next;
  fwd.hop = static_cast<uint8_t>(p.idx + 1);
  SendMsg(node_endpoints_->at(ninfo->owner_node), std::move(fwd));
}

void Node::CommitAsTail(VNodeId vnode, PendingWrite w,
                        const cluster::Chain& chain) {
  ++stats_->commits_as_tail;
  auto& rep = Replica(vnode);
  rep.RecordChainWrite(w.key);
  auto shared = std::make_shared<PendingWrite>(std::move(w));
  ApplyLocal(vnode, shared->is_del, shared->key, shared->value,
             [this, vnode, shared, chain](Status st) {
    auto& r = Replica(vnode);
    r.MarkApplied(shared->write_id);
    const cluster::VNodeInfo* info = OwnedVNode(vnode);
    const uint32_t store = info ? info->local_store : 0;
    RespondToClient(shared->reply_to, shared->req_id, st.code(), store,
                    storage_->AvailableTokens(storage_->ssd_of_store(store)));
    // The commit stamp is assigned in apply-completion order: that order
    // IS the commitment order clients observe, and replicas behind us
    // replay acked writes in stamp order per key.
    replication::CommitStamp stamp{view_.epoch, ++commit_seq_[vnode]};
    SendAckBackward(chain, vnode, shared->write_id, shared->key, st.ok(),
                    stamp);
  });
}

void Node::SendAckBackward(const cluster::Chain& chain, VNodeId self,
                           uint64_t write_id, const std::string& key,
                           bool success, replication::CommitStamp commit) {
  VNodeId prev = replication::PrevIn(chain, self);
  if (prev == cluster::kInvalidVNode) return;
  const cluster::VNodeInfo* pinfo = view_.Find(prev);
  if (!pinfo || !node_endpoints_ || !node_endpoints_->contains(pinfo->owner_node))
    return;
  ChainAckMsg ack;
  ack.write_id = write_id;
  ack.key = key;
  ack.vnode = prev;
  ack.success = success;
  ack.commit_epoch = commit.epoch;
  ack.commit_seq = commit.seq;
  SendMsg(node_endpoints_->at(pinfo->owner_node), std::move(ack));
}

void Node::HandleChainAck(ChainAckMsg ack) {
  ++stats_->chain_acks;
  const cluster::VNodeInfo* info = OwnedVNode(ack.vnode);
  if (!info) return;
  auto& rep = Replica(ack.vnode);
  if (!ack.success) {
    // Aborted at the tail: roll back by dropping the pending buffer
    // (§3.8.2's failed-tail old-value semantics) and propagate.
    if (!rep.TakePending(ack.write_id)) return;
    auto chain = ChainForKey(ack.key);
    SendAckBackward(chain, ack.vnode, ack.write_id, ack.key, false, {});
    ServeParkedReads(ack.vnode, ack.key);
    return;
  }
  const replication::CommitStamp stamp{ack.commit_epoch, ack.commit_seq};
  bool superseded = false;
  auto to_apply = rep.AdmitAck(ack.write_id, stamp, &superseded);
  if (superseded) {
    // Acks reordered on the wire: a strictly newer commit on this key was
    // already applied (or is applying) here, so the buffered value is
    // obsolete — drop it without touching the store and keep propagating.
    rep.TakePending(ack.write_id);
    auto chain = ChainForKey(ack.key);
    SendAckBackward(chain, ack.vnode, ack.write_id, ack.key, true, stamp);
    ServeParkedReads(ack.vnode, ack.key);
    return;
  }
  if (to_apply) ApplyAckedWrite(ack.vnode, *to_apply, ack.key);
}

void Node::ApplyAckedWrite(VNodeId vnode, uint64_t write_id, std::string key) {
  auto& rep = Replica(vnode);
  const PendingWrite* pw = rep.PeekPending(write_id);
  if (!pw) {
    // Resolved elsewhere (promotion drain / vnode drop): release the slot
    // and keep the per-key queue moving.
    if (auto next = rep.FinishApply(key)) {
      ApplyAckedWrite(vnode, *next, key);
    } else {
      ServeParkedReads(vnode, key);
    }
    return;
  }
  // The pending entry (and with it the key's dirty bit) must survive until
  // the local apply completes: the tail has already acked the client, so a
  // clear dirty bit with the old value still in the store is a
  // client-visible stale read (caught by the linearizability checker).
  auto shared = std::make_shared<PendingWrite>(*pw);
  ApplyLocal(vnode, shared->is_del, shared->key, shared->value,
             [this, vnode, shared](Status) {
    auto& r = Replica(vnode);
    r.MarkApplied(shared->write_id);
    r.TakePending(shared->write_id);
    auto chain = ChainForKey(shared->key);
    SendAckBackward(chain, vnode, shared->write_id, shared->key, true,
                    shared->commit);
    if (auto next = r.FinishApply(shared->key)) {
      ApplyAckedWrite(vnode, *next, shared->key);
    } else {
      ServeParkedReads(vnode, shared->key);
    }
  });
}

void Node::ApplyLocal(VNodeId vnode, bool is_del, std::string key,
                      SharedBytes value,
                      std::function<void(Status)> done, uint32_t attempt) {
  const cluster::VNodeInfo* info = view_.Find(vnode);
  if (!info || info->owner_node != node_id_) {
    done(Status::Unavailable("vnode moved away"));
    return;
  }
  engine::Request req;
  req.type = is_del ? engine::OpType::kDel : engine::OpType::kPut;
  req.key = key;
  req.value = value;
  req.store_id = info->local_store;
  // The key and value stay here for an overload retry.
  req.callback = [this, vnode, is_del, key = std::move(key), value = std::move(value),
                  done = std::move(done), attempt](
                     Status st, std::vector<uint8_t>, engine::ResponseMeta) mutable {
    if (st.IsOverloaded()) {
      // Chain obligations cannot be silently dropped: retry with capped
      // exponential backoff. If the store never drains, give up and fail
      // the write — the chain propagates the failed ack and the client
      // retries end-to-end, instead of this node spinning forever.
      if (attempt + 1 >= kMaxInternalRetries) {
        ++stats_->obligation_giveups;
        done(Status::Unavailable("local apply still overloaded after retries"));
        return;
      }
      ++stats_->internal_retries;
      ++stats_->obligation_retries;
      const SimTime delay = kInternalRetryDelay
                            << std::min<uint32_t>(attempt, 6);
      sim_.Schedule(delay,
                    [this, vnode, is_del, attempt, k = std::move(key),
                     v = std::move(value), d = std::move(done)]() mutable {
                      ApplyLocal(vnode, is_del, std::move(k), std::move(v),
                                 std::move(d), attempt + 1);
                    });
      return;
    }
    done(std::move(st));
  };
  storage_->Submit(std::move(req));
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

void Node::RespondToClient(sim::EndpointId reply_to, uint64_t req_id,
                           StatusCode code, uint32_t local_store,
                           std::optional<uint32_t> tokens,
                           std::vector<uint8_t> value,
                           std::vector<store::ScanItem> items, bool charge_tx) {
  if (crashed_ || reply_to == sim::kInvalidEndpoint) return;
  ResponseMsg resp;
  resp.req_id = req_id;
  resp.code = code;
  resp.value = std::move(value);
  resp.scan_items = std::move(items);
  resp.node = node_id_;
  resp.ssd = storage_->ssd_of_store(local_store);
  if (tokens) {
    resp.tokens = *tokens;
    resp.has_tokens = true;
  }
  if (charge_tx) {
    SendMsg(reply_to, std::move(resp));
  } else {
    net_.Send(endpoint_, reply_to, std::move(resp));
  }
}

void Node::SendNack(sim::EndpointId reply_to, uint64_t req_id) {
  if (reply_to == sim::kInvalidEndpoint) return;
  ++stats_->nacks_sent;
  ResponseMsg resp;
  resp.req_id = req_id;
  resp.code = StatusCode::kWrongView;
  resp.node = node_id_;
  SendMsg(reply_to, std::move(resp));
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

void Node::HandleViewUpdate(cluster::ViewUpdateMsg update) {
  if (update.view.epoch <= view_.epoch) return;
  ++stats_->view_updates;
  view_ = std::move(update.view);
  serving_ring_ = view_.ServingRing();
  RefreshFillTracking();
  ReforwardPending();
  // Re-forwarding drops/promotes pending writes, which can close dirty
  // windows; ownership may also have moved away entirely.
  SweepParkedReads();
  // The tail we queried may no longer be the tail under the new view; its
  // answer (if it ever comes) no longer serializes the read. NACK the lot.
  if (!craq_pending_.empty()) {
    std::map<uint64_t, ClientRequestMsg> pending;
    pending.swap(craq_pending_);
    for (auto& [qid, req] : pending) {
      (void)qid;
      ++stats_->craq_queries_reaped;
      SendNack(req.reply_to, req.req_id);
    }
  }
}

void Node::RefreshFillTracking() {
  for (const auto& [id, info] : view_.vnodes) {
    if (info.owner_node != node_id_) continue;
    const bool filling_any = Filling(id, std::nullopt);
    auto& rep = Replica(id);
    if (filling_any && !rep.fill_tracking()) rep.StartFillTracking();
    if (!filling_any && rep.fill_tracking()) rep.StopFillTracking();
  }
}

void Node::ReforwardPending() {
  for (auto& [vnode, rep] : replicas_) {
    const cluster::VNodeInfo* info = OwnedVNode(vnode);
    if (!info) continue;
    // Snapshot ids first: commits mutate the pending map.
    std::vector<uint64_t> ids;
    ids.reserve(rep.pending().size());
    for (const auto& [id, w] : rep.pending()) {
      (void)w;
      ids.push_back(id);
    }
    for (uint64_t id : ids) {
      const auto* w = rep.PeekPending(id);
      if (!w) continue;
      auto chain = ChainForKey(w->key);
      int idx = replication::IndexIn(chain, vnode);
      if (idx < 0) {
        // This vnode no longer serves the key: drop the obligation.
        rep.TakePending(id);
        continue;
      }
      if (idx == static_cast<int>(chain.size()) - 1) {
        // Promoted to tail: commit now (§3.8.2 penultimate-node rule).
        auto taken = rep.TakePending(id);
        if (taken) CommitAsTail(vnode, std::move(*taken), chain);
        continue;
      }
      // Still mid/head: re-forward to the (possibly new) successor.
      VNodeId next = chain[idx + 1];
      const cluster::VNodeInfo* ninfo = view_.Find(next);
      if (!ninfo || !node_endpoints_ || !node_endpoints_->contains(ninfo->owner_node))
        continue;
      ++stats_->pending_reforwards;
      ChainWriteMsg fwd;
      fwd.write_id = w->write_id;
      fwd.is_del = w->is_del;
      fwd.key = w->key;
      fwd.value = w->value;
      fwd.vnode = next;
      fwd.hop = static_cast<uint8_t>(idx + 1);
      fwd.view_epoch = view_.epoch;
      fwd.reply_to = w->reply_to;
      fwd.req_id = w->req_id;
      SendMsg(node_endpoints_->at(ninfo->owner_node), std::move(fwd));
    }
  }
}

// ---------------------------------------------------------------------------
// COPY (§3.8)
// ---------------------------------------------------------------------------

void Node::HandleCopyCommand(cluster::CopyCommandMsg cmd) {
  const cluster::VNodeInfo* info = OwnedVNode(cmd.src);
  if (!info || !leed_engine_) {
    // Baselines do not participate in membership-change benches; complete
    // the copy trivially so the control plane is not wedged.
    cluster::CopyDoneMsg done;
    done.copy_id = cmd.copy_id;
    done.dst = cmd.dst;
    SendMsg(cp_endpoint_, std::move(done));
    return;
  }
  auto ds = &leed_engine_->data_store(info->local_store);
  const uint64_t start = cmd.range_start;
  const uint64_t end = cmd.range_end;
  auto want = [start, end](std::string_view key) {
    const uint64_t pos = cluster::HashRing::KeyPosition(key);
    if (start == end) return true;
    if (start < end) return pos > start && pos <= end;
    return pos > start || pos <= end;
  };
  const auto copy_id = cmd.copy_id;
  const auto dst = cmd.dst;
  const auto dst_ep = cmd.dst_endpoint;
  const auto epoch = cmd.transition_epoch;
  ds->CopyOut(
      want,
      [this, copy_id, dst, dst_ep, epoch](std::string key,
                                          std::vector<uint8_t> value) {
        ++stats_->copy_items_sent;
        cluster::CopyItemMsg item;
        item.copy_id = copy_id;
        item.dst = dst;
        item.transition_epoch = epoch;
        item.key = std::move(key);
        item.value = std::move(value);
        NetCore().Charge(config_.net_tx_cycles);
        net_.Send(endpoint_, dst_ep, std::move(item));
      },
      [this, copy_id, dst, dst_ep, epoch](Status) {
        cluster::CopyItemMsg last;
        last.copy_id = copy_id;
        last.dst = dst;
        last.transition_epoch = epoch;
        last.last = true;
        NetCore().Charge(config_.net_tx_cycles);
        net_.Send(endpoint_, dst_ep, std::move(last));
      });
}

void Node::HandleCopyItem(cluster::CopyItemMsg item) {
  auto& ci = copy_in_[item.copy_id];
  auto finish_if_done = [this, copy_id = item.copy_id] {
    auto& c = copy_in_[copy_id];
    if (c.last_seen && c.outstanding == 0 && !c.done_sent) {
      c.done_sent = true;
      cluster::CopyDoneMsg done;
      done.copy_id = copy_id;
      SendMsg(cp_endpoint_, std::move(done));
    }
  };
  if (item.last) {
    ci.last_seen = true;
    finish_if_done();
    return;
  }
  auto& rep = Replica(item.dst);
  if (!rep.fill_tracking()) rep.StartFillTracking();
  if (rep.WasChainWritten(item.key)) {
    // The chain already wrote a newer version; the snapshot must not win.
    ++stats_->copy_items_skipped;
    return;
  }
  ci.outstanding++;
  trace_->Record(sim_.Now(), obs::TraceKind::kCopyItem, node_id_, item.dst,
                 item.copy_id);
  ApplyLocal(item.dst, /*is_del=*/false, std::move(item.key),
             std::move(item.value), [this, finish_if_done,
                                     copy_id = item.copy_id](Status) {
    auto& c = copy_in_[copy_id];
    if (c.outstanding > 0) c.outstanding--;
    ++stats_->copy_items_applied;
    finish_if_done();
  });
}

// ---------------------------------------------------------------------------
// Preload
// ---------------------------------------------------------------------------

void Node::DirectPut(uint32_t local_store, std::string key, SharedBytes value,
                     std::function<void(Status)> done) {
  if (leed_engine_) {
    leed_engine_->data_store(local_store).Put(std::move(key), std::move(value),
                                              std::move(done));
    return;
  }
  if (baseline_->config().kind == baselines::BaselineKind::kFawn) {
    baseline_->fawn(local_store).Put(std::move(key), value.bytes(), std::move(done));
  } else {
    baseline_->kvell(local_store).Put(std::move(key), value.bytes(), std::move(done));
  }
}

}  // namespace leed
