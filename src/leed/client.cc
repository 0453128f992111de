#include "leed/client.h"

#include <algorithm>

#include "common/hash.h"
#include "replication/chain.h"

namespace leed {

using cluster::VNodeId;

namespace {
// Per-op token costs: the engine's defaults (GET 2 / PUT 3 / DEL 2).
constexpr engine::TokenConfig kTokenCosts{};

// The rest of ClientStats is private to the client.
constexpr obs::Field<ClientStats> kClientFields[] = {
    {"backoff_us", &ClientStats::backoff_us},
};
}  // namespace

Client::Client(sim::Simulator& simulator, Network& network,
               sim::EndpointId control_plane,
               const std::map<uint32_t, sim::EndpointId>* node_endpoints,
               ClientConfig config)
    : sim_(simulator),
      net_(network),
      cp_endpoint_(control_plane),
      node_endpoints_(node_endpoints),
      config_(std::move(config)),
      scope_(config_.metrics_prefix.empty()
                 ? obs::Scope(nullptr)
                 : obs::Scope(config_.metrics_registry, config_.metrics_prefix)),
      stats_(scope_.Resolve(kClientFields)),
      token_view_(config_.initial_tokens),
      backoff_rng_(Mix64(config_.backoff_seed ^ 0xbac0ffULL)) {
  endpoint_ = net_.AddEndpoint(sim::NicSpec{});  // 100GbE x86 client
  net_.SetReceiver(endpoint_, [this](Message m) { OnMessage(std::move(m)); });
  *stats_ = ClientStats{};
  scheduler_ = std::make_unique<flowctl::FlowScheduler>(
      token_view_, config_.flow_control, scope_.Sub("sched"));
  for (uint32_t i = 0; i < kClientTenants; ++i) scheduler_->AddTenant();
}

Client::~Client() = default;

void Client::AdoptView(cluster::ClusterView view) {
  if (view.epoch <= view_.epoch) return;
  view_ = std::move(view);
  serving_ring_ = view_.ServingRing();
}

void Client::Get(std::string key, GetCallback callback) {
  auto op = std::make_shared<Inflight>();
  op->op = engine::OpType::kGet;
  op->key = std::move(key);
  op->get_cb = std::move(callback);
  StartOp(std::move(op));
}

void Client::Put(std::string key, std::vector<uint8_t> value, OpCallback callback) {
  auto op = std::make_shared<Inflight>();
  op->op = engine::OpType::kPut;
  op->key = std::move(key);
  op->value = std::move(value);
  op->op_cb = std::move(callback);
  StartOp(std::move(op));
}

void Client::Del(std::string key, OpCallback callback) {
  auto op = std::make_shared<Inflight>();
  op->op = engine::OpType::kDel;
  op->key = std::move(key);
  op->op_cb = std::move(callback);
  StartOp(std::move(op));
}

void Client::Scan(std::string start_key, uint32_t limit, ScanCallback callback) {
  auto op = std::make_shared<Inflight>();
  op->op = engine::OpType::kScan;
  op->key = std::move(start_key);
  op->scan_limit = limit;
  op->scan_cb = std::move(callback);
  StartOp(std::move(op));
}

void Client::StartOp(std::shared_ptr<Inflight> op) {
  stats_->issued++;
  op->first_issued = sim_.Now();
  op->tenant = tenant_rr_++ % kClientTenants;
  if (config_.history) {
    check::OpKind kind = check::OpKind::kGet;
    uint64_t digest = 0;
    uint32_t size = static_cast<uint32_t>(op->value.size());
    if (op->op == engine::OpType::kPut) {
      kind = check::OpKind::kPut;
      digest = check::ValueDigest(op->value.bytes());
    } else if (op->op == engine::OpType::kDel) {
      kind = check::OpKind::kDel;
    } else if (op->op == engine::OpType::kScan) {
      kind = check::OpKind::kScan;
      size = op->scan_limit;  // the n= field carries the scan's limit
    }
    op->history_op = config_.history->RecordInvoke(
        config_.history_client_id, kind, op->key, digest, size, sim_.Now());
  }
  Issue(std::move(op));
}

bool Client::Route(const std::string& key, engine::OpType optype,
                   VNodeId* vnode, uint8_t* hop, flowctl::SsdRef* target) const {
  const uint64_t pos = cluster::HashRing::KeyPosition(key);
  auto chain = serving_ring_.ChainOf(pos, view_.replication_factor);
  if (chain.empty()) return false;

  int idx = 0;
  if (!engine::IsWriteOp(optype)) {
    // Reads and scans. Candidate replicas: not filling for this key (for a
    // scan, the start key — the serving node re-checks its whole fill state
    // and ships if any range is incomplete). CRRS picks the one advertising
    // the most tokens; baseline CR uses the tail.
    int best = -1;
    int64_t best_tokens = INT64_MIN;
    for (int i = static_cast<int>(chain.size()) - 1; i >= 0; --i) {
      if (view_.IsFilling(chain[i], pos)) continue;
      const cluster::VNodeInfo* info = view_.Find(chain[i]);
      if (!info) continue;
      if (!config_.crrs_reads) {
        best = i;  // tail-most non-filling member
        break;
      }
      flowctl::SsdRef ref{info->owner_node,
                          info->local_store / std::max(1u, config_.stores_per_ssd)};
      const flowctl::SsdAccount* acct = token_view_.Find(ref);
      int64_t tokens = acct ? acct->tokens : config_.initial_tokens;
      if (tokens > best_tokens) {
        best_tokens = tokens;
        best = i;
      }
    }
    if (best < 0) return false;
    idx = best;
  } else {
    idx = 0;  // writes enter at the head
  }

  const cluster::VNodeInfo* info = view_.Find(chain[idx]);
  if (!info) return false;
  *vnode = chain[idx];
  *hop = static_cast<uint8_t>(idx);
  *target = flowctl::SsdRef{info->owner_node,
                            info->local_store / std::max(1u, config_.stores_per_ssd)};
  return true;
}

void Client::Issue(std::shared_ptr<Inflight> op) {
  VNodeId vnode;
  uint8_t hop;
  flowctl::SsdRef target;
  if (!Route(op->key, op->op, &vnode, &hop, &target)) {
    // No routable chain yet (bootstrap or transition): retry later.
    RetryLater(op);
    return;
  }
  const cluster::VNodeInfo* info = view_.Find(vnode);
  auto ep_it = node_endpoints_->find(info->owner_node);
  if (ep_it == node_endpoints_->end()) {
    RetryLater(op);
    return;
  }
  const sim::EndpointId node_ep = ep_it->second;

  const uint64_t req_id = next_req_id_++;
  op->attempts++;
  op->last_target = target;
  inflight_[req_id] = op;

  // Armed here — not in the send continuation — so the clock covers time
  // spent queued in the flow scheduler too. A target SSD that died with our
  // tokens outstanding never replenishes them, so a queued request would
  // otherwise wait forever with no live event and wedge the client.
  auto timeout = [this, req_id] { OnTimeout(req_id); };
  static_assert(sim::EventFitsInline<decltype(timeout)>,
                "request timeout event must not heap-allocate");
  op->timeout_event = sim_.Schedule(config_.request_timeout, std::move(timeout));

  ClientRequestMsg msg;
  msg.req_id = req_id;
  msg.op = op->op;
  msg.key = op->key;
  if (op->op == engine::OpType::kPut) msg.value = op->value;
  msg.scan_limit = op->scan_limit;
  msg.vnode = vnode;
  msg.hop = hop;
  msg.view_epoch = view_.epoch;
  msg.tenant = config_.tenant_id;
  msg.reply_to = endpoint_;

  flowctl::OutRequest out;
  out.target = target;
  // Scans pre-charge for the limit — the upper bound of what the server may
  // return — with the same formula the engine settles on actual items, so
  // Algorithm-1's admission and the server-side charge agree.
  out.token_cost = op->op == engine::OpType::kScan
                       ? engine::ScanTokenCost(kTokenCosts, op->scan_limit)
                       : engine::TokenCost(kTokenCosts, op->op);
  out.send = [this, req_id, m = std::move(msg), node_ep]() mutable {
    if (!inflight_.contains(req_id)) return;  // timed out while queued
    stats_->sends++;
    net_.Send(endpoint_, node_ep, std::move(m));
  };
  // Lets the scheduler drop this entry untransmitted (and uncharged) if the
  // timeout wins the race while it is still queued.
  out.alive = [this, req_id] { return inflight_.contains(req_id); };
  scheduler_->Enqueue(op->tenant, std::move(out));
}

void Client::OnMessage(Message msg) {
  if (auto* view = std::get_if<cluster::ViewUpdateMsg>(msg.payload.get())) {
    AdoptView(std::move(view->view));
  } else if (auto* resp = std::get_if<ResponseMsg>(msg.payload.get())) {
    OnResponse(std::move(*resp));
  }
}

void Client::OnResponse(ResponseMsg resp) {
  auto it = inflight_.find(resp.req_id);
  // Token feedback applies even for stale (post-timeout) responses.
  flowctl::SsdRef ref{resp.node, resp.ssd};
  if (resp.has_tokens) {
    scheduler_->OnResponse(ref, resp.tokens, sim_.Now());
  } else {
    scheduler_->OnResponseNoTokens(ref);
  }
  if (it == inflight_.end()) return;
  auto op = it->second;
  inflight_.erase(it);
  if (op->timeout_event) {
    sim_.Cancel(op->timeout_event);
    op->timeout_event = 0;
  }

  switch (resp.code) {
    case StatusCode::kOk:
      Complete(op, Status::Ok(), std::move(resp.value),
               std::move(resp.scan_items));
      return;
    case StatusCode::kNotFound:
      Complete(op, Status::NotFound(), {});
      return;
    case StatusCode::kWrongView:
      stats_->nacks++;
      RequestViewRefresh();
      RetryLater(op);
      return;
    case StatusCode::kOverloaded:
      stats_->overloads++;
      RetryLater(op);
      return;
    case StatusCode::kUnavailable:
      // Degraded-mode NACK (failed store / draining node): refresh so the
      // next attempt can route around it once the failover view lands.
      RequestViewRefresh();
      RetryLater(op);
      return;
    case StatusCode::kIoError:
      // A device-level failure on the serving store. The store is about to
      // latch failed and be failed over vnode-by-vnode; retrying under
      // backoff gives the next attempt a view that routes around it.
      RequestViewRefresh();
      RetryLater(op);
      return;
    default:
      Complete(op, Status(resp.code, "server error"), {});
      return;
  }
}

void Client::OnTimeout(uint64_t req_id) {
  auto it = inflight_.find(req_id);
  if (it == inflight_.end()) return;
  auto op = it->second;
  inflight_.erase(it);
  op->timeout_event = 0;
  stats_->timeouts++;
  // Release the outstanding slot so the Nagle probe can fire again.
  scheduler_->OnResponseNoTokens(op->last_target);
  RequestViewRefresh();  // the target may be dead
  RetryLater(op);
}

SimTime Client::BackoffDelay(const Inflight& op) {
  // attempts counts issues so far; the first retry (attempts == 1, or 0 when
  // routing failed before the issue) waits one base delay.
  const uint32_t k = op.attempts > 1 ? op.attempts - 1 : 0;
  SimTime delay = config_.retry_delay << std::min(k, 20u);
  delay = std::min(delay, kRetryDelayCap);
  const uint64_t span = static_cast<uint64_t>(delay / 4);
  if (span > 0) delay += backoff_rng_.NextBounded(span + 1);
  return delay;
}

void Client::RetryLater(std::shared_ptr<Inflight> op) {
  if (op->attempts >= config_.max_retries) {
    Complete(op, Status::Unavailable("retries exhausted"), {});
    return;
  }
  stats_->retries++;
  const SimTime delay = BackoffDelay(*op);
  stats_->backoff_us += static_cast<uint64_t>(delay / kMicrosecond);
  sim_.Schedule(delay, [this, op] { Issue(op); });
}

void Client::Complete(std::shared_ptr<Inflight> op, Status st,
                      std::vector<uint8_t> value,
                      std::vector<store::ScanItem> scan_items) {
  const SimTime latency = sim_.Now() - op->first_issued;
  if (config_.history && op->history_op != 0) {
    check::Outcome outcome = check::Outcome::kError;
    if (st.ok()) {
      outcome = check::Outcome::kOk;
    } else if (st.IsNotFound()) {
      outcome = check::Outcome::kNotFound;
    }
    if (op->op == engine::OpType::kScan) {
      std::vector<check::ScanObservation> obs;
      obs.reserve(scan_items.size());
      for (const auto& item : scan_items) {
        obs.push_back({item.key, check::ValueDigest(item.value)});
      }
      config_.history->RecordScanResponse(op->history_op, sim_.Now(), outcome,
                                          std::move(obs));
    } else {
      uint64_t digest = 0;
      uint32_t size = 0;
      if (op->op == engine::OpType::kGet && st.ok()) {
        digest = check::ValueDigest(value);
        size = static_cast<uint32_t>(value.size());
      }
      config_.history->RecordResponse(op->history_op, sim_.Now(), outcome,
                                      digest, size);
    }
    op->history_op = 0;
  }
  if (st.ok()) {
    stats_->ok++;
  } else if (st.IsNotFound()) {
    stats_->not_found++;
  } else {
    stats_->failed++;
  }
  stats_->latency_us.Record(ToMicros(latency));
  if (op->op == engine::OpType::kGet) {
    op->get_cb(std::move(st), std::move(value), latency);
  } else if (op->op == engine::OpType::kScan) {
    op->scan_cb(std::move(st), std::move(scan_items), latency);
  } else {
    op->op_cb(std::move(st), latency);
  }
}

void Client::RequestViewRefresh() {
  cluster::ViewRequestMsg req;
  req.reply_to = endpoint_;
  net_.Send(endpoint_, cp_endpoint_, std::move(req));
}

}  // namespace leed
