#include "flowctl/scheduler.h"

#include <algorithm>

namespace leed::flowctl {

namespace {
constexpr obs::Field<SchedulerStats> kSchedulerFields[] = {
    {"enqueued", &SchedulerStats::enqueued},
    {"sent", &SchedulerStats::sent},
    {"sent_with_tokens", &SchedulerStats::sent_with_tokens},
    {"sent_as_probe", &SchedulerStats::sent_as_probe},
    {"deferrals", &SchedulerStats::deferrals},
    {"cancelled", &SchedulerStats::cancelled},
};
}  // namespace

FlowScheduler::FlowScheduler(TokenView& view, bool enabled, obs::Scope scope)
    : view_(view),
      enabled_(enabled),
      scope_(std::move(scope)),
      stats_(scope_.Resolve(kSchedulerFields)) {
  scope_.ResetInstruments();
}

uint32_t FlowScheduler::AddTenant() {
  tenants_.emplace_back();
  return static_cast<uint32_t>(tenants_.size() - 1);
}

void FlowScheduler::Enqueue(uint32_t tenant, OutRequest request) {
  ++stats_->enqueued;
  if (!enabled_) {
    // Load-agnostic baseline: fire immediately, still tracking outstanding
    // counts so the view stays coherent if re-enabled.
    view_.OnSend(request.target, request.token_cost);
    ++stats_->sent;
    auto send = std::move(request.send);
    send();
    return;
  }
  tenants_.at(tenant).push_back(std::move(request));
  Pump();
}

void FlowScheduler::OnResponse(SsdRef target, uint32_t available_tokens,
                               SimTime now) {
  view_.OnResponse(target, available_tokens, now);
  if (enabled_) Pump();
}

void FlowScheduler::OnResponseNoTokens(SsdRef target) {
  view_.OnResponseNoTokens(target);
  if (enabled_) Pump();
}

bool FlowScheduler::Visit(uint32_t tenant) {
  auto& q = tenants_[tenant];
  if (q.empty()) return false;
  OutRequest req = std::move(q.front());
  q.pop_front();

  // Abandoned while queued (caller timed it out): drop it here, before any
  // token accounting. Charging OnSend for a request that will never reach
  // the wire leaks an `outstanding` slot that no response can release.
  if (req.alive && !req.alive()) {
    ++stats_->cancelled;
    return false;
  }

  SsdAccount& account = view_.Account(req.target);
  // Alg. 1's send condition is "tokens >= cost": a request whose cost
  // exactly matches the advertised tokens is a normal send, not a deferral
  // or a zero-token probe. Strict `<` here miscounted that boundary case.
  if (static_cast<int64_t>(req.token_cost) <= account.tokens) {
    // Alg. 1 L5-7: the target advertises capacity — send.
    view_.OnSend(req.target, req.token_cost);
    ++stats_->sent;
    ++stats_->sent_with_tokens;
    auto send = std::move(req.send);
    send();
    return true;
  }
  if (account.outstanding > 1) {
    // Alg. 1 L9-10: responses are in flight that will replenish the view;
    // rotate the request to the back and wait.
    ++stats_->deferrals;
    q.push_back(std::move(req));
    return false;
  }
  // Alg. 1 L11-13: Nagle-style probe — nothing outstanding means nothing
  // will ever replenish tokens unless we send.
  account.tokens = 0;
  view_.OnSend(req.target, req.token_cost);
  ++stats_->sent;
  ++stats_->sent_as_probe;
  auto send = std::move(req.send);
  send();
  return true;
}

void FlowScheduler::Pump() {
  if (pumping_) return;  // re-entrance from a synchronous send/response
  pumping_ = true;
  const size_t n = tenants_.size();
  bool progressed = true;
  while (progressed && n > 0) {
    progressed = false;
    for (size_t i = 0; i < n; ++i) {
      uint32_t t = rr_cursor_;
      rr_cursor_ = (rr_cursor_ + 1) % static_cast<uint32_t>(n);
      // A deferral rotates the head to the back (Alg. 1 L10), so requests
      // behind a blocked target still get their chance this round: visit
      // this tenant until a send or until the queue has rotated — but cap
      // the scan so a deep backlog at saturation cannot make every pump
      // O(queue) (Alg. 1's loop is likewise bounded by its timeout).
      size_t attempts = std::min<size_t>(tenants_[t].size(), 64);
      for (size_t a = 0; a < attempts; ++a) {
        if (Visit(t)) {
          progressed = true;
          break;
        }
      }
    }
  }
  pumping_ = false;
}

size_t FlowScheduler::QueuedTotal() const {
  size_t total = 0;
  for (const auto& q : tenants_) total += q.size();
  return total;
}

}  // namespace leed::flowctl
