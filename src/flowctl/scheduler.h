// The front-end load-aware scheduler — Algorithm 1 of the paper, verbatim.
//
//   for T in AllTenants (round-robin):
//     req = T.req_queue.dequeue()
//     if req.token < MappedSSDs(req.target).tokens:  submit, charge tokens
//     elif OutReqs(req.target) > 1:                  requeue (stay queued)
//     else:                                          zero the account and
//                                                    submit anyway
// The last arm is the Nagle-style probe: when nothing is outstanding to a
// target, there is no response in flight to replenish our view, so we must
// send *something* or deadlock; sending one request with the account zeroed
// guarantees exactly one probe until its piggybacked reply arrives.
//
// The scheduler is event-driven rather than a polling loop: Pump() runs a
// burst of Algorithm-1 rounds whenever a request is enqueued or a response
// replenishes tokens, stopping when a full round makes no progress.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "flowctl/flow_control.h"
#include "obs/metrics.h"

namespace leed::flowctl {

struct OutRequest {
  SsdRef target;
  uint32_t token_cost = 2;
  // Transmit the request. Fired at most once, from Pump().
  std::function<void()> send;
  // Optional liveness probe: false once the caller gave up on the request
  // (e.g. it timed out while still queued). A stale entry must be dropped
  // without charging the token view — OnSend with no wire message behind
  // it inflates `outstanding` forever and wedges the target's queue, since
  // nothing will ever respond to decrement it.
  std::function<bool()> alive;
};

// The scheduler's counts, in a registry-owned struct that publishes every
// field.
struct SchedulerStats {
  uint64_t enqueued = 0;
  uint64_t sent = 0;
  uint64_t sent_with_tokens = 0;
  uint64_t sent_as_probe = 0;  // the Nagle arm
  uint64_t deferrals = 0;      // times a head request was requeued
  uint64_t cancelled = 0;      // stale (caller-abandoned) entries dropped
};

class FlowScheduler {
 public:
  // Counts into the SchedulerStats at `scope` (the client passes
  // "client<i>.sched"), which publishes every field and starts from zero.
  explicit FlowScheduler(TokenView& view, bool enabled = true,
                         obs::Scope scope = obs::Scope(nullptr));

  // Tenants are logical request streams sharing this front-end (Alg. 1's
  // AllTenants). Returns the tenant id.
  uint32_t AddTenant();
  size_t num_tenants() const { return tenants_.size(); }

  void Enqueue(uint32_t tenant, OutRequest request);

  // Feedback from the transport: a response for `target` arrived carrying a
  // token allocation. Updates the view and pumps.
  void OnResponse(SsdRef target, uint32_t available_tokens, SimTime now);
  void OnResponseNoTokens(SsdRef target);

  // Run Algorithm-1 rounds until no tenant can make progress.
  void Pump();

  // When disabled (Fig. 8 "w/o LS" baseline), requests are transmitted
  // immediately on Enqueue with no token consultation.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  size_t QueuedTotal() const;
  const SchedulerStats& stats() const { return *stats_; }

 private:
  // One Algorithm-1 visit to a tenant. Returns true if a request was sent.
  bool Visit(uint32_t tenant);

  TokenView& view_;
  bool enabled_;
  std::vector<std::deque<OutRequest>> tenants_;
  uint32_t rr_cursor_ = 0;
  bool pumping_ = false;
  obs::Scope scope_;
  SchedulerStats* stats_;  // registry-owned
};

}  // namespace leed::flowctl
