// Tests for the inter-JBOF flow control: token view bookkeeping and the
// Algorithm-1 scheduler, including the Nagle-probe arm and round-robin
// fairness across tenants.

#include <gtest/gtest.h>

#include <vector>

#include "flowctl/flow_control.h"
#include "flowctl/scheduler.h"

namespace leed::flowctl {
namespace {

TEST(TokenViewTest, AccountsStartOptimistic) {
  TokenView view(16);
  EXPECT_EQ(view.Account({0, 0}).tokens, 16);
  EXPECT_EQ(view.size(), 1u);
}

TEST(TokenViewTest, SendChargesAndResponseReplenishes) {
  TokenView view(10);
  SsdRef ref{1, 2};
  view.OnSend(ref, 3);
  EXPECT_EQ(view.Account(ref).tokens, 7);
  EXPECT_EQ(view.Account(ref).outstanding, 1u);
  view.OnResponse(ref, 42, 100);
  EXPECT_EQ(view.Account(ref).tokens, 42);
  EXPECT_EQ(view.Account(ref).outstanding, 0u);
}

TEST(TokenViewTest, TokensClampAtZero) {
  TokenView view(2);
  SsdRef ref{0, 0};
  view.OnSend(ref, 5);
  EXPECT_EQ(view.Account(ref).tokens, 0);
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : view_(10), sched_(view_) { tenant_ = sched_.AddTenant(); }

  OutRequest Req(SsdRef target, uint32_t cost, int id) {
    OutRequest r;
    r.target = target;
    r.token_cost = cost;
    r.send = [this, id] { sent_.push_back(id); };
    return r;
  }

  TokenView view_;
  FlowScheduler sched_;
  uint32_t tenant_;
  std::vector<int> sent_;
};

TEST_F(SchedulerTest, SendsWhileTokensLast) {
  SsdRef t{0, 0};
  // 10 initial tokens, cost 3: Alg1 sends while cost < tokens:
  // 10 -> 7 -> 4 (cost 3 < 4 sends) -> 1 (3 < 1 false; outstanding 3 > 1 so
  // the 4th defers).
  for (int i = 0; i < 4; ++i) sched_.Enqueue(tenant_, Req(t, 3, i));
  EXPECT_EQ(sent_, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sched_.QueuedTotal(), 1u);
  EXPECT_EQ(sched_.stats().sent_with_tokens, 3u);
  EXPECT_GT(sched_.stats().deferrals, 0u);
}

TEST_F(SchedulerTest, ResponseUnblocksDeferred) {
  SsdRef t{0, 0};
  for (int i = 0; i < 4; ++i) sched_.Enqueue(tenant_, Req(t, 3, i));
  ASSERT_EQ(sent_.size(), 3u);
  sched_.OnResponse(t, 20, 0);  // plenty of tokens now
  EXPECT_EQ(sent_.size(), 4u);
  EXPECT_EQ(sched_.QueuedTotal(), 0u);
}

TEST_F(SchedulerTest, NagleProbeFiresWhenNothingOutstanding) {
  SsdRef t{3, 1};
  // Exhaust the account first.
  view_.Account(t).tokens = 0;
  sched_.Enqueue(tenant_, Req(t, 2, 0));
  // Nothing outstanding to t -> the probe arm must send it anyway.
  EXPECT_EQ(sent_, (std::vector<int>{0}));
  EXPECT_EQ(sched_.stats().sent_as_probe, 1u);
  EXPECT_EQ(view_.Account(t).tokens, 0);

  // With >1 outstanding, the next zero-token request defers.
  view_.Account(t).outstanding = 3;
  sched_.Enqueue(tenant_, Req(t, 2, 1));
  EXPECT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sched_.QueuedTotal(), 1u);
}

// Regression: Visit used strict `<`, so a request whose cost exactly
// equaled the advertised tokens was deferred (or sent as a zero-token
// probe) instead of a normal send — against Algorithm 1's "tokens >= cost".
TEST_F(SchedulerTest, BoundaryCostEqualToTokensSendsNormally) {
  SsdRef t{2, 0};
  view_.Account(t).tokens = 3;
  view_.Account(t).outstanding = 4;  // deferral arm would trigger if taken
  sched_.Enqueue(tenant_, Req(t, 3, 7));
  EXPECT_EQ(sent_, (std::vector<int>{7}));
  EXPECT_EQ(sched_.stats().sent_with_tokens, 1u);
  EXPECT_EQ(sched_.stats().sent_as_probe, 0u);
  EXPECT_EQ(sched_.stats().deferrals, 0u);
  // OnSend charged the exact cost: the account is drained, not probed to 0.
  EXPECT_EQ(view_.Account(t).tokens, 0);
}

TEST_F(SchedulerTest, RoundRobinAcrossTenants) {
  uint32_t t2 = sched_.AddTenant();
  SsdRef a{0, 0}, b{1, 0};
  view_.Account(a).tokens = 100;
  view_.Account(b).tokens = 100;
  sched_.Enqueue(tenant_, Req(a, 2, 10));
  sched_.Enqueue(tenant_, Req(a, 2, 11));
  sched_.Enqueue(t2, Req(b, 2, 20));
  sched_.Enqueue(t2, Req(b, 2, 21));
  ASSERT_EQ(sent_.size(), 4u);
  // All sent; both tenants served (exact interleave depends on cursor).
  EXPECT_NE(std::find(sent_.begin(), sent_.end(), 20), sent_.end());
  EXPECT_NE(std::find(sent_.begin(), sent_.end(), 11), sent_.end());
}

TEST_F(SchedulerTest, DisabledBypassesTokens) {
  FlowScheduler raw(view_, /*enabled=*/false);
  uint32_t t = raw.AddTenant();
  SsdRef ref{0, 0};
  view_.Account(ref).tokens = 0;
  view_.Account(ref).outstanding = 10;
  int fired = 0;
  OutRequest r;
  r.target = ref;
  r.token_cost = 3;
  r.send = [&] { ++fired; };
  raw.Enqueue(t, std::move(r));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(raw.QueuedTotal(), 0u);
}

TEST_F(SchedulerTest, IndependentTargetsDontBlockEachOther) {
  SsdRef blocked{0, 0}, open{1, 0};
  view_.Account(blocked).tokens = 0;
  view_.Account(blocked).outstanding = 5;  // defers
  view_.Account(open).tokens = 100;
  sched_.Enqueue(tenant_, Req(blocked, 2, 0));
  sched_.Enqueue(tenant_, Req(open, 2, 1));
  // The blocked head defers (rotates back); the open-target request sends.
  EXPECT_EQ(sent_, (std::vector<int>{1}));
  EXPECT_EQ(sched_.QueuedTotal(), 1u);
}

}  // namespace
}  // namespace leed::flowctl
