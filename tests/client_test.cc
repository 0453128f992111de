// Unit tests for the front-end client library against a scripted fake
// node: routing (head for writes, token-richest replica for CRRS reads),
// NACK-triggered view refresh and retry, overload backoff, and timeout
// recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "leed/client.h"
#include "leed/wire.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace leed {
namespace {

class FakeNode {
 public:
  FakeNode(sim::Simulator& simulator, Network& net, uint32_t id)
      : sim_(simulator), net_(net), id_(id) {
    endpoint_ = net_.AddEndpoint(sim::NicSpec{});
    net_.SetReceiver(endpoint_, [this](Message m) {
      if (auto* req = std::get_if<ClientRequestMsg>(m.payload.get())) {
        requests.push_back(*req);
        if (!respond) return;  // scripted silence (timeout tests)
        ResponseMsg resp;
        resp.req_id = req->req_id;
        resp.code = next_code;
        resp.node = id_;
        resp.ssd = 0;
        resp.tokens = advertise_tokens;
        resp.has_tokens = true;
        if (next_code == StatusCode::kOk && req->op == engine::OpType::kGet) {
          resp.value = {1, 2, 3};
        }
        net_.Send(endpoint_, req->reply_to, std::move(resp));
        next_code = StatusCode::kOk;  // one-shot scripting
      }
    });
  }

  sim::EndpointId endpoint() const { return endpoint_; }

  std::vector<ClientRequestMsg> requests;
  bool respond = true;
  StatusCode next_code = StatusCode::kOk;
  uint32_t advertise_tokens = 64;

 private:
  sim::Simulator& sim_;
  Network& net_;
  uint32_t id_;
  sim::EndpointId endpoint_;
};

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : net_(sim_) {
    cp_endpoint_ = net_.AddEndpoint(sim::NicSpec{});
    net_.SetReceiver(cp_endpoint_, [this](Message m) {
      if (std::get_if<cluster::ViewRequestMsg>(m.payload.get())) {
        ++view_requests_;
        cluster::ViewUpdateMsg upd{view_};
        net_.Send(cp_endpoint_, m.src, std::move(upd));
      }
    });
    for (uint32_t i = 0; i < 3; ++i) {
      nodes_.push_back(std::make_unique<FakeNode>(sim_, net_, i));
      endpoints_[i] = nodes_[i]->endpoint();
    }
    // Three vnodes, one per node, equally spaced; R=3 -> every chain is
    // {a, b, c} in ring order from the key position.
    view_.epoch = 1;
    view_.replication_factor = 3;
    for (uint32_t i = 0; i < 3; ++i) {
      view_.vnodes[i] = cluster::VNodeInfo{
          i, i, 0, static_cast<uint64_t>(i) * (UINT64_MAX / 3),
          cluster::VNodeState::kRunning};
    }
  }

  std::unique_ptr<Client> MakeClient(ClientConfig cfg = {}) {
    cfg.stores_per_ssd = 1;
    auto c = std::make_unique<Client>(sim_, net_, cp_endpoint_, &endpoints_, cfg);
    c->AdoptView(view_);
    return c;
  }

  uint32_t HeadOwner(const std::string& key) {
    auto chain = view_.ChainForKey(key);
    return view_.Find(chain[0])->owner_node;
  }
  uint32_t TailOwner(const std::string& key) {
    auto chain = view_.ChainForKey(key);
    return view_.Find(chain.back())->owner_node;
  }

  sim::Simulator sim_;
  Network net_;
  sim::EndpointId cp_endpoint_;
  std::vector<std::unique_ptr<FakeNode>> nodes_;
  std::map<uint32_t, sim::EndpointId> endpoints_;
  cluster::ClusterView view_;
  int view_requests_ = 0;
};

TEST_F(ClientTest, WritesGoToChainHead) {
  auto client = MakeClient();
  bool done = false;
  client->Put("key1", {9}, [&](Status st, SimTime) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  uint32_t head = HeadOwner("key1");
  ASSERT_EQ(nodes_[head]->requests.size(), 1u);
  EXPECT_EQ(nodes_[head]->requests[0].hop, 0);
  EXPECT_EQ(nodes_[head]->requests[0].op, engine::OpType::kPut);
}

TEST_F(ClientTest, BaselineReadsGoToTail) {
  ClientConfig cfg;
  cfg.crrs_reads = false;
  auto client = MakeClient(cfg);
  bool done = false;
  client->Get("key1", [&](Status, std::vector<uint8_t>, SimTime) { done = true; });
  testutil::RunUntilFlag(sim_, done);
  uint32_t tail = TailOwner("key1");
  ASSERT_EQ(nodes_[tail]->requests.size(), 1u);
  EXPECT_EQ(nodes_[tail]->requests[0].hop, 2);
}

TEST_F(ClientTest, CrrsReadsPickTokenRichestReplica) {
  ClientConfig cfg;
  cfg.crrs_reads = true;
  auto client = MakeClient(cfg);
  // Teach the client that node 1's SSD is rich and the others are poor, by
  // issuing one probe round first.
  for (uint32_t i = 0; i < 3; ++i) nodes_[i]->advertise_tokens = (i == 1) ? 200 : 1;
  for (int r = 0; r < 3; ++r) {
    bool done = false;
    client->Get("probe" + std::to_string(r),
                [&](Status, std::vector<uint8_t>, SimTime) { done = true; });
    testutil::RunUntilFlag(sim_, done);
  }
  for (auto& n : nodes_) n->requests.clear();
  // Now reads should concentrate on node 1 (most tokens), regardless of key.
  int to_node1 = 0;
  for (int r = 0; r < 8; ++r) {
    bool done = false;
    client->Get("key" + std::to_string(r),
                [&](Status, std::vector<uint8_t>, SimTime) { done = true; });
    testutil::RunUntilFlag(sim_, done);
  }
  to_node1 = static_cast<int>(nodes_[1]->requests.size());
  EXPECT_GT(to_node1, 4);
}

TEST_F(ClientTest, NackTriggersViewRefreshAndRetry) {
  auto client = MakeClient();
  uint32_t head = HeadOwner("kx");
  nodes_[head]->next_code = StatusCode::kWrongView;  // first attempt NACKs
  bool done = false;
  Status final = Status::Internal("pending");
  client->Put("kx", {1}, [&](Status st, SimTime) {
    final = std::move(st);
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  EXPECT_TRUE(final.ok());  // retry succeeded
  EXPECT_GE(nodes_[head]->requests.size(), 2u);
  EXPECT_GE(view_requests_, 1);
  EXPECT_EQ(client->stats().nacks, 1u);
  EXPECT_GE(client->stats().retries, 1u);
}

TEST_F(ClientTest, OverloadBacksOffAndRetries) {
  auto client = MakeClient();
  uint32_t head = HeadOwner("ko");
  nodes_[head]->next_code = StatusCode::kOverloaded;
  bool done = false;
  client->Put("ko", {1}, [&](Status st, SimTime) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  EXPECT_EQ(client->stats().overloads, 1u);
  EXPECT_GE(client->stats().retries, 1u);
}

TEST_F(ClientTest, TimeoutRetriesAndEventuallyFails) {
  ClientConfig cfg;
  cfg.request_timeout = 2 * kMillisecond;
  cfg.max_retries = 3;
  auto client = MakeClient(cfg);
  for (auto& n : nodes_) n->respond = false;  // dead silence
  bool done = false;
  Status final = Status::Ok();
  client->Get("gone", [&](Status st, std::vector<uint8_t>, SimTime) {
    final = std::move(st);
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  ASSERT_TRUE(done);
  EXPECT_EQ(final.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client->stats().timeouts, 3u);  // all three attempts timed out
  EXPECT_GE(view_requests_, 1);             // timeout suspects a dead node
}

TEST_F(ClientTest, LatencySpansRetries) {
  ClientConfig cfg;
  cfg.request_timeout = 2 * kMillisecond;
  auto client = MakeClient(cfg);
  uint32_t head = HeadOwner("kr");
  nodes_[head]->respond = false;
  // Re-enable after the first timeout so the retry lands.
  sim_.Schedule(3 * kMillisecond, [&] { nodes_[head]->respond = true; });
  SimTime latency = 0;
  bool done = false;
  client->Put("kr", {1}, [&](Status st, SimTime lat) {
    EXPECT_TRUE(st.ok());
    latency = lat;
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  EXPECT_GT(latency, 2 * kMillisecond);  // includes the timed-out attempt
}

// Runs one client against dead-silent nodes until its retries exhaust and
// returns the total backoff it scheduled. Fresh simulator per call, so two
// calls with the same seed must be byte-identical.
uint64_t RunBackoffScenario(uint64_t seed) {
  sim::Simulator sim;
  Network net(sim);
  cluster::ClusterView view;
  view.epoch = 1;
  view.replication_factor = 3;
  sim::EndpointId cp = net.AddEndpoint(sim::NicSpec{});
  net.SetReceiver(cp, [&](Message m) {
    if (std::get_if<cluster::ViewRequestMsg>(m.payload.get())) {
      cluster::ViewUpdateMsg upd{view};
      net.Send(cp, m.src, std::move(upd));
    }
  });
  std::vector<std::unique_ptr<FakeNode>> nodes;
  std::map<uint32_t, sim::EndpointId> endpoints;
  for (uint32_t i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<FakeNode>(sim, net, i));
    nodes[i]->respond = false;  // every attempt times out
    endpoints[i] = nodes[i]->endpoint();
    view.vnodes[i] = cluster::VNodeInfo{
        i, i, 0, static_cast<uint64_t>(i) * (UINT64_MAX / 3),
        cluster::VNodeState::kRunning};
  }
  ClientConfig cfg;
  cfg.stores_per_ssd = 1;
  cfg.request_timeout = 1 * kMillisecond;
  cfg.max_retries = 5;
  cfg.backoff_seed = seed;
  Client client(sim, net, cp, &endpoints, cfg);
  client.AdoptView(view);
  bool done = false;
  client.Put("bk", {1}, [&](Status st, SimTime) {
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    done = true;
  });
  testutil::RunUntilFlag(sim, done);
  EXPECT_TRUE(done);
  EXPECT_GT(client.stats().backoff_us, 0u);
  return client.stats().backoff_us;
}

// Regression for retry desynchronization: the jitter must come from a
// deterministic per-client stream (byte-reproducible given backoff_seed),
// and distinct seeds must actually spread clients apart — if every client
// draws the same delays they re-collide on the recovering store forever.
TEST(ClientBackoffTest, BackoffIsSeededDeterministicJitter) {
  uint64_t a = RunBackoffScenario(0x5eed);
  uint64_t b = RunBackoffScenario(0x5eed);
  EXPECT_EQ(a, b) << "same seed must reproduce identical backoff";
  uint64_t c = RunBackoffScenario(0xd1ff);
  EXPECT_NE(a, c) << "different seeds must desynchronize the jitter";
}

// Pins the retry schedule's constants: the k-th retry waits
// d_k = min(300 us * 2^(k-1), 10 ms) plus a jitter of at most d_k / 4, so
// the 6th retry (9.6 ms) is the last below the cap and the 7th reaches it.
TEST_F(ClientTest, BackoffDoublesToItsCapPlusAQuarterJitter) {
  ClientConfig cfg;
  cfg.request_timeout = 1 * kMillisecond;
  cfg.max_retries = 10;
  auto client = MakeClient(cfg);
  for (auto& n : nodes_) n->respond = false;  // every attempt times out
  bool done = false;
  client->Get("bk", [&](Status, std::vector<uint8_t>, SimTime) { done = true; });
  std::vector<uint64_t> waits_us;  // the backoff each retry scheduled
  uint64_t retries = 0, backoff_us = 0;
  while (!done && sim_.Step()) {
    const ClientStats& s = client->stats();
    if (s.retries == retries) continue;
    ASSERT_EQ(s.retries, retries + 1);
    waits_us.push_back(s.backoff_us - backoff_us);
    retries = s.retries;
    backoff_us = s.backoff_us;
  }
  ASSERT_TRUE(done);
  ASSERT_EQ(waits_us.size(), 9u);  // one retry after each of attempts 1..9
  for (uint64_t k = 1; k <= waits_us.size(); ++k) {
    const uint64_t d = std::min<uint64_t>(300ull << (k - 1), 10'000);
    EXPECT_GE(waits_us[k - 1], d) << "retry " << k;
    EXPECT_LE(waits_us[k - 1], d + d / 4) << "retry " << k;
  }
}

TEST_F(ClientTest, FillingReplicaAvoidedForReads) {
  ClientConfig cfg;
  cfg.crrs_reads = false;  // tail reads
  // Mark the tail of "key1" as filling for the whole ring.
  auto chain = view_.ChainForKey("key1");
  view_.filling.push_back(cluster::FillingRange{chain.back(), 0, 0, 1});
  auto client = MakeClient(cfg);
  bool done = false;
  client->Get("key1", [&](Status, std::vector<uint8_t>, SimTime) { done = true; });
  testutil::RunUntilFlag(sim_, done);
  // The read went to the penultimate member instead.
  uint32_t penult_owner = view_.Find(chain[chain.size() - 2])->owner_node;
  EXPECT_EQ(nodes_[penult_owner]->requests.size(), 1u);
  uint32_t tail_owner = view_.Find(chain.back())->owner_node;
  EXPECT_TRUE(nodes_[tail_owner]->requests.empty());
}

TEST_F(ClientTest, StaleViewUpdateIgnored) {
  auto client = MakeClient();
  cluster::ClusterView old = view_;
  old.epoch = 0;
  client->AdoptView(old);
  EXPECT_EQ(client->view().epoch, 1u);
}

}  // namespace
}  // namespace leed
