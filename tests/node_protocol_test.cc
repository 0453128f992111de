// Node-level protocol tests: hop-counter verification (NACKs on stale
// views), CRRS shipped-read mechanics, chain-write propagation and
// backward acks, and duplicate suppression — driven by hand-crafted wire
// messages against real Nodes.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "leed/node.h"
#include "leed/wire.h"
#include "sim/fault.h"
#include "test_util.h"

namespace leed {
namespace {

class NodeProtocolTest : public ::testing::Test {
 protected:
  NodeProtocolTest() : net_(sim_) {
    cp_endpoint_ = net_.AddEndpoint(sim::NicSpec{});
    net_.SetReceiver(cp_endpoint_, [](Message) {});  // sink heartbeats

    NodeConfig cfg;
    cfg.platform = sim::StingrayJbof();
    cfg.stack = StackKind::kLeed;
    cfg.crrs = true;
    cfg.engine.ssd_count = 1;
    cfg.engine.stores_per_ssd = 2;
    cfg.engine.ssd = sim::Dct983Spec();
    cfg.engine.ssd.capacity_bytes = 1ull << 30;
    cfg.engine.ssd.latency_jitter = 0;
    cfg.engine.ssd.slow_io_prob = 0;
    cfg.engine.store_template.num_segments = 256;
    cfg.engine.store_template.bucket_size = 512;

    for (uint32_t i = 0; i < 3; ++i) {
      nodes_.push_back(std::make_unique<Node>(sim_, net_, cp_endpoint_, cfg, i,
                                              100 + i));
      endpoints_[i] = nodes_[i]->endpoint();
      nodes_[i]->set_node_endpoints(&endpoints_);
    }
    // Client endpoint for responses.
    client_ep_ = net_.AddEndpoint(sim::NicSpec{});
    net_.SetReceiver(client_ep_, [this](Message m) {
      if (auto* r = std::get_if<ResponseMsg>(m.payload.get())) {
        responses_.push_back(*r);
      }
    });

    // Hand every node the same 3-vnode view (one per node, R=3).
    view_.epoch = 1;
    view_.replication_factor = 3;
    for (uint32_t i = 0; i < 3; ++i) {
      view_.vnodes[i] = cluster::VNodeInfo{
          i, i, 0, static_cast<uint64_t>(i) * (UINT64_MAX / 3),
          cluster::VNodeState::kRunning};
    }
    DeliverView(view_);
  }

  void DeliverView(const cluster::ClusterView& v) {
    for (auto& [id, ep] : endpoints_) {
      net_.Send(cp_endpoint_, ep, cluster::ViewUpdateMsg{v});
    }
    sim_.Run();
  }

  cluster::Chain ChainFor(const std::string& key) {
    return view_.ChainForKey(key);
  }

  void SendRequest(ClientRequestMsg msg, uint32_t to_node) {
    net_.Send(client_ep_, endpoints_[to_node], std::move(msg));
  }

  ResponseMsg WaitResponse() {
    size_t have = responses_.size();
    while (responses_.size() == have && sim_.events_pending() > 0 && sim_.Step()) {
    }
    EXPECT_GT(responses_.size(), have) << "no response arrived";
    return responses_.empty() ? ResponseMsg{} : responses_.back();
  }

  // Issue a full PUT through the chain and wait for the client response.
  StatusCode DoPut(const std::string& key, std::vector<uint8_t> value) {
    auto chain = ChainFor(key);
    ClientRequestMsg msg;
    msg.req_id = next_req_id_++;
    msg.op = engine::OpType::kPut;
    msg.key = key;
    msg.value = std::move(value);
    msg.vnode = chain[0];
    msg.hop = 0;
    msg.view_epoch = view_.epoch;
    msg.reply_to = client_ep_;
    SendRequest(std::move(msg), view_.Find(chain[0])->owner_node);
    return WaitResponse().code;
  }

  StatusCode DoGet(const std::string& key, int replica_index,
                   std::vector<uint8_t>* out = nullptr) {
    auto chain = ChainFor(key);
    ClientRequestMsg msg;
    msg.req_id = next_req_id_++;
    msg.op = engine::OpType::kGet;
    msg.key = key;
    msg.vnode = chain[replica_index];
    msg.hop = static_cast<uint8_t>(replica_index);
    msg.view_epoch = view_.epoch;
    msg.reply_to = client_ep_;
    SendRequest(std::move(msg), view_.Find(chain[replica_index])->owner_node);
    ResponseMsg r = WaitResponse();
    if (out) *out = r.value;
    return r.code;
  }

  sim::Simulator sim_;
  Network net_;
  sim::EndpointId cp_endpoint_;
  sim::EndpointId client_ep_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<uint32_t, sim::EndpointId> endpoints_;
  cluster::ClusterView view_;
  std::vector<ResponseMsg> responses_;
  uint64_t next_req_id_ = 1;
};

TEST_F(NodeProtocolTest, WriteReplicatesThroughChainAndAcksBackward) {
  EXPECT_EQ(DoPut("alpha", testutil::TestValue(1, 64)), StatusCode::kOk);
  sim_.Run();  // let backward acks apply at head/mid
  // Each chain member counted the traversing write; the tail committed.
  uint64_t commits = 0, writes = 0, acks = 0;
  for (auto& n : nodes_) {
    commits += n->stats().commits_as_tail;
    writes += n->stats().chain_writes;
    acks += n->stats().chain_acks;
  }
  EXPECT_EQ(commits, 1u);
  EXPECT_EQ(writes, 3u);  // head, mid, tail
  EXPECT_EQ(acks, 2u);    // tail->mid, mid->head
  // Every replica can serve the read now (CRRS, clean key).
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> out;
    EXPECT_EQ(DoGet("alpha", i, &out), StatusCode::kOk) << "replica " << i;
    EXPECT_EQ(out, testutil::TestValue(1, 64));
  }
}

TEST_F(NodeProtocolTest, WrongHopNacks) {
  auto chain = ChainFor("beta");
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kPut;
  msg.key = "beta";
  msg.value = std::vector<uint8_t>{1};
  msg.vnode = chain[1];  // mid node addressed as if it were the head
  msg.hop = 0;
  msg.reply_to = client_ep_;
  const uint32_t mid_owner = view_.Find(chain[1])->owner_node;
  const uint64_t nacks = nodes_[mid_owner]->stats().nacks_sent;
  SendRequest(std::move(msg), mid_owner);
  EXPECT_EQ(WaitResponse().code, StatusCode::kWrongView);
  EXPECT_EQ(nodes_[mid_owner]->stats().nacks_sent, nacks + 1);
}

TEST_F(NodeProtocolTest, UnknownVnodeNacks) {
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kGet;
  msg.key = "gamma";
  msg.vnode = 99;  // nobody owns this
  msg.hop = 0;
  msg.reply_to = client_ep_;
  SendRequest(std::move(msg), 0);
  EXPECT_EQ(WaitResponse().code, StatusCode::kWrongView);
}

TEST_F(NodeProtocolTest, GetAtWrongIndexNacks) {
  ASSERT_EQ(DoPut("delta", testutil::TestValue(2, 32)), StatusCode::kOk);
  auto chain = ChainFor("delta");
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kGet;
  msg.key = "delta";
  msg.vnode = chain[2];
  msg.hop = 0;  // claims the tail is the head
  msg.reply_to = client_ep_;
  const uint32_t tail_owner = view_.Find(chain[2])->owner_node;
  const uint64_t nacks = nodes_[tail_owner]->stats().nacks_sent;
  SendRequest(std::move(msg), tail_owner);
  EXPECT_EQ(WaitResponse().code, StatusCode::kWrongView);
  EXPECT_EQ(nodes_[tail_owner]->stats().nacks_sent, nacks + 1);
}

TEST_F(NodeProtocolTest, ScanAtWrongIndexNacks) {
  ASSERT_EQ(DoPut("delta", testutil::TestValue(2, 32)), StatusCode::kOk);
  auto chain = ChainFor("delta");
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kScan;
  msg.key = "delta";
  msg.scan_limit = 4;
  msg.vnode = chain[2];
  msg.hop = 0;  // claims the tail is the head
  msg.reply_to = client_ep_;
  const uint32_t tail_owner = view_.Find(chain[2])->owner_node;
  const uint64_t nacks = nodes_[tail_owner]->stats().nacks_sent;
  SendRequest(std::move(msg), tail_owner);
  EXPECT_EQ(WaitResponse().code, StatusCode::kWrongView);
  EXPECT_EQ(nodes_[tail_owner]->stats().nacks_sent, nacks + 1);
}

TEST_F(NodeProtocolTest, ChainWriteAtWrongHopNacks) {
  auto chain = ChainFor("eta");
  ChainWriteMsg w;
  w.write_id = 0xdef456;
  w.key = "eta";
  w.value = testutil::TestValue(6, 32);
  w.vnode = chain[1];
  w.hop = 2;  // claims the mid is the tail
  w.reply_to = client_ep_;
  w.req_id = next_req_id_++;
  const uint32_t mid_owner = view_.Find(chain[1])->owner_node;
  const uint64_t nacks = nodes_[mid_owner]->stats().nacks_sent;
  net_.Send(client_ep_, endpoints_[mid_owner], std::move(w));
  EXPECT_EQ(WaitResponse().code, StatusCode::kWrongView);
  EXPECT_EQ(nodes_[mid_owner]->stats().nacks_sent, nacks + 1);
}

// Degraded mode: once the engine latches an SSD failed, every op addressed
// to one of its stores is refused with exactly one kUnavailable, so the
// client backs off instead of refreshing its view. The control plane here
// is a sink, so nothing fails the store over.
TEST_F(NodeProtocolTest, FailedStoreRefusesEveryOpUnavailable) {
  const auto chain = ChainFor("theta");
  const uint32_t head = view_.Find(chain[0])->owner_node;
  Node& node = *nodes_[head];
  engine::IoEngine& engine = *node.leed_engine();
  sim::FaultInjector faults(sim_, 1);
  engine.ssd(0).set_faults(faults.AddDevice(sim::DeviceFaultSpec{}, 1, head, 0));
  faults.KillDevice(static_cast<int32_t>(head), 0);
  for (int i = 0; i < 64 && !engine.SsdFailed(0); ++i) {
    node.DirectPut(0, "doomed" + std::to_string(i), testutil::TestValue(i, 32),
                   [](Status) {});
    sim_.Run();
  }
  ASSERT_TRUE(engine.SsdFailed(0));

  auto expect_unavailable = [&](WireMsg msg, const std::string& what) {
    const size_t before = responses_.size();
    const uint64_t refused = node.stats().store_unavailable_nacks;
    net_.Send(client_ep_, endpoints_[head], std::move(msg));
    sim_.Run();
    ASSERT_EQ(responses_.size(), before + 1) << what;
    EXPECT_EQ(responses_.back().code, StatusCode::kUnavailable) << what;
    EXPECT_EQ(node.stats().store_unavailable_nacks, refused + 1) << what;
  };
  ClientRequestMsg req;
  req.key = "theta";
  req.vnode = chain[0];
  req.hop = 0;
  req.view_epoch = view_.epoch;
  req.reply_to = client_ep_;
  for (engine::OpType op : {engine::OpType::kPut, engine::OpType::kGet,
                            engine::OpType::kScan}) {
    req.req_id = next_req_id_++;
    req.op = op;
    req.value = op == engine::OpType::kPut ? testutil::TestValue(8, 32)
                                           : std::vector<uint8_t>{};
    req.scan_limit = op == engine::OpType::kScan ? 4 : 0;
    expect_unavailable(req, "op " + std::to_string(static_cast<int>(op)));
  }
  ChainWriteMsg w;
  w.write_id = 0x7e7a;
  w.key = "theta";
  w.value = testutil::TestValue(9, 32);
  w.vnode = chain[0];
  w.hop = 0;
  w.reply_to = client_ep_;
  w.req_id = next_req_id_++;
  expect_unavailable(std::move(w), "chain write");
}

TEST_F(NodeProtocolTest, DirtyReadShipsToTail) {
  ASSERT_EQ(DoPut("eps", testutil::TestValue(3, 64)), StatusCode::kOk);
  sim_.Run();
  // Inject a chain write at the HEAD only (simulate an in-flight write by
  // not letting it propagate: pause the mid node).
  auto chain = ChainFor("eps");
  uint32_t mid_owner = view_.Find(chain[1])->owner_node;
  nodes_[mid_owner]->Fail();  // mid drops the forward -> head stays dirty

  ClientRequestMsg put;
  put.req_id = next_req_id_++;
  put.op = engine::OpType::kPut;
  put.key = "eps";
  put.value = testutil::TestValue(4, 64);
  put.vnode = chain[0];
  put.hop = 0;
  put.view_epoch = view_.epoch;
  put.reply_to = client_ep_;
  SendRequest(std::move(put), view_.Find(chain[0])->owner_node);
  sim_.RunUntil(sim_.Now() + 5 * kMillisecond);  // write stuck mid-chain

  // A GET at the (dirty) head must be shipped to the tail, which still has
  // the old committed value.
  uint64_t shipped_before = 0;
  for (auto& n : nodes_) shipped_before += n->stats().reads_shipped;
  std::vector<uint8_t> out;
  EXPECT_EQ(DoGet("eps", 0, &out), StatusCode::kOk);
  EXPECT_EQ(out, testutil::TestValue(3, 64));  // committed, not the stuck write
  uint64_t shipped_after = 0;
  for (auto& n : nodes_) shipped_after += n->stats().reads_shipped;
  EXPECT_EQ(shipped_after, shipped_before + 1);
}

TEST_F(NodeProtocolTest, DuplicateChainWriteIgnoredAfterCommit) {
  auto chain = ChainFor("zeta");
  uint32_t tail_owner = view_.Find(chain[2])->owner_node;
  ChainWriteMsg w;
  w.write_id = 0xabc123;
  w.key = "zeta";
  w.value = testutil::TestValue(5, 32);
  w.vnode = chain[2];
  w.hop = 2;
  w.reply_to = client_ep_;
  w.req_id = next_req_id_++;
  net_.Send(client_ep_, endpoints_[tail_owner], w);
  (void)WaitResponse();
  uint64_t commits1 = nodes_[tail_owner]->stats().commits_as_tail;
  // Replay the identical write (re-forward after a view change).
  net_.Send(client_ep_, endpoints_[tail_owner], w);
  sim_.Run();
  EXPECT_EQ(nodes_[tail_owner]->stats().commits_as_tail, commits1);
}

TEST_F(NodeProtocolTest, FailedNodeDropsEverything) {
  nodes_[0]->Fail();
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kGet;
  msg.key = "any";
  msg.vnode = 0;
  msg.hop = 0;
  msg.reply_to = client_ep_;
  size_t before = responses_.size();
  SendRequest(std::move(msg), 0);
  sim_.Run();
  EXPECT_EQ(responses_.size(), before);  // silence, as fail-stop demands
}

TEST_F(NodeProtocolTest, PendingWriteCommitsOnTailPromotion) {
  // A write stuck mid-chain (successor dead) must commit when a view
  // change promotes the holder to tail — §3.8.2's penultimate-node rule.
  auto chain = ChainFor("omega");
  uint32_t mid_owner = view_.Find(chain[1])->owner_node;
  uint32_t tail_owner = view_.Find(chain[2])->owner_node;
  nodes_[tail_owner]->Fail();  // the write will never reach the tail

  ClientRequestMsg put;
  put.req_id = next_req_id_++;
  put.op = engine::OpType::kPut;
  put.key = "omega";
  put.value = testutil::TestValue(7, 64);
  put.vnode = chain[0];
  put.hop = 0;
  put.view_epoch = view_.epoch;
  put.reply_to = client_ep_;
  size_t responses_before = responses_.size();
  SendRequest(std::move(put), view_.Find(chain[0])->owner_node);
  sim_.RunUntil(sim_.Now() + 5 * kMillisecond);
  EXPECT_EQ(responses_.size(), responses_before);  // uncommitted: no reply

  // New view: the dead tail's vnode is gone; the mid node becomes tail.
  cluster::ClusterView v2 = view_;
  v2.epoch = 2;
  v2.vnodes.erase(chain[2]);
  DeliverView(v2);
  sim_.Run();

  // The promoted tail committed the buffered write and answered the client.
  ASSERT_GT(responses_.size(), responses_before);
  EXPECT_EQ(responses_.back().code, StatusCode::kOk);
  EXPECT_GT(nodes_[mid_owner]->stats().commits_as_tail, 0u);
  // And the value is durable at the promoted tail.
  view_ = v2;
  std::vector<uint8_t> out;
  EXPECT_EQ(DoGet("omega", static_cast<int>(ChainFor("omega").size()) - 1, &out),
            StatusCode::kOk);
  EXPECT_EQ(out, testutil::TestValue(7, 64));
}

TEST_F(NodeProtocolTest, StaleViewEpochIgnored) {
  cluster::ClusterView old = view_;
  old.epoch = 0;
  old.vnodes.clear();
  DeliverView(old);
  EXPECT_EQ(nodes_[0]->view().epoch, 1u);  // unchanged
  EXPECT_EQ(nodes_[0]->view().vnodes.size(), 3u);
}

// The network charges every message WireSize(msg): a header (64 B data
// path, 48 B control plane) plus its key, value, scan items or view
// entries. This table pins the size of every alternative, so net.bytes_*
// cannot drift.
TEST(WireSchemaTest, EveryMessageChargesItsSenderSize) {
  const std::string key(16, 'k');
  const std::vector<uint8_t> value(100, 0xab);
  cluster::ClusterView view;
  view.vnodes[0] = cluster::VNodeInfo{.id = 0, .position = 10};
  view.vnodes[1] = cluster::VNodeInfo{.id = 1, .owner_node = 1, .position = 20};
  view.filling.push_back(cluster::FillingRange{1, 10, 20, 1});
  const std::vector<store::ScanItem> items = {{key, value},
                                              {"short", {1, 2, 3}}};

  struct Row {
    const char* name;
    WireMsg msg;
    uint64_t bytes;
  };
  const std::vector<Row> rows = {
      {"ClientRequestMsg", ClientRequestMsg{.key = key, .value = value},
       64 + 16 + 100},
      {"ResponseMsg", ResponseMsg{.value = value, .scan_items = items},
       64 + 100 + (16 + 100) + (5 + 3)},
      {"ChainWriteMsg", ChainWriteMsg{.key = key, .value = value},
       64 + 16 + 100},
      {"ChainAckMsg", ChainAckMsg{.key = key}, 64 + 16},
      {"CraqQueryMsg", CraqQueryMsg{.key = key}, 64 + 16},
      {"CraqReplyMsg", CraqReplyMsg{}, 64},
      {"ViewUpdateMsg", cluster::ViewUpdateMsg{view}, 48 + 24 * 2 + 28 * 1},
      {"ViewRequestMsg", cluster::ViewRequestMsg{}, 48},
      {"HeartbeatMsg", cluster::HeartbeatMsg{}, 48},
      {"CopyCommandMsg", cluster::CopyCommandMsg{}, 48},
      {"CopyItemMsg", cluster::CopyItemMsg{.key = key, .value = value},
       48 + 16 + 100},
      {"CopyDoneMsg", cluster::CopyDoneMsg{}, 48},
      {"StoreFailedMsg", cluster::StoreFailedMsg{}, 48},
  };
  std::set<size_t> alternatives;
  for (const Row& row : rows) {
    EXPECT_EQ(WireSize(row.msg), row.bytes) << row.name;
    alternatives.insert(row.msg.index());
  }
  EXPECT_EQ(alternatives.size(), std::variant_size_v<WireMsg>)
      << "every schema alternative needs a row";
}

}  // namespace
}  // namespace leed
