// Tests for the consistent-hash ring, membership views, and the control
// plane's transition machinery (join/leave/failure with COPY commissions).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cluster/control_plane.h"
#include "cluster/hash_ring.h"
#include "cluster/membership.h"
#include "leed/cluster_sim.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/superblock.h"
#include "test_util.h"

namespace leed::cluster {
namespace {

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

TEST(HashRingTest, PrimaryIsClockwise) {
  HashRing ring;
  ring.Insert(1, 100);
  ring.Insert(2, 200);
  ring.Insert(3, 300);
  EXPECT_EQ(ring.PrimaryOf(50), 1u);
  EXPECT_EQ(ring.PrimaryOf(100), 1u);  // at-or-after
  EXPECT_EQ(ring.PrimaryOf(150), 2u);
  EXPECT_EQ(ring.PrimaryOf(301), 1u);  // wraps
}

TEST(HashRingTest, ChainIsConsecutiveDistinct) {
  HashRing ring;
  for (VNodeId i = 0; i < 5; ++i) ring.Insert(i, i * 1000);
  auto chain = ring.ChainOf(1500, 3);
  EXPECT_EQ(std::vector<VNodeId>(chain.begin(), chain.end()),
            (std::vector<VNodeId>{2, 3, 4}));
  auto wrap = ring.ChainOf(4500, 3);
  EXPECT_EQ(std::vector<VNodeId>(wrap.begin(), wrap.end()),
            (std::vector<VNodeId>{0, 1, 2}));
}

TEST(HashRingTest, ChainClampsToRingSize) {
  HashRing ring;
  ring.Insert(7, 10);
  ring.Insert(8, 20);
  auto chain = ring.ChainOf(0, 5);
  EXPECT_EQ(chain.size(), 2u);
}

TEST(HashRingTest, ChainOfMaxLengthIsFullAndLongerAborts) {
  HashRing ring;
  for (VNodeId i = 0; i < Chain::kMaxLength + 2; ++i) ring.Insert(i, i * 10);
  EXPECT_EQ(ring.ChainOf(0, Chain::kMaxLength).size(), Chain::kMaxLength);
  EXPECT_DEATH(ring.ChainOf(0, Chain::kMaxLength + 1), "");
}

TEST(HashRingTest, ArcAndMembershipChecks) {
  HashRing ring;
  ring.Insert(1, 100);
  ring.Insert(2, 200);
  auto arc2 = ring.ArcOf(2);
  EXPECT_EQ(arc2.first, 100u);
  EXPECT_EQ(arc2.second, 200u);
  EXPECT_TRUE(ring.InArcOf(2, 150));
  EXPECT_FALSE(ring.InArcOf(2, 100));  // exclusive start
  EXPECT_TRUE(ring.InArcOf(2, 200));   // inclusive end
  // Wrapping arc of node 1: (200, 100].
  EXPECT_TRUE(ring.InArcOf(1, 50));
  EXPECT_TRUE(ring.InArcOf(1, 300));
  EXPECT_FALSE(ring.InArcOf(1, 150));
}

TEST(HashRingTest, SuccessorWraps) {
  HashRing ring;
  ring.Insert(1, 100);
  ring.Insert(2, 200);
  EXPECT_EQ(ring.SuccessorOf(1), 2u);
  EXPECT_EQ(ring.SuccessorOf(2), 1u);
  HashRing solo;
  solo.Insert(9, 5);
  EXPECT_EQ(solo.SuccessorOf(9), kInvalidVNode);
}

TEST(HashRingTest, WidestArcMidpointHalvesBiggestGap) {
  // Positions clustered low: the widest arc is the wrapping one
  // (10000, 1000], width ~2^64; its midpoint is 10000 + width/2.
  HashRing ring;
  ring.Insert(1, 1000);
  ring.Insert(2, 2000);
  ring.Insert(3, 10000);
  uint64_t wrap_width = 1000 - 10000;  // modular arithmetic
  EXPECT_EQ(ring.WidestArcMidpoint(), 10000 + wrap_width / 2);

  // Spread positions: the widest arc is the wrap from the last position
  // back to the first; verify the midpoint lands exactly halfway along it.
  HashRing spread;
  const uint64_t a = UINT64_MAX / 4, b = UINT64_MAX / 2, c = UINT64_MAX / 2 + 1000;
  spread.Insert(1, a);
  spread.Insert(2, b);
  spread.Insert(3, c);
  const uint64_t widest = a - c;  // modular width of (c, a]
  EXPECT_EQ(spread.WidestArcMidpoint(), c + widest / 2);
}

TEST(HashRingTest, RemoveRestoresCoverage) {
  HashRing ring;
  ring.Insert(1, 100);
  ring.Insert(2, 200);
  EXPECT_TRUE(ring.Remove(2));
  EXPECT_FALSE(ring.Remove(2));
  EXPECT_EQ(ring.PrimaryOf(150), 1u);
}

TEST(HashRingTest, DuplicateInsertRejected) {
  HashRing ring;
  EXPECT_TRUE(ring.Insert(1, 100));
  EXPECT_FALSE(ring.Insert(1, 200));  // id reuse
  EXPECT_FALSE(ring.Insert(2, 100));  // position collision
}

// ---------------------------------------------------------------------------
// ClusterView
// ---------------------------------------------------------------------------

ClusterView MakeView(int n, uint32_t r = 3) {
  ClusterView v;
  v.epoch = 1;
  v.replication_factor = r;
  for (int i = 0; i < n; ++i) {
    VNodeInfo info;
    info.id = i;
    info.owner_node = i % 3;
    info.local_store = i / 3;
    info.position = static_cast<uint64_t>(i) * (UINT64_MAX / n);
    info.state = VNodeState::kRunning;
    v.vnodes[i] = info;
  }
  return v;
}

TEST(ClusterViewTest, ChainSpansDistinctVnodes) {
  ClusterView v = MakeView(6);
  auto chain = v.ChainForKey("somekey");
  EXPECT_EQ(chain.size(), 3u);
  std::set<VNodeId> uniq(chain.begin(), chain.end());
  EXPECT_EQ(uniq.size(), 3u);
}

TEST(ClusterViewTest, LeavingExcludedJoiningIncluded) {
  ClusterView v = MakeView(4);
  v.vnodes[0].state = VNodeState::kLeaving;
  v.vnodes[1].state = VNodeState::kJoining;
  HashRing serving = v.ServingRing();
  EXPECT_FALSE(serving.Contains(0));
  EXPECT_TRUE(serving.Contains(1));
  HashRing running = v.RunningRing();
  EXPECT_FALSE(running.Contains(1));
}

TEST(ClusterViewTest, FillingRangeLookup) {
  ClusterView v = MakeView(3);
  v.filling.push_back(FillingRange{1, 100, 200, 1});
  EXPECT_TRUE(v.IsFilling(1, 150));
  EXPECT_FALSE(v.IsFilling(1, 250));
  EXPECT_FALSE(v.IsFilling(2, 150));
  // Wrapping range.
  v.filling.push_back(FillingRange{2, 5000, 50, 1});
  EXPECT_TRUE(v.IsFilling(2, 6000));
  EXPECT_TRUE(v.IsFilling(2, 20));
  EXPECT_FALSE(v.IsFilling(2, 3000));
}

// ---------------------------------------------------------------------------
// ControlPlane
// ---------------------------------------------------------------------------

class ControlPlaneTest : public ::testing::Test {
 protected:
  struct FakeNode {
    sim::EndpointId ep;
    std::vector<ClusterView> views;
    std::vector<CopyCommandMsg> copies;
  };

  ControlPlaneTest() : net_(sim_) {}

  void Setup(int nodes, uint32_t r = 3, uint32_t stores = 2) {
    ControlPlaneConfig cfg;
    cfg.replication_factor = r;
    cfg.monitor_heartbeats = false;
    cp_ = std::make_unique<ControlPlane>(sim_, net_, cfg);
    for (int i = 0; i < nodes; ++i) {
      auto node = std::make_unique<FakeNode>();
      node->ep = net_.AddEndpoint(sim::NicSpec{});
      FakeNode* raw = node.get();
      net_.SetReceiver(node->ep, [this, raw](Message m) {
        if (auto* v = std::get_if<ViewUpdateMsg>(m.payload.get())) {
          raw->views.push_back(v->view);
        } else if (auto* c = std::get_if<CopyCommandMsg>(m.payload.get())) {
          raw->copies.push_back(*c);
          // Fake an instant copy: report done immediately.
          CopyDoneMsg done;
          done.copy_id = c->copy_id;
          done.dst = c->dst;
          net_.Send(raw->ep, cp_->endpoint(), done);
        }
      });
      cp_->RegisterNode(i, node->ep);
      nodes_.push_back(std::move(node));
    }
    uint64_t total = static_cast<uint64_t>(nodes) * stores;
    for (uint64_t k = 0; k < total; ++k) {
      cp_->Bootstrap(static_cast<uint32_t>(k % nodes),
                     static_cast<uint32_t>(k / nodes), k * (UINT64_MAX / total));
    }
    cp_->Start();
    sim_.Run();
  }

  sim::Simulator sim_;
  Network net_;
  std::unique_ptr<ControlPlane> cp_;
  std::vector<std::unique_ptr<FakeNode>> nodes_;
};

TEST_F(ControlPlaneTest, BootstrapBroadcastsInitialView) {
  Setup(3);
  for (auto& n : nodes_) {
    ASSERT_FALSE(n->views.empty());
    EXPECT_EQ(n->views.back().vnodes.size(), 6u);
    EXPECT_EQ(n->views.back().epoch, 1u);
  }
}

TEST_F(ControlPlaneTest, JoinCommissionsRCopiesThenRuns) {
  Setup(3, /*r=*/3);
  VNodeId v = cp_->StartJoin(/*owner=*/0, /*store=*/7);
  sim_.Run();
  // The transition finished (fake nodes ack copies instantly).
  EXPECT_FALSE(cp_->TransitionInProgress());
  const VNodeInfo* info = cp_->view().Find(v);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->state, VNodeState::kRunning);
  EXPECT_TRUE(cp_->view().filling.empty());
  // R chains were affected -> R copies commissioned.
  EXPECT_EQ(cp_->stats().copies_commissioned, 3u);
  EXPECT_EQ(cp_->stats().joins_completed, 1u);
  // Mid-transition view reached nodes: some view carried JOINING + filling.
  bool saw_joining = false;
  for (auto& n : nodes_) {
    for (auto& view : n->views) {
      const VNodeInfo* vi = view.Find(v);
      if (vi && vi->state == VNodeState::kJoining && !view.filling.empty()) {
        saw_joining = true;
      }
    }
  }
  EXPECT_TRUE(saw_joining);
}

TEST_F(ControlPlaneTest, LeaveDrainsThenDeletes) {
  Setup(3, 3);
  VNodeId victim = 0;
  uint64_t epoch_before = cp_->view().epoch;
  cp_->StartLeave(victim);
  sim_.Run();
  EXPECT_EQ(cp_->view().Find(victim), nullptr);
  EXPECT_GT(cp_->view().epoch, epoch_before);
  EXPECT_EQ(cp_->stats().leaves_completed, 1u);
  EXPECT_GT(cp_->stats().copies_commissioned, 0u);
  EXPECT_TRUE(cp_->view().filling.empty());
}

TEST_F(ControlPlaneTest, FailNodeRemovesAllItsVnodes) {
  Setup(3, 3);
  cp_->FailNode(1);
  sim_.Run();
  for (const auto& [id, info] : cp_->view().vnodes) {
    EXPECT_NE(info.owner_node, 1u) << "vnode " << id << " survived on dead node";
  }
  EXPECT_GT(cp_->stats().copies_commissioned, 0u);
}

TEST_F(ControlPlaneTest, CopySourcesNeverOnDeadNode) {
  Setup(3, 3);
  cp_->FailNode(2);
  sim_.Run();
  for (auto& n : nodes_) {
    for (auto& c : n->copies) {
      const VNodeInfo* src = nullptr;
      // Look up the source in any view we received (it may be gone now).
      for (auto& view : n->views) {
        if (const VNodeInfo* i = view.Find(c.src)) src = i;
      }
      if (src) {
        EXPECT_NE(src->owner_node, 2u);
      }
    }
  }
}

TEST_F(ControlPlaneTest, FailStoreRemovesOnlyThatStoresVnodes) {
  Setup(3, 3);
  cp_->FailStore(/*node_id=*/1, /*local_store=*/0);
  sim_.Run();
  // Store-scoped failure domain: (1,0)'s vnode left the ring, (1,1)'s is
  // still serving — the node was NOT failed wholesale.
  bool node1_survives = false;
  for (const auto& [id, info] : cp_->view().vnodes) {
    EXPECT_FALSE(info.owner_node == 1u && info.local_store == 0u)
        << "vnode " << id << " survived on the failed store";
    if (info.owner_node == 1u) node1_survives = true;
  }
  EXPECT_TRUE(node1_survives) << "failover took the whole node down";
  EXPECT_EQ(cp_->stats().store_failures, 1u);
  EXPECT_EQ(cp_->stats().vnodes_failed_over, 1u);
  EXPECT_GT(cp_->stats().copies_commissioned, 0u);
  EXPECT_TRUE(cp_->view().filling.empty());

  // Same store again: a duplicate report (every store on a dead SSD
  // reports once per engine restart attempt) must be a no-op.
  cp_->FailStore(1, 0);
  sim_.Run();
  EXPECT_EQ(cp_->stats().store_failures, 1u);

  // The node keeps heartbeating for its healthy stores; those heartbeats
  // are NOT stale (the node is not administratively dead).
  net_.Send(nodes_[1]->ep, cp_->endpoint(), HeartbeatMsg{1});
  sim_.Run();
  EXPECT_EQ(cp_->stats().stale_heartbeats_ignored, 0u);

  // Its second store can fail over independently later.
  cp_->FailStore(1, 1);
  sim_.Run();
  EXPECT_EQ(cp_->stats().store_failures, 2u);
  for (const auto& [id, info] : cp_->view().vnodes) {
    EXPECT_NE(info.owner_node, 1u) << "vnode " << id << " outlived both stores";
  }
}

TEST(ControlPlaneConfigTest, ReplicationFactorAboveMaxChainLengthAborts) {
  sim::Simulator sim;
  Network net(sim);
  ControlPlaneConfig cfg;
  cfg.replication_factor = Chain::kMaxLength + 1;
  EXPECT_DEATH(ControlPlane(sim, net, cfg),
               "replication_factor 9 exceeds the maximum chain length 8");
}

TEST_F(ControlPlaneTest, HeartbeatTimeoutTriggersFailure) {
  ControlPlaneConfig cfg;
  cfg.replication_factor = 2;
  cfg.monitor_heartbeats = true;
  cfg.heartbeat_period = 10 * kMillisecond;
  cfg.failure_timeout = 30 * kMillisecond;
  cp_ = std::make_unique<ControlPlane>(sim_, net_, cfg);
  // Two fake nodes; only node 0 heartbeats.
  for (int i = 0; i < 2; ++i) {
    auto node = std::make_unique<FakeNode>();
    node->ep = net_.AddEndpoint(sim::NicSpec{});
    FakeNode* raw = node.get();
    net_.SetReceiver(node->ep, [this, raw](Message m) {
      if (auto* c = std::get_if<CopyCommandMsg>(m.payload.get())) {
        CopyDoneMsg done;
        done.copy_id = c->copy_id;
        done.dst = c->dst;
        net_.Send(raw->ep, cp_->endpoint(), done);
      }
    });
    cp_->RegisterNode(i, node->ep);
    nodes_.push_back(std::move(node));
  }
  for (uint64_t k = 0; k < 4; ++k) {
    cp_->Bootstrap(static_cast<uint32_t>(k % 2), static_cast<uint32_t>(k / 2),
                   k * (UINT64_MAX / 4));
  }
  cp_->Start();
  sim::PeriodicTimer hb(sim_, 10 * kMillisecond, [&] {
    net_.Send(nodes_[0]->ep, cp_->endpoint(), HeartbeatMsg{0});
  });
  hb.Start();
  sim_.RunUntil(200 * kMillisecond);
  EXPECT_GE(cp_->stats().failures_detected, 1u);
  for (const auto& [id, info] : cp_->view().vnodes) {
    (void)id;
    EXPECT_EQ(info.owner_node, 0u);
  }
  hb.Stop();
}

// False-positive hardening: once a node is declared dead, late heartbeats
// (a stalled node waking back up) must not resurrect it or fail it twice,
// and copy acks from its stale endpoint must be rejected — the blank
// replacement re-registers under the same id and must not inherit them.
TEST_F(ControlPlaneTest, DeadNodeLateMessagesAreIgnored) {
  ControlPlaneConfig cfg;
  cfg.replication_factor = 2;
  cfg.monitor_heartbeats = true;
  cfg.heartbeat_period = 10 * kMillisecond;
  cfg.failure_timeout = 30 * kMillisecond;
  cp_ = std::make_unique<ControlPlane>(sim_, net_, cfg);
  for (int i = 0; i < 2; ++i) {
    auto node = std::make_unique<FakeNode>();
    node->ep = net_.AddEndpoint(sim::NicSpec{});
    FakeNode* raw = node.get();
    net_.SetReceiver(node->ep, [this, raw](Message m) {
      if (auto* c = std::get_if<CopyCommandMsg>(m.payload.get())) {
        CopyDoneMsg done;
        done.copy_id = c->copy_id;
        done.dst = c->dst;
        net_.Send(raw->ep, cp_->endpoint(), done);
      }
    });
    cp_->RegisterNode(i, node->ep);
    nodes_.push_back(std::move(node));
  }
  for (uint64_t k = 0; k < 4; ++k) {
    cp_->Bootstrap(static_cast<uint32_t>(k % 2), static_cast<uint32_t>(k / 2),
                   k * (UINT64_MAX / 4));
  }
  cp_->Start();
  // Node 0 heartbeats throughout; node 1 only "wakes up" after it has
  // already been declared dead.
  sim::PeriodicTimer hb0(sim_, 10 * kMillisecond, [&] {
    net_.Send(nodes_[0]->ep, cp_->endpoint(), HeartbeatMsg{0});
  });
  hb0.Start();
  sim_.RunUntil(100 * kMillisecond);
  ASSERT_EQ(cp_->stats().failures_detected, 1u);

  sim::PeriodicTimer hb1(sim_, 10 * kMillisecond, [&] {
    net_.Send(nodes_[1]->ep, cp_->endpoint(), HeartbeatMsg{1});
  });
  hb1.Start();
  sim_.RunUntil(200 * kMillisecond);
  hb0.Stop();
  hb1.Stop();

  // The late heartbeats were ignored: not failed a second time, not
  // resurrected into the ring.
  EXPECT_EQ(cp_->stats().failures_detected, 1u);
  EXPECT_GT(cp_->stats().stale_heartbeats_ignored, 0u);
  for (const auto& [id, info] : cp_->view().vnodes) {
    (void)id;
    EXPECT_EQ(info.owner_node, 0u);
  }

  // A copy ack arriving from the dead node's endpoint is rejected too.
  uint64_t rejected_before = cp_->stats().stale_copy_acks_rejected;
  CopyDoneMsg stale;
  stale.copy_id = 1;
  stale.dst = 0;
  net_.Send(nodes_[1]->ep, cp_->endpoint(), stale);
  sim_.Run();
  EXPECT_GT(cp_->stats().stale_copy_acks_rejected, rejected_before);
}

TEST_F(ControlPlaneTest, ViewRequestGetsReply) {
  Setup(2, 2);
  sim::EndpointId client = net_.AddEndpoint(sim::NicSpec{});
  bool got = false;
  net_.SetReceiver(client, [&](Message m) {
    if (std::get_if<ViewUpdateMsg>(m.payload.get())) got = true;
  });
  ViewRequestMsg req;
  req.reply_to = client;
  net_.Send(client, cp_->endpoint(), req);
  sim_.Run();
  EXPECT_TRUE(got);
}

// ---------------------------------------------------------------------------
// Crash-restart recovery (full cluster)
// ---------------------------------------------------------------------------

// Power-cut a node while one of its stores is mid-compaction, bring it
// back through superblock + extended-scan recovery, and verify that every
// acknowledged write is still readable. Compaction rewrites the key log
// under the crash, so this exercises recovery over a half-merged log.
TEST(ClusterCrashRestartTest, KillDuringCompactionKeepsAckedKeys) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.num_clients = 1;
  cfg.seed = 0xc0de;
  cfg.node.platform = sim::StingrayJbof();
  cfg.node.stack = StackKind::kLeed;
  cfg.node.engine.ssd_count = 2;
  cfg.node.engine.stores_per_ssd = 2;
  cfg.node.engine.ssd = sim::Dct983Spec();
  cfg.node.engine.ssd.capacity_bytes = 1ull << 30;
  cfg.node.engine.ssd.latency_jitter = 0;
  cfg.node.engine.ssd.slow_io_prob = 0;
  // Few segments + tiny log partitions: the logs cross the compaction
  // threshold quickly, so the crash lands inside a live merge.
  cfg.node.engine.store_template.num_segments = 16;
  cfg.node.engine.store_template.bucket_size = 512;
  cfg.node.engine.store_template.compaction_threshold = 0.3;
  cfg.node.engine.partition_bytes = store::kSuperblockRegionBytes + 256 * 1024;
  cfg.node.engine.checkpoint_period = 5 * kMillisecond;
  cfg.client.stores_per_ssd = 2;
  cfg.client.request_timeout = 10 * kMillisecond;
  cfg.control_plane.replication_factor = 3;
  cfg.control_plane.heartbeat_period = 5 * kMillisecond;
  cfg.control_plane.failure_timeout = 25 * kMillisecond;

  ClusterSim cluster(cfg);
  cluster.Bootstrap();
  sim::Simulator& sim = cluster.simulator();

  auto compacting = [&](uint32_t node_id) {
    engine::IoEngine* eng = cluster.node(node_id).leed_engine();
    for (uint32_t s = 0; s < eng->num_stores(); ++s) {
      if (eng->data_store(s).compaction_running()) return true;
    }
    return false;
  };

  std::map<std::string, std::vector<uint8_t>> ledger;
  auto put = [&](int i) {
    std::string key = "ck" + std::to_string(i);
    std::vector<uint8_t> value = testutil::TestValue(i, 96);
    bool done = false;
    Status st = Status::Internal("pending");
    cluster.client(0).Put(key, value, [&](Status s, SimTime) {
      st = std::move(s);
      done = true;
    });
    testutil::RunUntilFlag(sim, done);
    EXPECT_TRUE(done);
    if (st.ok()) ledger[key] = std::move(value);
  };

  // Hammer writes until node 2 is mid-compaction, then pull its power.
  bool crashed = false;
  for (int i = 0; i < 3000 && !crashed; ++i) {
    put(i);
    if (compacting(2)) {
      cluster.CrashNode(2);
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed) << "workload never triggered a compaction on node 2";
  ASSERT_FALSE(ledger.empty());

  // Keep writing while the node is down (chains repair to the survivors).
  for (int i = 10000; i < 10150; ++i) put(i);

  cluster.RestartNode(2);
  EXPECT_FALSE(cluster.node(2).crashed());
  sim.RunUntil(sim.Now() + 400 * kMillisecond);

  // Every acknowledged write — before, during, and after the crash — must
  // still be readable.
  for (const auto& [key, value] : ledger) {
    Status st = Status::Internal("pending");
    std::vector<uint8_t> out;
    for (int attempt = 0; attempt < 5; ++attempt) {
      bool done = false;
      cluster.client(0).Get(key, [&](Status s, std::vector<uint8_t> v, SimTime) {
        st = std::move(s);
        out = std::move(v);
        done = true;
      });
      testutil::RunUntilFlag(sim, done);
      ASSERT_TRUE(done);
      if (st.ok()) break;
      sim.RunUntil(sim.Now() + 20 * kMillisecond);
    }
    ASSERT_TRUE(st.ok()) << "acked write lost: " << key << " -> " << st.ToString();
    EXPECT_EQ(out, value) << key;
  }
}

}  // namespace
}  // namespace leed::cluster
