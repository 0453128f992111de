// End-to-end integration tests: a full simulated LEED cluster (control
// plane + JBOF nodes + clients) exercising replication, CRRS read shipping,
// flow control, membership changes (join/leave), and fail-stop recovery.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/history.h"
#include "leed/cluster_sim.h"
#include "test_util.h"

namespace leed {
namespace {

ClusterConfig SmallLeedCluster(uint32_t nodes = 3, bool crrs = true) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_clients = 1;
  cfg.seed = 0xabc;

  cfg.node.platform = sim::StingrayJbof();
  cfg.node.stack = StackKind::kLeed;
  cfg.node.crrs = crrs;
  cfg.node.engine.ssd_count = 2;
  cfg.node.engine.stores_per_ssd = 2;
  cfg.node.engine.ssd = sim::Dct983Spec();
  cfg.node.engine.ssd.capacity_bytes = 1ull << 30;
  cfg.node.engine.ssd.latency_jitter = 0;
  cfg.node.engine.ssd.slow_io_prob = 0;
  cfg.node.engine.store_template.num_segments = 512;
  cfg.node.engine.store_template.bucket_size = 512;

  cfg.client.crrs_reads = crrs;
  cfg.client.stores_per_ssd = 2;
  cfg.client.request_timeout = 50 * kMillisecond;

  cfg.control_plane.replication_factor = 3;
  cfg.control_plane.heartbeat_period = 10 * kMillisecond;
  cfg.control_plane.failure_timeout = 50 * kMillisecond;
  return cfg;
}

Status ClusterPut(ClusterSim& cluster, const std::string& key,
                  std::vector<uint8_t> value) {
  Status out = Status::Internal("no cb");
  bool done = false;
  cluster.client(0).Put(key, std::move(value), [&](Status st, SimTime) {
    out = std::move(st);
    done = true;
  });
  while (!done && cluster.simulator().events_pending() > 0 &&
         cluster.simulator().Step()) {
  }
  EXPECT_TRUE(done);
  return out;
}

Status ClusterGet(ClusterSim& cluster, const std::string& key,
                  std::vector<uint8_t>* value_out = nullptr) {
  Status out = Status::Internal("no cb");
  bool done = false;
  cluster.client(0).Get(key, [&](Status st, std::vector<uint8_t> v, SimTime) {
    out = std::move(st);
    if (value_out) *value_out = std::move(v);
    done = true;
  });
  while (!done && cluster.simulator().events_pending() > 0 &&
         cluster.simulator().Step()) {
  }
  EXPECT_TRUE(done);
  return out;
}

Status ClusterDel(ClusterSim& cluster, const std::string& key) {
  Status out = Status::Internal("no cb");
  bool done = false;
  cluster.client(0).Del(key, [&](Status st, SimTime) {
    out = std::move(st);
    done = true;
  });
  while (!done && cluster.simulator().events_pending() > 0 &&
         cluster.simulator().Step()) {
  }
  EXPECT_TRUE(done);
  return out;
}

TEST(IntegrationTest, BootstrapCreatesChainDisjointVnodes) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  const auto& view = cluster.control_plane().view();
  EXPECT_EQ(view.vnodes.size(), 12u);  // 3 nodes x 4 stores
  // Every chain spans 3 distinct physical nodes.
  for (int i = 0; i < 50; ++i) {
    auto chain = view.ChainForKey("probe" + std::to_string(i));
    ASSERT_EQ(chain.size(), 3u);
    std::set<uint32_t> owners;
    for (auto v : chain) owners.insert(view.Find(v)->owner_node);
    EXPECT_EQ(owners.size(), 3u);
  }
}

TEST(IntegrationTest, PutGetDelAcrossTheWire) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  auto value = testutil::TestValue(1, 256);
  ASSERT_TRUE(ClusterPut(cluster, "user1", value).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(ClusterGet(cluster, "user1", &out).ok());
  EXPECT_EQ(out, value);
  ASSERT_TRUE(ClusterDel(cluster, "user1").ok());
  EXPECT_TRUE(ClusterGet(cluster, "user1").IsNotFound());
}

TEST(IntegrationTest, WritesReplicateToAllChainMembers) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  ASSERT_TRUE(ClusterPut(cluster, "replicated", testutil::TestValue(2, 128)).ok());
  cluster.simulator().RunUntil(cluster.simulator().Now() + 50 * kMillisecond);

  // Every chain member must hold the value in its local store (acks applied).
  const auto& view = cluster.control_plane().view();
  auto chain = view.ChainForKey("replicated");
  ASSERT_EQ(chain.size(), 3u);
  int holders = 0;
  for (auto vid : chain) {
    const auto* info = view.Find(vid);
    auto& ds = cluster.node(info->owner_node)
                   .leed_engine()
                   ->data_store(info->local_store);
    bool done = false;
    Status st = Status::Internal("x");
    ds.Get("replicated", [&](Status s, std::vector<uint8_t>) {
      st = std::move(s);
      done = true;
    });
    while (!done && cluster.simulator().events_pending() > 0 &&
           cluster.simulator().Step()) {
    }
    if (st.ok()) ++holders;
  }
  EXPECT_EQ(holders, 3);
}

TEST(IntegrationTest, ManyKeysRoundTrip) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        ClusterPut(cluster, "key" + std::to_string(i), testutil::TestValue(i, 100))
            .ok())
        << i;
  }
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(ClusterGet(cluster, "key" + std::to_string(i), &out).ok()) << i;
    EXPECT_EQ(out, testutil::TestValue(i, 100)) << i;
  }
}

TEST(IntegrationTest, PreloadMakesKeysVisible) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  cluster.Preload(200, 128);
  workload::YcsbConfig wc;
  wc.num_keys = 200;
  wc.value_size = 128;
  workload::YcsbGenerator gen(wc);
  for (uint64_t i = 0; i < 200; i += 17) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(ClusterGet(cluster, workload::YcsbGenerator::KeyName(i), &out).ok())
        << i;
    EXPECT_EQ(out, gen.MakeValue(i));
  }
}

TEST(IntegrationTest, CrrsShipsDirtyReads) {
  ClusterSim cluster(SmallLeedCluster(3, /*crrs=*/true));
  cluster.Bootstrap();
  cluster.Preload(50, 128);
  // Hammer interleaved writes+reads of the same keys; reads landing on a
  // dirty replica must be shipped to the tail, never returning stale or
  // failing.
  int outstanding = 0;
  int read_errors = 0;
  auto& c = cluster.client(0);
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 10; ++k) {
      std::string key = workload::YcsbGenerator::KeyName(k);
      ++outstanding;
      c.Put(key, testutil::TestValue(round, 128),
            [&](Status st, SimTime) {
              EXPECT_TRUE(st.ok());
              --outstanding;
            });
      ++outstanding;
      c.Get(key, [&](Status st, std::vector<uint8_t>, SimTime) {
        if (!st.ok() && !st.IsNotFound()) ++read_errors;
        --outstanding;
      });
    }
  }
  cluster.simulator().Run();
  EXPECT_EQ(outstanding, 0);
  EXPECT_EQ(read_errors, 0);
  uint64_t shipped = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    shipped += cluster.node(n).stats().reads_shipped;
  }
  EXPECT_GT(shipped, 0u);  // dirty-bit shipping actually exercised
}

TEST(IntegrationTest, BaselineCrServesReadsFromTailOnly) {
  ClusterSim cluster(SmallLeedCluster(3, /*crrs=*/false));
  cluster.Bootstrap();
  ASSERT_TRUE(ClusterPut(cluster, "k", testutil::TestValue(1, 64)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(ClusterGet(cluster, "k", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(1, 64));
}

TEST(IntegrationTest, NodeJoinMovesDataAndStaysConsistent) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  cluster.Preload(300, 128);

  uint32_t new_node = cluster.JoinNode();
  // Let all COPY transitions complete.
  cluster.simulator().RunUntil(cluster.simulator().Now() + 5 * kSecond);
  EXPECT_FALSE(cluster.control_plane().TransitionInProgress());

  const auto& view = cluster.control_plane().view();
  // The new node's vnodes are RUNNING and own ring arcs.
  int running_on_new = 0;
  for (const auto& [id, info] : view.vnodes) {
    if (info.owner_node == new_node &&
        info.state == cluster::VNodeState::kRunning) {
      ++running_on_new;
    }
  }
  EXPECT_GT(running_on_new, 0);
  EXPECT_TRUE(view.filling.empty());

  // All preloaded keys still readable with correct values.
  workload::YcsbConfig wc;
  wc.num_keys = 300;
  wc.value_size = 128;
  workload::YcsbGenerator gen(wc);
  for (uint64_t i = 0; i < 300; i += 13) {
    std::vector<uint8_t> out;
    Status st = ClusterGet(cluster, workload::YcsbGenerator::KeyName(i), &out);
    ASSERT_TRUE(st.ok()) << "key " << i << ": " << st.ToString();
    EXPECT_EQ(out, gen.MakeValue(i)) << i;
  }
}

TEST(IntegrationTest, NodeLeaveDrainsData) {
  ClusterConfig cfg = SmallLeedCluster(4);
  ClusterSim cluster(cfg);
  cluster.Bootstrap();
  cluster.Preload(300, 128);

  cluster.LeaveNode(3);
  cluster.simulator().RunUntil(cluster.simulator().Now() + 5 * kSecond);
  EXPECT_FALSE(cluster.control_plane().TransitionInProgress());

  const auto& view = cluster.control_plane().view();
  for (const auto& [id, info] : view.vnodes) {
    EXPECT_NE(info.owner_node, 3u) << "vnode " << id << " still on left node";
  }
  workload::YcsbConfig wc;
  wc.num_keys = 300;
  wc.value_size = 128;
  workload::YcsbGenerator gen(wc);
  for (uint64_t i = 0; i < 300; i += 11) {
    std::vector<uint8_t> out;
    Status st = ClusterGet(cluster, workload::YcsbGenerator::KeyName(i), &out);
    ASSERT_TRUE(st.ok()) << "key " << i << ": " << st.ToString();
    EXPECT_EQ(out, gen.MakeValue(i)) << i;
  }
}

TEST(IntegrationTest, NodeFailureIsDetectedAndRepaired) {
  ClusterConfig cfg = SmallLeedCluster(4);
  ClusterSim cluster(cfg);
  cluster.Bootstrap();
  cluster.Preload(200, 128);

  cluster.KillNode(2);
  // Heartbeat timeout (50ms) + detection + re-replication copies.
  cluster.simulator().RunUntil(cluster.simulator().Now() + 8 * kSecond);
  EXPECT_GE(cluster.control_plane().stats().failures_detected, 1u);

  const auto& view = cluster.control_plane().view();
  for (const auto& [id, info] : view.vnodes) {
    EXPECT_NE(info.owner_node, 2u);
  }
  // Data still served by the survivors.
  workload::YcsbConfig wc;
  wc.num_keys = 200;
  wc.value_size = 128;
  workload::YcsbGenerator gen(wc);
  int ok = 0, total = 0;
  for (uint64_t i = 0; i < 200; i += 9) {
    ++total;
    std::vector<uint8_t> out;
    Status st = ClusterGet(cluster, workload::YcsbGenerator::KeyName(i), &out);
    if (st.ok() && out == gen.MakeValue(i)) ++ok;
  }
  EXPECT_EQ(ok, total);
}

TEST(IntegrationTest, RunHarnessProducesThroughputAndEnergy) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  cluster.Preload(500, 256);

  workload::YcsbConfig wc;
  wc.mix = workload::Mix::kB;
  wc.num_keys = 500;
  wc.value_size = 256;
  workload::YcsbGenerator gen(wc);

  ClusterSim::DriveOptions opt;
  opt.concurrency_per_client = 16;
  opt.warmup = 20 * kMillisecond;
  opt.duration = 100 * kMillisecond;
  RunResult r = cluster.Run(gen, opt);

  EXPECT_GT(r.completed, 100u);
  EXPECT_GT(r.throughput_qps, 1000.0);
  EXPECT_GT(r.latency_us.count(), 0u);
  EXPECT_GT(r.latency_us.Mean(), 0.0);
  // 3 polling Stingray nodes: 3 x 52.5 W.
  EXPECT_NEAR(r.cluster_power_w, 157.5, 1.0);
  EXPECT_GT(r.queries_per_joule, 0.0);
  EXPECT_EQ(r.errors, 0u);
}

// Poisson open loop well below the knee: achieved throughput tracks the
// offered rate. (The arrival closure must outlive the setup block that
// schedules it, or the run completes nothing.)
TEST(IntegrationTest, OpenLoopAchievesOfferedRateBelowKnee) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  cluster.Preload(500, 256);

  workload::YcsbConfig wc;
  wc.mix = workload::Mix::kB;
  wc.num_keys = 500;
  wc.value_size = 256;
  workload::YcsbGenerator gen(wc);

  ClusterSim::DriveOptions opt;
  opt.open_loop_qps = 30'000;
  opt.warmup = 20 * kMillisecond;
  opt.duration = 200 * kMillisecond;
  RunResult r = cluster.Run(gen, opt);

  EXPECT_EQ(r.errors, 0u);
  EXPECT_NEAR(r.throughput_qps, opt.open_loop_qps, 0.05 * opt.open_loop_qps);
}

// Open-loop YCSB-F issues each read-modify-write as a GET followed by a PUT
// of the same key, like the closed loop does. With F's 50/50 read/RMW mix
// the clients therefore issue about twice as many GETs as PUTs; an open
// loop that sent the RMW as a bare PUT would issue them one to one.
TEST(IntegrationTest, OpenLoopYcsbFReadsBeforeEachRmwWrite) {
  ClusterConfig cfg = SmallLeedCluster();
  cfg.record_history = true;  // the clients' own record of every op
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  cluster.Preload(500, 256);

  workload::YcsbConfig wc;
  wc.mix = workload::Mix::kF;
  wc.num_keys = 500;
  wc.value_size = 256;
  workload::YcsbGenerator gen(wc);

  ClusterSim::DriveOptions opt;
  opt.open_loop_qps = 20'000;
  opt.warmup = 20 * kMillisecond;
  opt.duration = 100 * kMillisecond;
  RunResult r = cluster.Run(gen, opt);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.completed, 1000u);

  uint64_t gets = 0, puts = 0;
  for (const check::HistoryOp& op : cluster.history()->ops()) {
    if (op.kind == check::OpKind::kGet) ++gets;
    if (op.kind == check::OpKind::kPut) ++puts;
  }
  ASSERT_GT(puts, 500u);
  EXPECT_NEAR(static_cast<double>(gets) / static_cast<double>(puts), 2.0, 0.2)
      << gets << " GETs, " << puts << " PUTs";
}

TEST(IntegrationTest, TimelineBucketsCoverRun) {
  ClusterSim cluster(SmallLeedCluster());
  cluster.Bootstrap();
  cluster.Preload(200, 128);
  workload::YcsbConfig wc;
  wc.mix = workload::Mix::kB;
  wc.num_keys = 200;
  wc.value_size = 128;
  workload::YcsbGenerator gen(wc);

  ClusterSim::DriveOptions opt;
  opt.concurrency_per_client = 8;
  opt.warmup = 10 * kMillisecond;
  opt.duration = 100 * kMillisecond;
  opt.timeline_bucket = 20 * kMillisecond;
  RunResult r = cluster.Run(gen, opt);
  EXPECT_GE(r.timeline.size(), 4u);
  for (auto& [t, qps] : r.timeline) {
    EXPECT_GE(t, 0.0);
    EXPECT_GT(qps, 0.0);
  }
}

}  // namespace
}  // namespace leed
