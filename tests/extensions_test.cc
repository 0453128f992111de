// Tests for the extension features: weighted multi-tenant token allocation
// (§3.5) and the CRAQ-style version-query read mode (§3.7's design
// alternative, kept as an ablation).

#include <gtest/gtest.h>

#include "engine/io_engine.h"
#include "leed/cluster_sim.h"
#include "sim/fault.h"
#include "test_util.h"

namespace leed {
namespace {

TEST(TenantWeightsTest, AdvertisedTokensSplitByWeight) {
  sim::Simulator simulator;
  sim::CpuModel cpu(simulator, 8, 3.0);
  engine::EngineConfig cfg;
  cfg.ssd_count = 1;
  cfg.stores_per_ssd = 1;
  cfg.ssd = sim::Dct983Spec();
  cfg.ssd.capacity_bytes = 1ull << 30;
  cfg.tokens.base_tokens = 100;
  cfg.tokens.min_tokens = 100;
  cfg.tokens.max_tokens = 100;
  cfg.tenant_weights = {3.0, 1.0};  // tenant 0 gets 75%, tenant 1 gets 25%
  engine::IoEngine eng(simulator, cpu, cfg, 1);

  EXPECT_EQ(eng.AvailableTokensFor(0, 0), 75u);
  EXPECT_EQ(eng.AvailableTokensFor(0, 1), 25u);
  // Unknown tenants get the smallest configured share.
  EXPECT_EQ(eng.AvailableTokensFor(0, 9), 25u);
  // No weights configured => full pool for everyone.
  cfg.tenant_weights.clear();
  engine::IoEngine flat(simulator, cpu, cfg, 2);
  EXPECT_EQ(flat.AvailableTokensFor(0, 0), 100u);
  EXPECT_EQ(flat.AvailableTokensFor(0, 7), 100u);
}

TEST(TenantWeightsTest, ResponseMetaCarriesTenantShare) {
  sim::Simulator simulator;
  sim::CpuModel cpu(simulator, 8, 3.0);
  engine::EngineConfig cfg;
  cfg.ssd_count = 1;
  cfg.stores_per_ssd = 1;
  cfg.ssd = sim::Dct983Spec();
  cfg.ssd.capacity_bytes = 1ull << 30;
  cfg.ssd.latency_jitter = 0;
  cfg.ssd.slow_io_prob = 0;
  cfg.tokens.base_tokens = 80;
  cfg.tokens.min_tokens = 80;
  cfg.tokens.max_tokens = 80;
  cfg.tenant_weights = {1.0, 1.0, 2.0};
  engine::IoEngine eng(simulator, cpu, cfg, 3);

  uint32_t t0_tokens = 0, t2_tokens = 0;
  for (uint32_t tenant : {0u, 2u}) {
    engine::Request req;
    req.type = engine::OpType::kGet;
    req.key = "missing";
    req.store_id = 0;
    req.tenant = tenant;
    req.callback = [&, tenant](Status, std::vector<uint8_t>,
                               engine::ResponseMeta meta) {
      (tenant == 0 ? t0_tokens : t2_tokens) = meta.available_tokens;
    };
    eng.Submit(std::move(req));
    simulator.Run();
  }
  EXPECT_EQ(t0_tokens, 20u);  // 80 * 1/4
  EXPECT_EQ(t2_tokens, 40u);  // 80 * 2/4
}

// ---------------------------------------------------------------------------
// CRAQ version-query read mode
// ---------------------------------------------------------------------------

ClusterConfig CraqCluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.num_clients = 1;
  cfg.node.platform = sim::StingrayJbof();
  cfg.node.stack = StackKind::kLeed;
  cfg.node.crrs = true;
  cfg.node.craq_version_query = true;
  cfg.node.engine.ssd_count = 2;
  cfg.node.engine.stores_per_ssd = 2;
  cfg.node.engine.ssd = sim::Dct983Spec();
  cfg.node.engine.ssd.capacity_bytes = 1ull << 30;
  cfg.node.engine.ssd.latency_jitter = 0;
  cfg.node.engine.ssd.slow_io_prob = 0;
  cfg.node.engine.store_template.num_segments = 256;
  cfg.node.engine.store_template.bucket_size = 512;
  cfg.client.crrs_reads = true;
  cfg.client.stores_per_ssd = 2;
  cfg.control_plane.replication_factor = 3;
  return cfg;
}

TEST(CraqModeTest, DirtyReadsResolveViaVersionQuery) {
  ClusterSim cluster(CraqCluster());
  cluster.Bootstrap();
  cluster.Preload(50, 128);

  // Interleave writes and reads of the same hot keys so reads land on
  // dirty replicas.
  int outstanding = 0, read_errors = 0;
  auto& c = cluster.client(0);
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 8; ++k) {
      std::string key = workload::YcsbGenerator::KeyName(k);
      ++outstanding;
      c.Put(key, testutil::TestValue(round, 128), [&](Status st, SimTime) {
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

  uint64_t queries = 0, answers = 0, shipped = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    queries += cluster.node(n).stats().craq_queries_sent;
    answers += cluster.node(n).stats().craq_queries_answered;
    shipped += cluster.node(n).stats().reads_shipped;
  }
  EXPECT_GT(queries, 0u);       // dirty reads went the CRAQ way
  EXPECT_EQ(queries, answers);  // every query was serialized by a tail
  EXPECT_EQ(shipped, 0u);       // and none were shipped
}

TEST(CraqModeTest, ValuesRemainCorrectUnderCraq) {
  ClusterSim cluster(CraqCluster());
  cluster.Bootstrap();
  cluster.Preload(100, 128);
  workload::YcsbConfig wc;
  wc.num_keys = 100;
  wc.value_size = 128;
  workload::YcsbGenerator gen(wc);
  for (uint64_t i = 0; i < 100; i += 9) {
    bool done = false;
    cluster.client(0).Get(workload::YcsbGenerator::KeyName(i),
                          [&, i](Status st, std::vector<uint8_t> v, SimTime) {
                            EXPECT_TRUE(st.ok());
                            EXPECT_EQ(v, gen.MakeValue(i));
                            done = true;
                          });
    while (!done && cluster.simulator().events_pending() > 0 &&
           cluster.simulator().Step()) {
    }
    EXPECT_TRUE(done);
  }
}

TEST(CraqModeTest, DroppedQueryRepliesAreReapedNotLeaked) {
  // Regression: a craq_pending_ entry whose version query (or reply) is
  // lost on the wire used to park forever — past the client timeout, and
  // leaking map entries. The deadline sweep must NACK it within
  // kCraqQueryTimeout (10 ms, below the 20 ms client timeout) so the
  // client retries promptly.
  ClusterSim cluster(CraqCluster());
  cluster.Bootstrap();
  cluster.Preload(50, 128);
  cluster.ArmFaultPlan(sim::ParseFaultPlan("net:drop=0.25").value());

  int outstanding = 0;
  auto& c = cluster.client(0);
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 8; ++k) {
      std::string key = workload::YcsbGenerator::KeyName(k);
      ++outstanding;
      c.Put(key, testutil::TestValue(round, 128),
            [&](Status, SimTime) { --outstanding; });
      ++outstanding;
      c.Get(key, [&](Status, std::vector<uint8_t>, SimTime) {
        // Errors are legitimate under message loss (bounded retries can
        // exhaust); what matters is that every callback fires.
        --outstanding;
      });
    }
  }
  // Drive the lossy phase, then heal the network and drain the retries.
  auto& simulator = cluster.simulator();
  while (simulator.Now() < 120 * kMillisecond &&
         simulator.events_pending() > 0 && simulator.Step()) {
  }
  cluster.faults().net().set_spec(sim::NetFaultSpec{});
  simulator.Run();

  EXPECT_EQ(outstanding, 0);  // nothing parked past its deadline

  uint64_t sent = 0, answered = 0, reaped = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    sent += cluster.node(n).stats().craq_queries_sent;
    answered += cluster.node(n).stats().craq_queries_answered;
    reaped += cluster.node(n).stats().craq_queries_reaped;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_GT(reaped, 0u);  // at least one lost round trip hit the deadline
  EXPECT_LE(reaped, sent);
  (void)answered;
}

}  // namespace
}  // namespace leed
