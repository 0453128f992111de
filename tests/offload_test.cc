// Tests for the host-bypass GET offload fast path (Scalio-style, see
// DESIGN.md §10): engine-level admission/punt behaviour of
// IoEngine::TrySubmitOffload, and cluster-level correctness with
// offload_enabled — index-hit reads are served with zero store-core
// cycles, everything ambiguous punts to the CPU path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/io_engine.h"
#include "leed/cluster_sim.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/ycsb.h"

namespace leed {
namespace {

using engine::EngineConfig;
using engine::IoEngine;
using engine::OpType;
using engine::Request;
using engine::ResponseMeta;

class OffloadEngineTest : public ::testing::Test {
 protected:
  EngineConfig OffloadEngine(uint32_t ssds = 1) {
    EngineConfig cfg;
    cfg.ssd_count = ssds;
    cfg.stores_per_ssd = 2;
    cfg.ssd = sim::Dct983Spec();
    cfg.ssd.capacity_bytes = 1ull << 30;
    cfg.ssd.latency_jitter = 0;
    cfg.ssd.slow_io_prob = 0;
    cfg.store_template.num_segments = 256;
    cfg.store_template.bucket_size = 512;
    cfg.wait_queue_capacity = 64;
    cfg.offload_enabled = true;
    return cfg;
  }

  Status SyncOp(IoEngine& engine, OpType type, const std::string& key,
                std::vector<uint8_t> value, uint32_t store,
                std::vector<uint8_t>* out = nullptr) {
    Status result = Status::Internal("no callback");
    bool done = false;
    Request req;
    req.type = type;
    req.key = key;
    req.value = std::move(value);
    req.store_id = store;
    req.callback = [&](Status st, std::vector<uint8_t> v, ResponseMeta) {
      result = std::move(st);
      if (out) *out = std::move(v);
      done = true;
    };
    engine.Submit(std::move(req));
    testutil::RunUntilFlag(sim_, done);
    EXPECT_TRUE(done);
    return result;
  }

  Request MakeGet(const std::string& key, uint32_t store, bool* done,
                  Status* result, std::vector<uint8_t>* out = nullptr) {
    Request req;
    req.type = OpType::kGet;
    req.key = key;
    req.store_id = store;
    req.callback = [done, result, out](Status st, std::vector<uint8_t> v,
                                       ResponseMeta) {
      *result = std::move(st);
      if (out) *out = std::move(v);
      *done = true;
    };
    return req;
  }

  sim::Simulator sim_;
};

TEST_F(OffloadEngineTest, FastPathServesIndexHitWithoutCpuCycles) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  IoEngine engine(sim_, cpu, OffloadEngine(), 1);
  auto value = testutil::TestValue(7, 256);
  ASSERT_TRUE(SyncOp(engine, OpType::kPut, "k1", value, 0).ok());

  // All of store 0's work runs on core 0 (the core statically mapped to
  // SSD 0). Nothing on the fast path may charge it.
  const SimTime busy_before = cpu.core(0).total_busy_ns();

  bool done = false;
  Status st = Status::Internal("pending");
  std::vector<uint8_t> out;
  Request req = MakeGet("k1", 0, &done, &st, &out);
  ASSERT_TRUE(engine.TrySubmitOffload(req));
  testutil::RunUntilFlag(sim_, done);

  ASSERT_TRUE(st.ok());
  EXPECT_EQ(out, value);
  EXPECT_EQ(cpu.core(0).total_busy_ns(), busy_before);
  EXPECT_EQ(engine.stats().offload_fast_hits, 1u);
  EXPECT_EQ(engine.stats().offload_slow_fallbacks, 0u);
  EXPECT_EQ(engine.data_store(0).stats().fast_gets, 1u);
  EXPECT_EQ(engine.data_store(0).stats().fast_get_aborts, 0u);
}

TEST_F(OffloadEngineTest, EmptyIndexPuntsAndChargesConsultation) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  IoEngine engine(sim_, cpu, OffloadEngine(), 1);

  const SimTime busy_before = cpu.core(0).total_busy_ns();
  bool done = false;
  Status st = Status::Internal("pending");
  Request req = MakeGet("missing", 0, &done, &st);
  EXPECT_FALSE(engine.TrySubmitOffload(req));
  EXPECT_EQ(engine.stats().offload_slow_fallbacks, 1u);
  EXPECT_EQ(engine.stats().offload_fast_hits, 0u);
  // The punt burned exactly the index consultation on the owning core:
  // 300 cycles at 3 GHz = 100 ns.
  EXPECT_EQ(cpu.core(0).total_busy_ns() - busy_before, 100);

  // The request survives a punt intact: the CPU path still works.
  engine.Submit(std::move(req));
  testutil::RunUntilFlag(sim_, done);
  EXPECT_TRUE(st.IsNotFound());
}

TEST_F(OffloadEngineTest, MultiBucketChainPunts) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = OffloadEngine();
  // One segment: every key shares one bucket chain; enough inserts
  // overflow the 512-byte head bucket and grow the chain past length 1.
  cfg.store_template.num_segments = 1;
  IoEngine engine(sim_, cpu, cfg, 1);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(SyncOp(engine, OpType::kPut,
                       workload::YcsbGenerator::KeyName(i),
                       testutil::TestValue(i, 64), 0)
                    .ok());
  }
  ASSERT_GT(engine.data_store(0).segments().At(0).chain_len, 1);

  bool done = false;
  Status st = Status::Internal("pending");
  Request req = MakeGet(workload::YcsbGenerator::KeyName(0), 0, &done, &st);
  EXPECT_FALSE(engine.TrySubmitOffload(req));
  EXPECT_EQ(engine.stats().offload_slow_fallbacks, 1u);
}

TEST_F(OffloadEngineTest, TokenExhaustionPuntsToSlowPath) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = OffloadEngine();
  // Token admission still applies to offloaded reads (the counters live in
  // NIC hardware): pin the pool small enough for two concurrent GETs.
  cfg.tokens.base_tokens = 4;
  cfg.tokens.min_tokens = 4;
  cfg.tokens.max_tokens = 4;
  IoEngine engine(sim_, cpu, cfg, 1);
  ASSERT_TRUE(SyncOp(engine, OpType::kPut, "k", testutil::TestValue(1, 32), 0).ok());

  bool done[3] = {false, false, false};
  Status st[3] = {Status::Internal("a"), Status::Internal("b"),
                  Status::Internal("c")};
  Request r0 = MakeGet("k", 0, &done[0], &st[0]);
  Request r1 = MakeGet("k", 0, &done[1], &st[1]);
  Request r2 = MakeGet("k", 0, &done[2], &st[2]);
  EXPECT_TRUE(engine.TrySubmitOffload(r0));
  EXPECT_TRUE(engine.TrySubmitOffload(r1));
  EXPECT_FALSE(engine.TrySubmitOffload(r2));  // pool drained: punt
  EXPECT_EQ(engine.stats().offload_slow_fallbacks, 1u);

  sim_.Run();
  EXPECT_TRUE(done[0] && done[1]);
  EXPECT_TRUE(st[0].ok() && st[1].ok());

  // Completions refunded the tokens: the fast path admits again.
  EXPECT_TRUE(engine.TrySubmitOffload(r2));
  testutil::RunUntilFlag(sim_, done[2]);
  EXPECT_TRUE(st[2].ok());
}

// ---------------------------------------------------------------------------
// Cluster-level: offload_enabled end to end
// ---------------------------------------------------------------------------

ClusterConfig OffloadCluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.num_clients = 1;
  cfg.node.platform = sim::StingrayJbof();
  cfg.node.stack = StackKind::kLeed;
  cfg.node.crrs = true;
  cfg.node.engine.offload_enabled = true;
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

TEST(OffloadClusterTest, ServesCorrectValuesViaFastPath) {
  ClusterSim cluster(OffloadCluster());
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
  uint64_t offloaded = 0, fast_hits = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    offloaded += cluster.node(n).stats().offload_gets;
    fast_hits += cluster.node(n).leed_engine()->stats().offload_fast_hits;
  }
  // A quiet, preloaded cluster resolves every read on the fast path.
  EXPECT_GT(offloaded, 0u);
  EXPECT_EQ(offloaded, fast_hits);
}

TEST(OffloadClusterTest, DirtyReadsPuntToCpuPath) {
  ClusterSim cluster(OffloadCluster());
  cluster.Bootstrap();
  cluster.Preload(50, 128);

  // Interleave writes and reads of hot keys: reads landing on a dirty
  // CRRS replica must never take the fast path (they ship or park), while
  // clean reads still do.
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

  uint64_t served = 0, offloaded = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    served += cluster.node(n).stats().gets_served;
    offloaded += cluster.node(n).stats().offload_gets;
  }
  EXPECT_GT(offloaded, 0u);       // clean reads still fast-path
  EXPECT_LT(offloaded, served);   // dirty reads fell back
}

}  // namespace
}  // namespace leed
