// Tests for the intra-JBOF engine: the adaptive token pool and the
// IoEngine's admission / queueing / data-swap behaviour.

#include <gtest/gtest.h>

#include <vector>

#include "engine/io_engine.h"
#include "engine/token_bucket.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace leed::engine {
namespace {

// ---------------------------------------------------------------------------
// Token pool
// ---------------------------------------------------------------------------

TEST(TokenPoolTest, TakeAndRefund) {
  TokenConfig cfg;
  cfg.base_tokens = 10;
  TokenPool pool(cfg);
  EXPECT_EQ(pool.available(), 10u);
  EXPECT_TRUE(pool.TryTake(3));
  EXPECT_EQ(pool.available(), 7u);
  EXPECT_FALSE(pool.TryTake(8));
  pool.Refund(3);
  EXPECT_EQ(pool.available(), 10u);
}

TEST(TokenPoolTest, SlowDeviceShrinksCapacity) {
  TokenConfig cfg;
  cfg.base_tokens = 100;
  cfg.reference_latency_ns = 60 * kMicrosecond;
  cfg.ewma_alpha = 0.5;  // fast adaptation for the test
  TokenPool pool(cfg);
  for (int i = 0; i < 20; ++i) pool.OnIoCompleted(600 * kMicrosecond);  // 10x slow
  EXPECT_LT(pool.capacity(), 20u);
  EXPECT_GE(pool.capacity(), cfg.min_tokens);
  // Recovery when the device speeds back up.
  for (int i = 0; i < 40; ++i) pool.OnIoCompleted(60 * kMicrosecond);
  EXPECT_GT(pool.capacity(), 80u);
  EXPECT_LE(pool.capacity(), cfg.max_tokens);
}

TEST(TokenPoolTest, RescaleRespectsOutstanding) {
  TokenConfig cfg;
  cfg.base_tokens = 100;
  cfg.ewma_alpha = 1.0;
  TokenPool pool(cfg);
  ASSERT_TRUE(pool.TryTake(60));
  pool.OnIoCompleted(cfg.reference_latency_ns * 2);  // capacity halves to 50
  EXPECT_EQ(pool.capacity(), 50u);
  EXPECT_EQ(pool.available(), 0u);  // 60 outstanding > 50 capacity
  pool.Refund(60);
  EXPECT_EQ(pool.available(), 50u);
}

TEST(TokenPoolTest, CostsMatchAccessCounts) {
  TokenConfig cfg;
  EXPECT_EQ(TokenCost(cfg, OpType::kGet), 2u);
  EXPECT_EQ(TokenCost(cfg, OpType::kPut), 3u);
  EXPECT_EQ(TokenCost(cfg, OpType::kDel), 2u);
}

// ---------------------------------------------------------------------------
// IoEngine
// ---------------------------------------------------------------------------

class IoEngineTest : public ::testing::Test {
 protected:
  EngineConfig SmallEngine(uint32_t ssds = 2) {
    EngineConfig cfg;
    cfg.ssd_count = ssds;
    cfg.stores_per_ssd = 2;
    cfg.ssd = sim::Dct983Spec();
    cfg.ssd.capacity_bytes = 1ull << 30;  // 1 GB keeps the page store small
    cfg.ssd.latency_jitter = 0;
    cfg.ssd.slow_io_prob = 0;
    cfg.store_template.num_segments = 256;
    cfg.store_template.bucket_size = 512;
    cfg.wait_queue_capacity = 64;
    cfg.swap_check_period = 100 * kMicrosecond;
    cfg.swap_gap_threshold = 8;
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

  sim::Simulator sim_;
};

TEST_F(IoEngineTest, EndToEndPutGet) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  IoEngine engine(sim_, cpu, SmallEngine(), 1);
  EXPECT_EQ(engine.num_stores(), 4u);
  auto value = testutil::TestValue(5, 256);
  ASSERT_TRUE(SyncOp(engine, OpType::kPut, "k1", value, 3).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncOp(engine, OpType::kGet, "k1", {}, 3, &out).ok());
  EXPECT_EQ(out, value);
  ASSERT_TRUE(SyncOp(engine, OpType::kDel, "k1", {}, 3).ok());
  EXPECT_TRUE(SyncOp(engine, OpType::kGet, "k1", {}, 3).IsNotFound());
  EXPECT_EQ(engine.stats().completed, 4u);
}

TEST_F(IoEngineTest, StoresAreIndependent) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  IoEngine engine(sim_, cpu, SmallEngine(), 1);
  ASSERT_TRUE(SyncOp(engine, OpType::kPut, "same-key", testutil::TestValue(1, 32), 0).ok());
  ASSERT_TRUE(SyncOp(engine, OpType::kPut, "same-key", testutil::TestValue(2, 32), 1).ok());
  std::vector<uint8_t> a, b;
  ASSERT_TRUE(SyncOp(engine, OpType::kGet, "same-key", {}, 0, &a).ok());
  ASSERT_TRUE(SyncOp(engine, OpType::kGet, "same-key", {}, 1, &b).ok());
  EXPECT_EQ(a, testutil::TestValue(1, 32));
  EXPECT_EQ(b, testutil::TestValue(2, 32));
}

TEST_F(IoEngineTest, AdmissionQueuesBeyondTokens) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = SmallEngine(1);
  cfg.tokens.base_tokens = 6;  // 3 concurrent GETs
  cfg.tokens.min_tokens = 6;
  cfg.tokens.max_tokens = 6;
  IoEngine engine(sim_, cpu, cfg, 1);
  // Preload one key.
  ASSERT_TRUE(SyncOp(engine, OpType::kPut, "k", testutil::TestValue(1, 32), 0).ok());

  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    Request req;
    req.type = OpType::kGet;
    req.key = "k";
    req.store_id = 0;
    req.callback = [&](Status st, std::vector<uint8_t>, ResponseMeta) {
      EXPECT_TRUE(st.ok());
      ++completed;
    };
    engine.Submit(std::move(req));
  }
  EXPECT_GT(engine.WaitQueueDepth(0), 0u);  // waiting queue absorbed overflow
  sim_.Run();
  EXPECT_EQ(completed, 20);
  EXPECT_GT(engine.stats().waited, 0u);
}

TEST_F(IoEngineTest, FullWaitingQueueRejectsOverloaded) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = SmallEngine(1);
  cfg.tokens.base_tokens = 2;
  cfg.tokens.min_tokens = 2;
  cfg.tokens.max_tokens = 2;
  cfg.wait_queue_capacity = 4;
  IoEngine engine(sim_, cpu, cfg, 1);
  int overloaded = 0, accepted = 0;
  for (int i = 0; i < 40; ++i) {
    Request req;
    req.type = OpType::kGet;
    req.key = "missing";
    req.store_id = 0;
    req.callback = [&](Status st, std::vector<uint8_t>, ResponseMeta meta) {
      if (st.IsOverloaded()) {
        ++overloaded;
        EXPECT_EQ(meta.ssd, 0u);
      } else {
        ++accepted;
      }
    };
    engine.Submit(std::move(req));
  }
  sim_.Run();
  // One GET holds both tokens, exactly wait_queue_capacity wait, the rest
  // are rejected.
  EXPECT_EQ(accepted, 5);
  EXPECT_EQ(overloaded, 35);
  EXPECT_EQ(engine.stats().waited, 4u);
  EXPECT_EQ(engine.stats().rejected_overloaded, static_cast<uint64_t>(overloaded));
}

TEST_F(IoEngineTest, WaitersAdmittedFirstComeFirstServed) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = SmallEngine(1);
  cfg.tokens.base_tokens = 2;  // one GET at a time: completion order is
  cfg.tokens.min_tokens = 2;   // admission order
  cfg.tokens.max_tokens = 2;
  cfg.wait_queue_capacity = 8;
  IoEngine engine(sim_, cpu, cfg, 1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    Request req;
    req.type = OpType::kGet;
    req.key = "key" + std::to_string(i);
    req.store_id = static_cast<uint32_t>(i) % engine.num_stores();
    req.callback = [&order, i](Status st, std::vector<uint8_t>, ResponseMeta) {
      EXPECT_TRUE(st.IsNotFound()) << st.ToString();
      order.push_back(i);
    };
    engine.Submit(std::move(req));
  }
  EXPECT_EQ(engine.WaitQueueDepth(0), 7u);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(engine.stats().waited, 7u);
}

TEST_F(IoEngineTest, TokensPropagateInResponseMeta) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  IoEngine engine(sim_, cpu, SmallEngine(1), 1);
  uint32_t seen_tokens = 0;
  Request req;
  req.type = OpType::kGet;
  req.key = "nothing";
  req.store_id = 0;
  req.callback = [&](Status, std::vector<uint8_t>, ResponseMeta meta) {
    seen_tokens = meta.available_tokens;
  };
  engine.Submit(std::move(req));
  sim_.Run();
  EXPECT_GT(seen_tokens, 0u);
}

TEST_F(IoEngineTest, DataSwapActivatesUnderImbalance) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = SmallEngine(2);
  cfg.tokens.base_tokens = 4;  // SSD 0 backs up fast
  cfg.tokens.min_tokens = 4;
  cfg.tokens.max_tokens = 4;
  cfg.wait_queue_capacity = 128;
  IoEngine engine(sim_, cpu, cfg, 1);

  int done = 0;
  for (int i = 0; i < 120; ++i) {
    Request req;
    req.type = OpType::kPut;
    req.key = "key" + std::to_string(i);
    req.value = testutil::TestValue(i, 128);
    req.store_id = 0;  // all writes hammer SSD 0
    req.callback = [&](Status, std::vector<uint8_t>, ResponseMeta) { ++done; };
    engine.Submit(std::move(req));
  }
  sim_.Run();
  EXPECT_EQ(done, 120);
  EXPECT_GT(engine.stats().swap_activations, 0u);
  // Values written during the overload are readable afterwards.
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncOp(engine, OpType::kGet, "key100", {}, 0, &out).ok());
  EXPECT_EQ(out, testutil::TestValue(100, 128));
}

TEST_F(IoEngineTest, SwappedWritesAdmitAgainstDonorPool) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = SmallEngine(2);
  cfg.enable_data_swap = true;
  IoEngine engine(sim_, cpu, cfg, 1);
  // Force a swap target directly (bypassing the watchdog) and verify a PUT
  // consumes the DONOR's tokens — §3.6's "another one's active queue".
  engine.data_store(0).SetSwapTarget(1);
  ASSERT_TRUE(engine.SwapTargetOf(0).has_value());

  uint32_t home_before = engine.AvailableTokens(0);
  uint32_t donor_before = engine.AvailableTokens(1);
  Request req;
  req.type = OpType::kPut;
  req.key = "swap-admit";
  req.value = testutil::TestValue(1, 64);
  req.store_id = 0;
  bool done = false;
  req.callback = [&](Status st, std::vector<uint8_t>, ResponseMeta meta) {
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(meta.ssd, 1u);  // admitted against the donor
    done = true;
  };
  engine.Submit(std::move(req));
  // Tokens were taken from the donor pool, not the home pool.
  EXPECT_EQ(engine.AvailableTokens(0), home_before);
  EXPECT_LT(engine.AvailableTokens(1), donor_before);
  sim_.Run();
  EXPECT_TRUE(done);
  // GETs still admit against the home SSD.
  uint32_t donor_mid = engine.AvailableTokens(1);
  Request get;
  get.type = OpType::kGet;
  get.key = "swap-admit";
  get.store_id = 0;
  bool got = false;
  get.callback = [&](Status st, std::vector<uint8_t> v, ResponseMeta meta) {
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(v, testutil::TestValue(1, 64));
    EXPECT_EQ(meta.ssd, 0u);
    got = true;
  };
  engine.Submit(std::move(get));
  EXPECT_EQ(engine.AvailableTokens(1), donor_mid);
  sim_.Run();
  EXPECT_TRUE(got);
}

TEST_F(IoEngineTest, SwapDisabledNeverActivates) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = SmallEngine(2);
  cfg.enable_data_swap = false;
  cfg.tokens.base_tokens = 4;
  cfg.tokens.min_tokens = 4;
  cfg.tokens.max_tokens = 4;
  IoEngine engine(sim_, cpu, cfg, 1);
  int done = 0;
  for (int i = 0; i < 60; ++i) {
    Request req;
    req.type = OpType::kPut;
    req.key = "key" + std::to_string(i);
    req.value = testutil::TestValue(i, 128);
    req.store_id = 0;
    req.callback = [&](Status, std::vector<uint8_t>, ResponseMeta) { ++done; };
    engine.Submit(std::move(req));
  }
  sim_.Run();
  EXPECT_EQ(engine.stats().swap_activations, 0u);
}

// Every command leaves through one retirement: CPU-path point ops, scans
// and offload fast-path GETs are each counted, sampled and refunded once,
// and full-queue rejections are answered without being retired.
TEST_F(IoEngineTest, EveryCommandRetiresOnce) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = SmallEngine(2);
  cfg.offload_enabled = true;
  cfg.tokens.base_tokens = 12;
  cfg.tokens.min_tokens = 12;
  cfg.tokens.max_tokens = 12;
  cfg.wait_queue_capacity = 8;
  IoEngine engine(sim_, cpu, cfg, 1);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(SyncOp(engine, OpType::kPut, "key" + std::to_string(i),
                       testutil::TestValue(i, 64),
                       static_cast<uint32_t>(i) % engine.num_stores())
                    .ok());
  }

  uint64_t answered = 0;
  auto point = [&](OpType type, int i) {
    Request req;
    req.type = type;
    req.key = "key" + std::to_string(i % 16);
    if (type == OpType::kPut) req.value = testutil::TestValue(100 + i, 64);
    req.store_id = static_cast<uint32_t>(i) % engine.num_stores();
    req.callback = [&](Status, std::vector<uint8_t>, ResponseMeta) {
      ++answered;
    };
    return req;
  };
  // Offload fast-path GETs first, while the token pools are full.
  uint64_t offloaded = 0;
  for (int i = 0; i < 4; ++i) {
    Request req = point(OpType::kGet, i);
    if (engine.TrySubmitOffload(req)) {
      ++offloaded;
    } else {
      engine.Submit(std::move(req));
    }
  }
  for (int i = 0; i < 64; ++i) {
    if (i % 8 == 7) {
      Request scan;
      scan.type = OpType::kScan;
      scan.key = "key";
      scan.store_id = static_cast<uint32_t>(i) % engine.num_stores();
      scan.scan_limit = 4;
      scan.scan_snapshot = engine.ScanSnapshot(scan.store_id, scan.key, 4);
      scan.scan_callback = [&](Status, std::vector<store::ScanItem>,
                               ResponseMeta) { ++answered; };
      engine.Submit(std::move(scan));
      continue;
    }
    static constexpr OpType kMix[] = {OpType::kGet, OpType::kPut, OpType::kDel};
    engine.Submit(point(kMix[i % 3], i));
  }
  sim_.Run();

  const EngineStats st = engine.stats();
  EXPECT_GT(offloaded, 0u);
  EXPECT_EQ(st.offload_fast_hits, offloaded);
  EXPECT_GT(st.rejected_overloaded, 0u);
  EXPECT_EQ(answered, 68u);
  EXPECT_EQ(st.submitted, st.completed + st.rejected_overloaded);
  EXPECT_EQ(st.completed, st.executed + st.offload_fast_hits);
  EXPECT_EQ(st.service_us.count(), st.completed);
  EXPECT_EQ(st.total_us.count(), st.completed);
  EXPECT_EQ(st.queue_us.count(), st.executed);
  for (uint32_t ssd = 0; ssd < engine.ssd_count(); ++ssd) {
    EXPECT_EQ(engine.AvailableTokens(ssd), 12u) << "ssd " << ssd;
    EXPECT_EQ(engine.ActiveCount(ssd), 0u) << "ssd " << ssd;
  }
}

TEST_F(IoEngineTest, AdmissionControlOffIsFcfs) {
  sim::CpuModel cpu(sim_, 8, 3.0);
  EngineConfig cfg = SmallEngine(1);
  cfg.tokens.base_tokens = 2;
  IoEngine engine(sim_, cpu, cfg, 1);
  engine.set_admission_control(false);
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    Request req;
    req.type = OpType::kGet;
    req.key = "x";
    req.store_id = 0;
    req.callback = [&](Status, std::vector<uint8_t>, ResponseMeta) { ++done; };
    engine.Submit(std::move(req));
  }
  sim_.Run();
  EXPECT_EQ(done, 50);
  EXPECT_EQ(engine.stats().rejected_overloaded, 0u);
  EXPECT_EQ(engine.stats().waited, 0u);  // everything fired immediately
}

}  // namespace
}  // namespace leed::engine
