// Crash-recovery tests: SegTbl reconstruction from the key-log scan
// (paper §3.2.3's recovery fields), including chains, collapsed arrays,
// torn tail appends, deletions, and swapped segments.

#include <gtest/gtest.h>

#include <map>

#include "log/circular_log.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "store/data_store.h"
#include "store/recovery.h"
#include "test_util.h"

namespace leed::store {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : device_(sim_, 64ull << 20, 512), donor_(sim_, 64ull << 20, 512),
                   core_(sim_, 3.0) {}

  StoreConfig Config() {
    StoreConfig cfg;
    cfg.num_segments = 64;
    cfg.bucket_size = 512;
    cfg.compaction_threshold = 1.1;
    return cfg;
  }

  // Build a store over fresh CircularLog objects attached to the SAME
  // device (the "disk" survives the crash; the process state does not).
  std::unique_ptr<DataStore> FreshStore(bool restore_from = false,
                                        const RecoveryCheckpoint* cp = nullptr) {
    key_log_ = std::make_unique<log::CircularLog>(device_, 0, 8 << 20);
    value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 8 << 20);
    if (restore_from && cp) {
      EXPECT_TRUE(key_log_->Restore(cp->logs[0].key_head, cp->logs[0].key_tail).ok());
      EXPECT_TRUE(
          value_log_->Restore(cp->logs[0].value_head, cp->logs[0].value_tail).ok());
    }
    return std::make_unique<DataStore>(sim_, core_,
                                       LogSet{0, key_log_.get(), value_log_.get()},
                                       Config());
  }

  RecoveryStats Recover(DataStore& ds, const RecoveryCheckpoint& cp) {
    RecoveryStats stats;
    bool done = false;
    RecoverSegTbl(ds, cp, [&](Status st, RecoveryStats s) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      stats = s;
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    EXPECT_TRUE(done);
    return stats;
  }

  sim::Simulator sim_;
  sim::MemBlockDevice device_;
  sim::MemBlockDevice donor_;
  sim::CpuCore core_;
  std::unique_ptr<log::CircularLog> key_log_, value_log_;
};

TEST_F(RecoveryTest, RebuildsAllKeysAfterCrash) {
  auto ds = FreshStore();
  std::map<std::string, std::vector<uint8_t>> truth;
  for (int i = 0; i < 100; ++i) {
    std::string key = "k" + std::to_string(i);
    auto value = testutil::TestValue(i, 80);
    ASSERT_TRUE(testutil::SyncPut(sim_, *ds, key, value).ok());
    truth[key] = value;
  }
  // Overwrites and deletes before the crash.
  for (int i = 0; i < 100; i += 3) {
    std::string key = "k" + std::to_string(i);
    auto value = testutil::TestValue(1000 + i, 80);
    ASSERT_TRUE(testutil::SyncPut(sim_, *ds, key, value).ok());
    truth[key] = value;
  }
  for (int i = 0; i < 100; i += 10) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(testutil::SyncDel(sim_, *ds, key).ok());
    truth.erase(key);
  }
  RecoveryCheckpoint cp = Checkpoint(*ds);

  ds.reset();  // crash: all DRAM state gone
  auto recovered = FreshStore(true, &cp);
  RecoveryStats stats = Recover(*recovered, cp);
  EXPECT_GT(stats.segments_recovered, 0u);
  EXPECT_GT(stats.buckets_scanned, 0u);

  for (int i = 0; i < 100; ++i) {
    std::string key = "k" + std::to_string(i);
    std::vector<uint8_t> out;
    Status st = testutil::SyncGet(sim_, *recovered, key, &out);
    auto it = truth.find(key);
    if (it == truth.end()) {
      EXPECT_TRUE(st.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
      EXPECT_EQ(out, it->second) << key;
    }
  }
}

TEST_F(RecoveryTest, RecoversCollapsedArraysAndChains) {
  StoreConfig cfg = Config();
  cfg.num_segments = 1;  // everything in one long chain
  key_log_ = std::make_unique<log::CircularLog>(device_, 0, 8 << 20);
  value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 8 << 20);
  auto ds = std::make_unique<DataStore>(
      sim_, core_, LogSet{0, key_log_.get(), value_log_.get()}, cfg);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "key" + std::to_string(i),
                                  testutil::TestValue(i, 40))
                    .ok());
  }
  // Collapse into a contiguous array, then add a few more chain buckets.
  bool done = false;
  ds->ForceKeyCompaction([&](Status) { done = true; });
  testutil::RunUntilFlag(sim_, done);
  for (int i = 60; i < 70; ++i) {
    ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "key" + std::to_string(i),
                                  testutil::TestValue(i, 40))
                    .ok());
  }
  RecoveryCheckpoint cp = Checkpoint(*ds);
  uint8_t chain_before = ds->segments().At(0).chain_len;
  uint64_t head_before = ds->segments().At(0).offset;

  ds.reset();
  key_log_ = std::make_unique<log::CircularLog>(device_, 0, 8 << 20);
  value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 8 << 20);
  ASSERT_TRUE(key_log_->Restore(cp.logs[0].key_head, cp.logs[0].key_tail).ok());
  ASSERT_TRUE(value_log_->Restore(cp.logs[0].value_head, cp.logs[0].value_tail).ok());
  auto recovered = std::make_unique<DataStore>(
      sim_, core_, LogSet{0, key_log_.get(), value_log_.get()}, cfg);
  Recover(*recovered, cp);

  EXPECT_EQ(recovered->segments().At(0).chain_len, chain_before);
  EXPECT_EQ(recovered->segments().At(0).offset, head_before);
  for (int i = 0; i < 70; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(
        testutil::SyncGet(sim_, *recovered, "key" + std::to_string(i), &out).ok())
        << i;
    EXPECT_EQ(out, testutil::TestValue(i, 40));
  }
}

TEST_F(RecoveryTest, RecoversDurableWritesPastCheckpoint) {
  auto ds = FreshStore();
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "stable", testutil::TestValue(1, 64)).ok());
  RecoveryCheckpoint cp = Checkpoint(*ds);
  // Acked after the checkpoint: the extended scan must re-adopt them.
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "late-1", testutil::TestValue(2, 64)).ok());
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "late-2", testutil::TestValue(3, 96)).ok());
  ASSERT_TRUE(testutil::SyncDel(sim_, *ds, "stable").ok());

  ds.reset();
  auto recovered = FreshStore(true, &cp);
  RecoveryStats stats = Recover(*recovered, cp);
  EXPECT_GT(stats.extended_buckets, 0u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, "late-1", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(2, 64));
  ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, "late-2", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(3, 96));
  // The acked post-checkpoint DEL is honoured too.
  EXPECT_TRUE(testutil::SyncGet(sim_, *recovered, "stable").IsNotFound());
}

// Compaction wraps a small key log several times and discards what each
// head advance reclaims, so past the checkpointed tail the extended scan
// finds discarded zeros (not the previous lap's buckets) once it passes
// the acked appends. A checkpoint, more acked PUTs and compaction runs
// (whose discards reach into the checkpointed range), then a crash:
// recovery still adopts every acked append.
TEST_F(RecoveryTest, ExtendedScanAfterWrapAndDiscardAdoptsEveryAckedAppend) {
  StoreConfig cfg = Config();
  cfg.num_segments = 16;
  cfg.compaction_threshold = 0.5;
  cfg.compaction_chunk = 16 * 1024;
  constexpr uint64_t kKeyLog = 256 << 10;
  constexpr uint64_t kValueBase = 8 << 20;
  constexpr uint64_t kValueLog = 1 << 20;
  auto open = [&](const RecoveryCheckpoint* cp) {
    key_log_ = std::make_unique<log::CircularLog>(device_, 0, kKeyLog);
    value_log_ = std::make_unique<log::CircularLog>(device_, kValueBase, kValueLog);
    if (cp != nullptr) {
      EXPECT_TRUE(key_log_->Restore(cp->logs[0].key_head, cp->logs[0].key_tail).ok());
      EXPECT_TRUE(
          value_log_->Restore(cp->logs[0].value_head, cp->logs[0].value_tail).ok());
    }
    return std::make_unique<DataStore>(sim_, core_,
                                       LogSet{0, key_log_.get(), value_log_.get()}, cfg);
  };
  auto ds = open(nullptr);
  std::map<std::string, std::vector<uint8_t>> truth;
  int round = 0;
  auto put_round = [&] {
    for (int i = 0; i < 32; ++i) {
      const std::string key = "key" + std::to_string(i);
      auto value = testutil::TestValue(static_cast<uint32_t>(round * 100 + i), 128);
      ASSERT_TRUE(testutil::SyncPut(sim_, *ds, key, value).ok()) << key;
      truth[key] = value;
    }
    ++round;
  };
  while (ds->home().key_log->tail() < 3 * kKeyLog) put_round();
  sim_.Run();  // trailing compactions
  const RecoveryCheckpoint cp = Checkpoint(*ds);
  // Past the tail lies the previous lap, discarded when the head passed it.
  const uint64_t beyond = cp.logs[0].key_head + kKeyLog - cp.logs[0].key_tail;
  ASSERT_GE(beyond, 4u * 512);
  std::vector<uint8_t> stale;
  bool read = false;
  ds->home().key_log->ReadRaw(cp.logs[0].key_tail, 4 * 512, [&](log::ReadResult r) {
    ASSERT_TRUE(r.status.ok());
    stale = std::move(r.data);
    read = true;
  });
  ASSERT_TRUE(testutil::RunUntilFlag(sim_, read));
  EXPECT_EQ(stale, std::vector<uint8_t>(4 * 512, 0));

  const uint64_t compactions = ds->stats().key_compactions;
  while (ds->home().key_log->head() <= cp.logs[0].key_head ||
         ds->stats().key_compactions == compactions) {
    put_round();
  }
  sim_.Run();
  ASSERT_LT(ds->home().key_log->tail(), cp.logs[0].key_head + kKeyLog);

  ds.reset();  // crash
  auto recovered = open(&cp);
  RecoveryStats stats = Recover(*recovered, cp);
  EXPECT_GT(stats.extended_buckets, 0u);
  EXPECT_GT(stats.crc_rejected, 0u);  // the discarded head range, then past the tail
  for (const auto& [key, value] : truth) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, key, &out).ok()) << key;
    EXPECT_EQ(out, value) << key;
  }
}

TEST_F(RecoveryTest, TornTailAppendIsRejectedCleanly) {
  auto ds = FreshStore();
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "stable", testutil::TestValue(1, 64)).ok());
  RecoveryCheckpoint cp = Checkpoint(*ds);
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "durable", testutil::TestValue(2, 64)).ok());

  // Simulate a torn in-flight append at the tail: a strict prefix of the
  // next bucket made it to the media before power cut, the rest never did.
  // 200 bytes of a stale buffer land where the next bucket would start.
  const uint64_t tail = Checkpoint(*ds).logs[0].key_tail;
  const uint64_t torn_at = tail % (8 << 20);  // key log occupies [0, 8MB)
  sim::IoRequest torn;
  torn.type = sim::IoType::kWrite;
  torn.offset = torn_at;
  torn.data.assign(200, 0x5a);
  torn.length = torn.data.size();
  bool wrote = false;
  ASSERT_TRUE(device_.Submit(std::move(torn), [&](sim::IoResult r) {
    EXPECT_TRUE(r.status.ok());
    wrote = true;
  }).ok());
  testutil::RunUntilFlag(sim_, wrote);

  ds.reset();
  auto recovered = FreshStore(true, &cp);
  RecoveryStats stats = Recover(*recovered, cp);
  // The acked post-checkpoint PUT is adopted; the torn append fails the
  // per-bucket CRC and rolls back cleanly instead of resurrecting garbage.
  EXPECT_GT(stats.extended_buckets, 0u);
  EXPECT_GT(stats.crc_rejected + stats.torn_buckets_ignored, 0u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, "durable", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(2, 64));
  ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, "stable", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(1, 64));
}

TEST_F(RecoveryTest, RecoversSwappedSegmentsWrittenAfterCheckpoint) {
  auto ds = FreshStore();
  auto donor_key = std::make_unique<log::CircularLog>(donor_, 0, 4 << 20);
  auto donor_value = std::make_unique<log::CircularLog>(donor_, 4 << 20, 4 << 20);
  ds->AddLogSet(LogSet{1, donor_key.get(), donor_value.get()});
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "home-key", testutil::TestValue(1, 64)).ok());
  RecoveryCheckpoint cp = Checkpoint(*ds);
  ASSERT_EQ(cp.logs.size(), 2u);
  // The swap target moves *after* the checkpoint: the donor's checkpointed
  // window is empty and the swapped bucket lives wholly beyond its tail.
  ds->SetSwapTarget(1);
  ASSERT_TRUE(
      testutil::SyncPut(sim_, *ds, "swapped-key", testutil::TestValue(2, 64)).ok());

  ds.reset();
  auto recovered = FreshStore(true, &cp);
  auto donor_key2 = std::make_unique<log::CircularLog>(donor_, 0, 4 << 20);
  auto donor_value2 = std::make_unique<log::CircularLog>(donor_, 4 << 20, 4 << 20);
  ASSERT_TRUE(donor_key2->Restore(cp.logs[1].key_head, cp.logs[1].key_tail).ok());
  ASSERT_TRUE(
      donor_value2->Restore(cp.logs[1].value_head, cp.logs[1].value_tail).ok());
  recovered->AddLogSet(LogSet{1, donor_key2.get(), donor_value2.get()});
  RecoveryStats stats = Recover(*recovered, cp);
  EXPECT_GT(stats.extended_buckets, 0u);

  std::vector<uint8_t> out;
  ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, "home-key", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(1, 64));
  ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, "swapped-key", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(2, 64));
}

TEST_F(RecoveryTest, EmptyStoreRecoversToEmpty) {
  auto ds = FreshStore();
  RecoveryCheckpoint cp = Checkpoint(*ds);
  ds.reset();
  auto recovered = FreshStore(true, &cp);
  RecoveryStats stats = Recover(*recovered, cp);
  EXPECT_EQ(stats.buckets_scanned, 0u);
  EXPECT_EQ(stats.segments_recovered, 0u);
  EXPECT_TRUE(testutil::SyncGet(sim_, *recovered, "anything").IsNotFound());
}

TEST_F(RecoveryTest, RestoreValidatesPointers) {
  log::CircularLog log(device_, 0, 1000);
  EXPECT_FALSE(log.Restore(100, 50).ok());    // head > tail
  EXPECT_FALSE(log.Restore(0, 2000).ok());    // bigger than region
  EXPECT_TRUE(log.Restore(100, 600).ok());
  EXPECT_FALSE(log.Restore(0, 0).ok());       // not fresh anymore
}

TEST_F(RecoveryTest, RecoversSwappedSegmentsFromDonor) {
  auto ds = FreshStore();
  auto donor_key = std::make_unique<log::CircularLog>(donor_, 0, 4 << 20);
  auto donor_value = std::make_unique<log::CircularLog>(donor_, 4 << 20, 4 << 20);
  ds->AddLogSet(LogSet{1, donor_key.get(), donor_value.get()});
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "home-key", testutil::TestValue(1, 64)).ok());
  ds->SetSwapTarget(1);
  ASSERT_TRUE(
      testutil::SyncPut(sim_, *ds, "swapped-key", testutil::TestValue(2, 64)).ok());
  RecoveryCheckpoint cp = Checkpoint(*ds);
  ASSERT_EQ(cp.logs.size(), 2u);

  ds.reset();
  auto recovered = FreshStore(true, &cp);
  auto donor_key2 = std::make_unique<log::CircularLog>(donor_, 0, 4 << 20);
  auto donor_value2 = std::make_unique<log::CircularLog>(donor_, 4 << 20, 4 << 20);
  ASSERT_TRUE(donor_key2->Restore(cp.logs[1].key_head, cp.logs[1].key_tail).ok());
  ASSERT_TRUE(
      donor_value2->Restore(cp.logs[1].value_head, cp.logs[1].value_tail).ok());
  recovered->AddLogSet(LogSet{1, donor_key2.get(), donor_value2.get()});
  Recover(*recovered, cp);

  std::vector<uint8_t> out;
  ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, "home-key", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(1, 64));
  ASSERT_TRUE(testutil::SyncGet(sim_, *recovered, "swapped-key", &out).ok());
  EXPECT_EQ(out, testutil::TestValue(2, 64));
}

}  // namespace
}  // namespace leed::store
