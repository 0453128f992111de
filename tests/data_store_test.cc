// Functional tests of the LEED data store: command correctness, chain
// growth, NVMe access counts (the paper's 2/3/2), compaction (key log and
// value log), data swapping, the COPY primitive, SCAN's fetch runs, and a
// seeded churn that pins every compaction path exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rand.h"
#include "log/circular_log.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "sim/ssd_model.h"
#include "store/compaction.h"
#include "store/data_store.h"
#include "test_util.h"

namespace leed::store {
namespace {

using testutil::SyncDel;
using testutil::SyncGet;
using testutil::SyncPut;
using testutil::TestValue;

class DataStoreTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 64ull << 20;
  static constexpr uint32_t kBucketSize = 512;

  DataStoreTest()
      : device_(sim_, kDeviceBytes, 512),
        donor_device_(sim_, kDeviceBytes, 512),
        core_(sim_, 3.0) {}

  StoreConfig SmallConfig() {
    StoreConfig cfg;
    cfg.store_id = 0;
    cfg.home_ssd = 0;
    cfg.num_segments = 64;
    cfg.bucket_size = kBucketSize;
    cfg.chain_bits = 4;
    cfg.compaction_threshold = 0.60;
    cfg.compaction_chunk = 16 * 1024;
    cfg.subcompactions = 4;
    return cfg;
  }

  // Build a store over device_ with generous log sizes.
  std::unique_ptr<DataStore> MakeStore(StoreConfig cfg) {
    key_log_ = std::make_unique<log::CircularLog>(device_, 0, 8 << 20);
    value_log_ =
        std::make_unique<log::CircularLog>(device_, value_log_base_, 8 << 20);
    LogSet home{0, key_log_.get(), value_log_.get()};
    return std::make_unique<DataStore>(sim_, core_, home, cfg);
  }

  struct PutLoop {
    int completed = 0;
    int out_of_space = 0;
    std::map<std::string, int> last_acked;  // key -> value seed
  };

  // A closed loop of `puts` 400-byte overwrites over `keys` keys,
  // `in_flight` at a time. Bounded by a deadline and an event budget, not
  // Run(): a wedged store keeps compacting forever, and compaction runs
  // that restart at once spin at one instant. Any status but OK or
  // OutOfSpace fails the test.
  PutLoop RunPutLoop(DataStore& ds, int in_flight, int keys, int puts) {
    PutLoop loop;
    Rng rng(7);
    int issued = 0;
    std::function<void()> issue = [&] {
      if (issued == puts) return;
      const int seed = issued++;
      std::string key = "key" + std::to_string(rng.NextBounded(keys));
      ds.Put(key, TestValue(seed, 400), [&, key, seed](Status st) {
        if (st.code() == StatusCode::kOutOfSpace) ++loop.out_of_space;
        ASSERT_TRUE(st.ok() || st.code() == StatusCode::kOutOfSpace)
            << st.ToString();
        if (st.ok()) loop.last_acked[key] = seed;
        ++loop.completed;
        issue();
      });
    };
    for (int i = 0; i < in_flight; ++i) issue();
    // A healthy store drains within 100 000 events and well before the
    // deadline.
    for (int n = 0; n < 1'000'000 && sim_.Now() <= kSecond && sim_.Step(); ++n) {
    }
    return loop;
  }

  static constexpr uint64_t value_log_base_ = 8 << 20;  // on device_
  sim::Simulator sim_;
  sim::MemBlockDevice device_;
  sim::MemBlockDevice donor_device_;
  sim::CpuCore core_;
  std::unique_ptr<log::CircularLog> key_log_;
  std::unique_ptr<log::CircularLog> value_log_;
};

TEST_F(DataStoreTest, GetMissingIsNotFound) {
  auto ds = MakeStore(SmallConfig());
  EXPECT_TRUE(SyncGet(sim_, *ds, "nope").IsNotFound());
  EXPECT_EQ(ds->stats().get_not_found, 1u);
}

TEST_F(DataStoreTest, PutThenGetRoundTrips) {
  auto ds = MakeStore(SmallConfig());
  auto value = TestValue(1, 256);
  ASSERT_TRUE(SyncPut(sim_, *ds, "user1", value).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *ds, "user1", &out).ok());
  EXPECT_EQ(out, value);
}

TEST_F(DataStoreTest, OverwriteReturnsNewest) {
  auto ds = MakeStore(SmallConfig());
  ASSERT_TRUE(SyncPut(sim_, *ds, "k", TestValue(1, 100)).ok());
  ASSERT_TRUE(SyncPut(sim_, *ds, "k", TestValue(2, 200)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *ds, "k", &out).ok());
  EXPECT_EQ(out, TestValue(2, 200));
}

TEST_F(DataStoreTest, DeleteHidesKey) {
  auto ds = MakeStore(SmallConfig());
  ASSERT_TRUE(SyncPut(sim_, *ds, "k", TestValue(1, 64)).ok());
  ASSERT_TRUE(SyncDel(sim_, *ds, "k").ok());
  EXPECT_TRUE(SyncGet(sim_, *ds, "k").IsNotFound());
}

TEST_F(DataStoreTest, DeleteOfMissingKeyIsOkAndCheap) {
  auto ds = MakeStore(SmallConfig());
  uint64_t writes_before = ds->stats().ssd_writes;
  EXPECT_TRUE(SyncDel(sim_, *ds, "ghost").ok());
  EXPECT_EQ(ds->stats().ssd_writes, writes_before);  // no IO for empty segment
}

// A PUT appends its key-log bucket as the bytes it uses, padded to the
// bucket size by the log: the device stores no page for it (nor for the
// value, a shared tail), and the bucket reads back as all 512 bytes of the
// reference encoding, its CRC over the zero padding included.
TEST_F(DataStoreTest, PutBucketIsKeptWithoutItsPadding) {
  auto ds = MakeStore(SmallConfig());
  ASSERT_TRUE(SyncPut(sim_, *ds, "first", TestValue(1, 300)).ok());
  const uint64_t pages = device_.store().resident_pages();
  const uint64_t extents = device_.store().extents();
  // A head rewritten in place, then a new chain's first bucket.
  for (const std::string key : {"first", "second"}) {
    ASSERT_TRUE(SyncPut(sim_, *ds, key, TestValue(2, 300)).ok());
    EXPECT_EQ(device_.store().resident_pages(), pages) << key;
  }
  EXPECT_GE(device_.store().extents(), extents + 4);
  for (const std::string key : {"first", "second"}) {
    const SegmentEntry& e = ds->segments().At(ds->SegmentOf(key));
    std::vector<uint8_t> bucket;
    bool done = false;
    key_log_->Read(e.offset, kBucketSize, [&](log::ReadResult r) {
      ASSERT_TRUE(r.status.ok());
      bucket = std::move(r.data);
      done = true;
    });
    ASSERT_TRUE(testutil::RunUntilFlag(sim_, done));
    ASSERT_EQ(bucket.size(), kBucketSize);
    ASSERT_TRUE(VerifyBucketCrc(bucket, 0, kBucketSize)) << key;
    auto decoded = DecodeBucket(bucket, 0, kBucketSize);
    ASSERT_TRUE(decoded.ok()) << key;
    EXPECT_TRUE(decoded.value().Find(key).has_value()) << key;
    auto encoded = EncodeBucket(decoded.value(), kBucketSize);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(encoded.value(), bucket) << key;
  }
}

TEST_F(DataStoreTest, NvmeAccessCountsMatchPaper) {
  // Paper §3.3: GET/PUT/DEL trigger 2/3/2 NVMe accesses in the common case.
  auto ds = MakeStore(SmallConfig());
  // Prime the segment so PUT takes the read-modify path.
  ASSERT_TRUE(SyncPut(sim_, *ds, "key-a", TestValue(1, 64)).ok());

  auto reads0 = ds->stats().ssd_reads;
  auto writes0 = ds->stats().ssd_writes;
  ASSERT_TRUE(SyncPut(sim_, *ds, "key-a", TestValue(2, 64)).ok());
  EXPECT_EQ(ds->stats().ssd_reads - reads0, 1u);   // head bucket read
  EXPECT_EQ(ds->stats().ssd_writes - writes0, 2u); // bucket + value appends

  reads0 = ds->stats().ssd_reads;
  writes0 = ds->stats().ssd_writes;
  ASSERT_TRUE(SyncGet(sim_, *ds, "key-a").ok());
  EXPECT_EQ(ds->stats().ssd_reads - reads0, 2u);   // bucket + value reads
  EXPECT_EQ(ds->stats().ssd_writes - writes0, 0u);

  reads0 = ds->stats().ssd_reads;
  writes0 = ds->stats().ssd_writes;
  ASSERT_TRUE(SyncDel(sim_, *ds, "key-a").ok());
  EXPECT_EQ(ds->stats().ssd_reads - reads0, 1u);   // bucket read
  EXPECT_EQ(ds->stats().ssd_writes - writes0, 1u); // bucket append only
}

TEST_F(DataStoreTest, ManyKeysAllReadable) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 128;
  auto ds = MakeStore(cfg);
  std::map<std::string, std::vector<uint8_t>> truth;
  for (int i = 0; i < 500; ++i) {
    std::string key = "user" + std::to_string(i);
    auto value = TestValue(i, 64 + i % 100);
    ASSERT_TRUE(SyncPut(sim_, *ds, key, value).ok()) << key;
    truth[key] = value;
  }
  for (auto& [key, value] : truth) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, key, &out).ok()) << key;
    EXPECT_EQ(out, value) << key;
  }
}

TEST_F(DataStoreTest, ChainsGrowAndStayReadable) {
  // One segment forces every key into the same chain.
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 1;
  cfg.bucket_size = 512;  // ~ (512-32)/(13+7) = 24 items per bucket
  auto ds = MakeStore(cfg);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 32)).ok());
  }
  EXPECT_GT(ds->segments().At(0).chain_len, 1);
  // Keys in older buckets require chain walks.
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *ds, "key0", &out).ok());
  EXPECT_EQ(out, TestValue(0, 32));
  EXPECT_GT(ds->stats().get_chain_extra_reads, 0u);
}

TEST_F(DataStoreTest, ChainOverflowReportsOutOfSpace) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 1;
  cfg.chain_bits = 2;  // max chain 3
  cfg.compaction_threshold = 1.1;  // never compact
  auto ds = MakeStore(cfg);
  Status last = Status::Ok();
  int i = 0;
  while (last.ok() && i < 500) {
    last = SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 16));
    ++i;
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfSpace);
  EXPECT_GT(ds->stats().puts_failed_full, 0u);
}

TEST_F(DataStoreTest, KeyCompactionCollapsesChains) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 1;
  cfg.compaction_threshold = 1.1;  // manual control
  auto ds = MakeStore(cfg);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 32)).ok());
  }
  uint8_t chain_before = ds->segments().At(0).chain_len;
  ASSERT_GT(chain_before, 1);

  bool done = false;
  ds->ForceKeyCompaction([&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  ASSERT_TRUE(done);
  EXPECT_GT(ds->stats().segments_collapsed, 0u);

  // All keys still readable, and reading the oldest key no longer needs a
  // per-bucket chain walk (the array remainder is one IO).
  for (int i = 0; i < 60; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok()) << i;
    EXPECT_EQ(out, TestValue(i, 32));
  }
}

TEST_F(DataStoreTest, CompactionReclaimsKeyLogSpace) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 8;
  cfg.compaction_threshold = 1.1;
  cfg.compaction_chunk = 64 * 1024;
  auto ds = MakeStore(cfg);
  // Overwrite the same keys repeatedly: most bucket copies become garbage.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(
          SyncPut(sim_, *ds, "k" + std::to_string(i), TestValue(round, 32)).ok());
    }
  }
  uint64_t used_before = ds->home().key_log->used();
  for (int pass = 0; pass < 4; ++pass) {
    bool done = false;
    ds->ForceKeyCompaction([&](Status) { done = true; });
    testutil::RunUntilFlag(sim_, done);
  }
  EXPECT_LT(ds->home().key_log->used(), used_before);
  // Stale bucket copies (not items) are what overwrites produce here: each
  // key lives in its segment's head bucket, updated in place, so collapse
  // keeps every item but discards all superseded bucket copies.
  EXPECT_GT(ds->stats().segments_collapsed, 0u);
  // Data intact.
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "k" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(19, 32));
  }
}

TEST_F(DataStoreTest, ValueCompactionRelocatesLiveValues) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 8;
  cfg.compaction_threshold = 1.1;
  cfg.compaction_chunk = 32 * 1024;
  auto ds = MakeStore(cfg);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          SyncPut(sim_, *ds, "k" + std::to_string(i), TestValue(round * 100 + i, 200))
              .ok());
    }
  }
  uint64_t vhead_before = ds->home().value_log->head();
  bool done = false;
  ds->ForceValueCompaction([&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  ASSERT_TRUE(done);
  EXPECT_GT(ds->home().value_log->head(), vhead_before);
  EXPECT_EQ(ds->stats().value_compactions, 1u);
  // Every key still returns its newest value after relocation.
  for (int i = 0; i < 12; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "k" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(900 + i, 200));
  }
}

TEST_F(DataStoreTest, AutoCompactionKeepsStoreWritableForever) {
  // Small logs + threshold-triggered compaction: sustained overwrite load
  // must never hit kOutOfSpace.
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 16;
  cfg.compaction_threshold = 0.5;
  cfg.compaction_chunk = 16 * 1024;
  key_log_ = std::make_unique<log::CircularLog>(device_, 0, 256 << 10);
  value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 256 << 10);
  LogSet home{0, key_log_.get(), value_log_.get()};
  auto ds = std::make_unique<DataStore>(sim_, core_, home, cfg);

  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 32; ++i) {
      Status st = SyncPut(sim_, *ds, "key" + std::to_string(i),
                          TestValue(round, 128));
      ASSERT_TRUE(st.ok()) << "round " << round << " key " << i << ": "
                           << st.ToString();
    }
  }
  sim_.Run();  // let trailing compactions finish
  EXPECT_GT(ds->stats().key_compactions + ds->stats().value_compactions, 0u);
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(59, 128));
  }
}

TEST_F(DataStoreTest, PutsOutrunningCompactionWaitInsteadOfFailing) {
  // Small logs and a deep closed loop of overwrites: writes arrive faster
  // than compaction frees space. A PUT that would eat compaction's working
  // room must wait for a compaction run, not fail with kOutOfSpace.
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 16;
  cfg.compaction_threshold = 0.5;
  cfg.compaction_chunk = 16 * 1024;
  key_log_ = std::make_unique<log::CircularLog>(device_, 0, 256 << 10);
  value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 256 << 10);
  LogSet home{0, key_log_.get(), value_log_.get()};
  auto ds = std::make_unique<DataStore>(sim_, core_, home, cfg);

  constexpr int kKeys = 48;
  constexpr int kPuts = 6000;
  PutLoop loop = RunPutLoop(*ds, 64, kKeys, kPuts);

  ASSERT_EQ(loop.completed, kPuts);
  EXPECT_EQ(loop.out_of_space, 0);
  EXPECT_GT(ds->stats().value_compactions, 0u);
  ASSERT_EQ(loop.last_acked.size(), static_cast<size_t>(kKeys));
  for (const auto& [key, seed] : loop.last_acked) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, key, &out).ok()) << key;
    EXPECT_EQ(out, TestValue(seed, 400)) << key;
  }
}

// Forwards to another device but fails every read at or past `fail_from`
// with an IoError, after the device's own latency: a bad media region.
class FailReadsFrom : public sim::BlockDevice {
 public:
  FailReadsFrom(sim::BlockDevice& inner, uint64_t fail_from)
      : inner_(inner), fail_from_(fail_from) {}

  Status Submit(sim::IoRequest request, sim::IoCallback callback) override {
    if (request.type == sim::IoType::kRead && request.offset >= fail_from_) {
      callback = [cb = std::move(callback)](sim::IoResult r) {
        r.status = Status::IoError("bad region");
        r.data.clear();
        cb(std::move(r));
      };
    }
    return inner_.Submit(std::move(request), std::move(callback));
  }
  uint64_t capacity_bytes() const override { return inner_.capacity_bytes(); }
  uint32_t block_size() const override { return inner_.block_size(); }
  uint32_t inflight() const override { return inner_.inflight(); }
  void Discard(uint64_t offset, uint64_t length) override {
    inner_.Discard(offset, length);
  }

 private:
  sim::BlockDevice& inner_;
  uint64_t fail_from_;
};

TEST_F(DataStoreTest, ParkedPutsFinishWhenCompactionCannotRead) {
  // Every value-log read fails, so no value compaction run gets past its
  // read and the value log never frees space. PUTs parked waiting for such
  // a run must still finish (OutOfSpace once their append cannot fit), and
  // the failing runs must not restart themselves forever.
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 16;
  cfg.compaction_threshold = 0.5;
  cfg.compaction_chunk = 16 * 1024;
  FailReadsFrom failing(device_, 8 << 20);
  key_log_ = std::make_unique<log::CircularLog>(failing, 0, 256 << 10);
  value_log_ = std::make_unique<log::CircularLog>(failing, 8 << 20, 256 << 10);
  LogSet home{0, key_log_.get(), value_log_.get()};
  auto ds = std::make_unique<DataStore>(sim_, core_, home, cfg);

  constexpr int kPuts = 3000;
  PutLoop loop = RunPutLoop(*ds, 64, 48, kPuts);

  EXPECT_EQ(loop.completed, kPuts);
  EXPECT_GT(loop.out_of_space, 0);
  EXPECT_GT(ds->stats().value_compactions, 0u);
  EXPECT_FALSE(ds->compaction_running());
  EXPECT_EQ(sim_.events_pending(), 0u);
}

TEST_F(DataStoreTest, SharedGateHandsAFreedSlotToTheStoreItRefused) {
  // Two stores on small logs share a one-slot gate and both churn above
  // their compaction threshold. A store ending a run must not re-take the
  // slot ahead of the store the gate refused meanwhile.
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 16;
  cfg.compaction_threshold = 0.5;
  cfg.compaction_gate = std::make_shared<CompactionGate>();
  cfg.compaction_gate->max = 1;
  StoreConfig cfg_b = cfg;
  cfg_b.store_id = 1;
  log::CircularLog a_key(device_, 0, 1 << 20), a_value(device_, 1 << 20, 1 << 20);
  log::CircularLog b_key(donor_device_, 0, 1 << 20), b_value(donor_device_, 1 << 20, 1 << 20);
  sim::CpuCore core_b(sim_, 3.0);
  DataStore a(sim_, core_, LogSet{0, &a_key, &a_value}, cfg);
  DataStore b(sim_, core_b, LogSet{0, &b_key, &b_value}, cfg_b);

  // Closed loops of 16 PUTs of 400 bytes over 48 keys on each store.
  constexpr int kPuts = 4000;
  Rng rng(7);
  struct Loop {
    DataStore* ds;
    int issued = 0;
    int completed = 0;
  };
  Loop loops[2] = {{&a}, {&b}};
  std::function<void(Loop&)> issue = [&](Loop& l) {
    if (l.issued == kPuts) return;
    const int seed = l.issued++;
    l.ds->Put("key" + std::to_string(rng.NextBounded(48)), TestValue(seed, 400),
              [&, &l = l](Status) {
                ++l.completed;
                issue(l);
              });
  };
  for (int i = 0; i < 16; ++i) {
    issue(loops[0]);
    issue(loops[1]);
  }
  for (int n = 0; n < 2'000'000 && sim_.Now() <= kSecond && sim_.Step(); ++n) {
  }
  EXPECT_EQ(loops[0].completed, kPuts);
  EXPECT_EQ(loops[1].completed, kPuts);
  EXPECT_GT(a.stats().key_compactions, 0u);
  EXPECT_GT(b.stats().key_compactions, 0u);
  EXPECT_EQ(cfg.compaction_gate->active, 0u);
}

TEST_F(DataStoreTest, ConcurrentOpsOnSameSegmentSerialize) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 1;
  auto ds = MakeStore(cfg);
  int completed = 0;
  // Issue 20 concurrent PUTs to the same segment; the lock bit serializes
  // them and every one must succeed.
  for (int i = 0; i < 20; ++i) {
    ds->Put("key" + std::to_string(i), TestValue(i, 32), [&](Status st) {
      EXPECT_TRUE(st.ok());
      ++completed;
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, 20);
  EXPECT_GT(ds->stats().lock_waits, 0u);
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(i, 32));
  }
}

TEST_F(DataStoreTest, GetsConcurrentWithCompactionRetryAndSucceed) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 4;
  cfg.compaction_threshold = 1.1;
  auto ds = MakeStore(cfg);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 64)).ok());
  }
  // Fire a compaction and a burst of GETs into the same event window.
  bool compaction_done = false;
  ds->ForceKeyCompaction([&](Status) { compaction_done = true; });
  int got = 0;
  for (int i = 0; i < 64; ++i) {
    ds->Get("key" + std::to_string(i), [&, i](Status st, std::vector<uint8_t> v) {
      EXPECT_TRUE(st.ok()) << "key" << i << ": " << st.ToString();
      if (st.ok()) {
        EXPECT_EQ(v, TestValue(i, 64));
      }
      ++got;
    });
  }
  sim_.Run();
  EXPECT_TRUE(compaction_done);
  EXPECT_EQ(got, 64);
}

// ---------------------------------------------------------------------------
// Data swapping (§3.6)
// ---------------------------------------------------------------------------

class SwapTest : public DataStoreTest {
 protected:
  std::unique_ptr<DataStore> MakeSwappingStore() {
    StoreConfig cfg = SmallConfig();
    cfg.num_segments = 16;
    cfg.compaction_threshold = 1.1;  // manual merge-back
    auto ds = MakeStore(cfg);
    donor_key_ = std::make_unique<log::CircularLog>(donor_device_, 0, 4 << 20);
    donor_value_ = std::make_unique<log::CircularLog>(donor_device_, 4 << 20, 4 << 20);
    ds->AddLogSet(LogSet{1, donor_key_.get(), donor_value_.get()});
    return ds;
  }
  std::unique_ptr<log::CircularLog> donor_key_;
  std::unique_ptr<log::CircularLog> donor_value_;
};

TEST_F(SwapTest, SwappedPutsLandOnDonorAndStayReadable) {
  auto ds = MakeSwappingStore();
  ASSERT_TRUE(SyncPut(sim_, *ds, "home-key", TestValue(1, 64)).ok());

  ds->SetSwapTarget(1);
  ASSERT_TRUE(SyncPut(sim_, *ds, "swapped-key", TestValue(2, 64)).ok());
  EXPECT_GT(ds->stats().swap_puts, 0u);
  EXPECT_GT(ds->swapped_segments(), 0u);
  EXPECT_GT(donor_key_->used(), 0u);
  EXPECT_GT(donor_value_->used(), 0u);

  // Reads follow the SSD id transparently.
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *ds, "swapped-key", &out).ok());
  EXPECT_EQ(out, TestValue(2, 64));
  ASSERT_TRUE(SyncGet(sim_, *ds, "home-key", &out).ok());
  EXPECT_EQ(out, TestValue(1, 64));
}

TEST_F(SwapTest, MergeBackRelocatesEverythingHome) {
  auto ds = MakeSwappingStore();
  ds->SetSwapTarget(1);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 64)).ok());
  }
  ASSERT_GT(ds->swapped_segments(), 0u);
  ds->SetSwapTarget(std::nullopt);

  // Merge-back may take several key-compaction runs (kSwapMergePerRun cap).
  for (int pass = 0; pass < 6 && ds->swapped_segments() > 0; ++pass) {
    bool done = false;
    ds->ForceKeyCompaction([&](Status) { done = true; });
    testutil::RunUntilFlag(sim_, done);
  }
  EXPECT_EQ(ds->swapped_segments(), 0u);

  // Everything is home now: donor logs can be discarded and the data must
  // still read back correctly from the home SSD.
  donor_key_->Reset();
  donor_value_->Reset();
  for (int i = 0; i < 24; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok()) << i;
    EXPECT_EQ(out, TestValue(i, 64));
  }
}

// A merge-back that copies values home but cannot commit the segment (no
// home key-log room) leaves the chain on the donor's copies; the ordered
// index must name them too, as a rebuild from the chains does.
TEST_F(SwapTest, FailedMergeBackPointsTheIndexBackAtTheDonor) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 16;
  cfg.compaction_threshold = 1.1;  // manual merge-back
  key_log_ = std::make_unique<log::CircularLog>(device_, 0, kBucketSize);
  value_log_ = std::make_unique<log::CircularLog>(device_, value_log_base_, 8 << 20);
  auto ds = std::make_unique<DataStore>(
      sim_, core_, LogSet{0, key_log_.get(), value_log_.get()}, cfg);
  donor_key_ = std::make_unique<log::CircularLog>(donor_device_, 0, 4 << 20);
  donor_value_ = std::make_unique<log::CircularLog>(donor_device_, 4 << 20, 4 << 20);
  ds->AddLogSet(LogSet{1, donor_key_.get(), donor_value_.get()});

  // The home PUT's bucket fills the one-bucket home key log.
  ASSERT_TRUE(SyncPut(sim_, *ds, "home-key", TestValue(0, 64)).ok());
  ASSERT_EQ(key_log_->free_space(), 0u);
  ds->SetSwapTarget(1);
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 64)).ok());
  }
  ds->SetSwapTarget(std::nullopt);
  const size_t swapped = ds->swapped_segments();
  ASSERT_GT(swapped, 0u);

  const uint64_t home_values = value_log_->used();
  bool done = false;
  ds->ForceKeyCompaction([&](Status) { done = true; });
  testutil::RunUntilFlag(sim_, done);
  ASSERT_TRUE(done);
  EXPECT_GT(value_log_->used(), home_values);  // values were copied home
  EXPECT_EQ(ds->swapped_segments(), swapped);  // but no segment committed

  RangeIndex rebuilt;
  done = false;
  ds->RebuildRangeIndex(&rebuilt, [&](Status st, uint64_t) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  EXPECT_EQ(ds->range_index().DebugDump(), rebuilt.DebugDump());
  for (int i = 1; i <= 8; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok()) << i;
    EXPECT_EQ(out, TestValue(i, 64));
  }
}

TEST_F(SwapTest, SwapToUnknownDonorIsIgnored) {
  auto ds = MakeSwappingStore();
  ds->SetSwapTarget(7);  // never registered
  EXPECT_FALSE(ds->swap_target().has_value());
}

// ---------------------------------------------------------------------------
// COPY (§3.8)
// ---------------------------------------------------------------------------

// Scan fetch runs. The store's PUTs append value entries back to back, so
// keys PUT in key order lie back to back in the value log.
class ScanFetchTest : public DataStoreTest {
 protected:
  static std::string Key(int i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%02d", i);
    return buf;
  }

  void PutKeys(DataStore& ds, const std::vector<int>& order) {
    for (int i : order) ASSERT_TRUE(SyncPut(sim_, ds, Key(i), TestValue(i, 100)).ok());
  }

  // Fetches `snapshot`; returns the status, the items and the device
  // reads the fetch made.
  struct Fetched {
    Status status;
    std::vector<ScanItem> items;
    uint64_t reads = 0;
  };
  Fetched Fetch(DataStore& ds, std::vector<ScanLoc> snapshot) {
    Fetched out;
    const uint64_t reads0 = ds.stats().ssd_reads;
    bool done = false;
    ds.ScanFetch(std::move(snapshot), [&](Status st, std::vector<ScanItem> items) {
      out.status = std::move(st);
      out.items = std::move(items);
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    EXPECT_TRUE(done);
    out.reads = ds.stats().ssd_reads - reads0;
    return out;
  }

  void ExpectItems(const std::vector<ScanItem>& items, int first, int count) {
    ASSERT_EQ(items.size(), static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(items[i].key, Key(first + i));
      EXPECT_EQ(items[i].value, TestValue(first + i, 100));
    }
  }
};

TEST_F(ScanFetchTest, BackToBackEntriesAreOneRead) {
  auto ds = MakeStore(SmallConfig());
  PutKeys(*ds, {0, 1, 2, 3, 4, 5});
  const auto snapshot = ds->ScanKeys(Key(0), 6);
  for (size_t i = 1; i < snapshot.size(); ++i) {
    ASSERT_EQ(snapshot[i].value_offset,
              snapshot[i - 1].value_offset +
                  ValueEntryBytes(static_cast<uint32_t>(snapshot[i - 1].key.size()),
                                  snapshot[i - 1].value_len));
  }
  Fetched f = Fetch(*ds, snapshot);
  ASSERT_TRUE(f.status.ok()) << f.status.ToString();
  EXPECT_EQ(f.reads, 1u);
  ExpectItems(f.items, 0, 6);
  EXPECT_EQ(ds->stats().scan_items, 6u);
}

TEST_F(ScanFetchTest, RunNeverExceedsTheStepBudget) {
  auto ds = MakeStore(SmallConfig());
  // k00 is PUT last: it leads the scan but lies after k20, so it is read
  // alone. k01..k20 are back to back: the first run takes what is left of
  // the step (7), the next steps 8 and 5.
  std::vector<int> order;
  for (int i = 1; i <= 20; ++i) order.push_back(i);
  order.push_back(0);
  PutKeys(*ds, order);
  static_assert(DataStore::kScanStepItems == 8);
  Fetched f = Fetch(*ds, ds->ScanKeys(Key(0), 21));
  ASSERT_TRUE(f.status.ok()) << f.status.ToString();
  EXPECT_EQ(f.reads, 4u);
  ExpectItems(f.items, 0, 21);
}

TEST_F(ScanFetchTest, NonAdjacentEntriesAreReadSeparately) {
  auto ds = MakeStore(SmallConfig());
  // PUT in reverse key order: each entry lies before the previous key's.
  PutKeys(*ds, {5, 4, 3, 2, 1, 0});
  Fetched f = Fetch(*ds, ds->ScanKeys(Key(0), 6));
  ASSERT_TRUE(f.status.ok()) << f.status.ToString();
  EXPECT_EQ(f.reads, 6u);
  ExpectItems(f.items, 0, 6);
}

TEST_F(ScanFetchTest, LocationRecycledInsideARunIsBusyAndRescans) {
  auto ds = MakeStore(SmallConfig());
  PutKeys(*ds, {0, 1, 2, 3, 4, 5});
  const auto snapshot = ds->ScanKeys(Key(0), 6);
  // Recycle k03's location, as a wrapped log would: another key's entry of
  // the same size now lies there.
  const ScanLoc& victim = snapshot[3];
  sim::IoRequest w;
  w.type = sim::IoType::kWrite;
  w.offset = value_log_base_ + victim.value_offset;
  w.data = EncodeValueEntry(0, "zzz", TestValue(99, victim.value_len));
  ASSERT_TRUE(device_.Submit(std::move(w), [](sim::IoResult r) {
                       ASSERT_TRUE(r.status.ok());
                     }).ok());
  sim_.Run();

  Fetched f = Fetch(*ds, snapshot);
  EXPECT_TRUE(f.status.IsBusy()) << f.status.ToString();
  EXPECT_EQ(f.reads, 1u);  // the run was one read; its fourth entry failed
  EXPECT_EQ(ds->stats().scan_stale_locs, 1u);

  // Once the key is rewritten the index names a live location again.
  ASSERT_TRUE(SyncPut(sim_, *ds, Key(3), TestValue(3, 100)).ok());
  Fetched again = Fetch(*ds, ds->ScanKeys(Key(0), 6));
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_EQ(again.reads, 3u);  // k00..k02, k03 (moved), k04..k05
  ExpectItems(again.items, 0, 6);
}

TEST_F(DataStoreTest, CopyOutStreamsLiveFilteredItems) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 16;
  auto ds = MakeStore(cfg);
  std::set<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(SyncPut(sim_, *ds, key, TestValue(i, 48)).ok());
    if (i % 2 == 0) expected.insert(key);
  }
  // Delete a couple of even keys: they must not be copied.
  ASSERT_TRUE(SyncDel(sim_, *ds, "key0").ok());
  expected.erase("key0");

  std::set<std::string> copied;
  bool done = false;
  ds->CopyOut(
      [](std::string_view key) {
        // Filter: even-numbered keys only.
        int n = std::stoi(std::string(key.substr(3)));
        return n % 2 == 0;
      },
      [&](std::string key, std::vector<uint8_t> value) {
        EXPECT_FALSE(value.empty());
        copied.insert(key);
      },
      [&](Status st) {
        EXPECT_TRUE(st.ok());
        done = true;
      });
  testutil::RunUntilFlag(sim_, done);
  ASSERT_TRUE(done);
  EXPECT_EQ(copied, expected);
}

TEST_F(DataStoreTest, CopyOutEmptyStore) {
  auto ds = MakeStore(SmallConfig());
  bool done = false;
  int items = 0;
  ds->CopyOut([](std::string_view) { return true; },
              [&](std::string, std::vector<uint8_t>) { ++items; },
              [&](Status st) {
                EXPECT_TRUE(st.ok());
                done = true;
              });
  testutil::RunUntilFlag(sim_, done);
  EXPECT_TRUE(done);
  EXPECT_EQ(items, 0);
}

// ---------------------------------------------------------------------------
// Compaction pin: a seeded PUT/DEL churn through every compaction path,
// pinned exactly. Two stores on small logs share a one-slot compaction gate
// (a freed slot goes to a store it refused first) and a jittery SSD; store A swaps to a donor log set mid-run and merges
// back. A refactor of the compactor or of the segment walkers must leave
// every number below unchanged.
// ---------------------------------------------------------------------------

std::string StatsLine(const StoreStats& s) {
  std::string out;
  auto add = [&out](const char* name, uint64_t v) {
    out += std::string(out.empty() ? "" : " ") + name + "=" + std::to_string(v);
  };
  add("gets", s.gets);
  add("puts", s.puts);
  add("dels", s.dels);
  add("get_not_found", s.get_not_found);
  add("ssd_reads", s.ssd_reads);
  add("ssd_writes", s.ssd_writes);
  add("get_chain_extra_reads", s.get_chain_extra_reads);
  add("get_retries", s.get_retries);
  add("key_compactions", s.key_compactions);
  add("value_compactions", s.value_compactions);
  add("segments_collapsed", s.segments_collapsed);
  add("items_live_moved", s.items_live_moved);
  add("items_dropped", s.items_dropped);
  add("swap_puts", s.swap_puts);
  add("prefetch_hits", s.prefetch_hits);
  add("prefetch_misses", s.prefetch_misses);
  add("lock_waits", s.lock_waits);
  add("puts_failed_full", s.puts_failed_full);
  add("fast_gets", s.fast_gets);
  add("fast_get_aborts", s.fast_get_aborts);
  add("scans", s.scans);
  add("scan_items", s.scan_items);
  add("scan_stale_locs", s.scan_stale_locs);
  return out;
}

TEST(CompactionPinTest, SeededChurnThroughEveryRunIsPinned) {
  sim::Simulator sim;
  sim::SimSsd ssd(sim, sim::Dct983Spec(), 11);
  sim::SimSsd donor_ssd(sim, sim::Dct983Spec(), 12);
  sim::CpuCore core_a(sim, 3.0), core_b(sim, 3.0), core_c(sim, 3.0);
  auto gate = std::make_shared<CompactionGate>();
  gate->max = 1;

  StoreConfig cfg;
  cfg.num_segments = 16;
  cfg.bucket_size = 512;
  cfg.chain_bits = 4;
  cfg.compaction_threshold = 0.5;
  cfg.compaction_chunk = 16 * 1024;
  cfg.subcompactions = 4;
  cfg.compaction_gate = gate;
  constexpr uint64_t kLog = 256 << 10;
  constexpr uint64_t kMiB = 1 << 20;
  // A compacts under pressure; B's logs are large enough that only forced
  // value runs touch them; C starts on its donor, so its home key log is
  // empty when it merges back.
  log::CircularLog a_key(ssd, 0, kLog), a_value(ssd, kMiB, kLog);
  log::CircularLog b_key(ssd, 2 * kMiB, 16 * kLog), b_value(ssd, 6 * kMiB, 16 * kLog);
  log::CircularLog c_key(ssd, 12 * kMiB, kLog), c_value(ssd, 13 * kMiB, kLog);
  log::CircularLog a_donor_key(donor_ssd, 0, kMiB), a_donor_value(donor_ssd, kMiB, kMiB);
  log::CircularLog c_donor_key(donor_ssd, 2 * kMiB, kLog);
  log::CircularLog c_donor_value(donor_ssd, 3 * kMiB, kLog);
  StoreConfig cfg_b = cfg, cfg_c = cfg;
  cfg_b.store_id = 1;
  cfg_c.store_id = 2;
  DataStore a(sim, core_a, LogSet{0, &a_key, &a_value}, cfg);
  DataStore b(sim, core_b, LogSet{0, &b_key, &b_value}, cfg_b);
  DataStore c(sim, core_c, LogSet{0, &c_key, &c_value}, cfg_c);
  a.AddLogSet(LogSet{1, &a_donor_key, &a_donor_value});
  c.AddLogSet(LogSet{1, &c_donor_key, &c_donor_value});

  std::map<StatusCode, int> op_status, forced_status;
  auto forced = [&forced_status](Status st) { ++forced_status[st.code()]; };

  // Closed loops of 16 writers on A and on B over 40 keys: 80% PUTs of
  // 64-700 bytes, 20% DELs. A writes to its donor for ops [1500, 2500).
  // Every 97th op of B forces a value run, which the gate often refuses.
  constexpr int kOps = 4000;
  constexpr int kKeys = 40;
  Rng rng(0xc0ffee);
  struct Loop {
    DataStore* ds;
    int issued = 0;
    int completed = 0;
  };
  Loop loops[2] = {{&a}, {&b}};
  std::function<void(Loop&)> issue = [&](Loop& l) {
    if (l.issued == kOps) return;
    const int n = l.issued++;
    if (l.ds == &a && n == 1500) a.SetSwapTarget(1);
    if (l.ds == &a && n == 2500) a.SetSwapTarget(std::nullopt);
    if (l.ds == &b && n % 97 == 0) b.ForceValueCompaction(forced);
    std::string key = "key" + std::to_string(rng.NextBounded(kKeys));
    auto done = [&, &l = l](Status st) {
      ++op_status[st.code()];
      ++l.completed;
      issue(l);
    };
    if (rng.NextBounded(5) == 0) {
      l.ds->Del(std::move(key), done);
    } else {
      const size_t size = 64 + rng.NextBounded(637);
      l.ds->Put(std::move(key), TestValue(n, size), done);
    }
  };
  for (int i = 0; i < 16; ++i) {
    issue(loops[0]);
    issue(loops[1]);
  }
  sim.Run();
  ASSERT_EQ(loops[0].completed, kOps);
  ASSERT_EQ(loops[1].completed, kOps);

  // Merge what A still keeps on its donor back home.
  for (int pass = 0; pass < 4; ++pass) {
    a.ForceKeyCompaction(forced);
    sim.Run();
  }

  // A value run that loses its wakeup requeues the segment: every B
  // segment is held while the run starts, and each one it waits on is
  // handed to a competitor the instant it is released.
  SegmentTable& tbl = b.segments();
  auto pump = [&sim](std::function<void()> cont) { sim.Schedule(0, std::move(cont)); };
  for (uint32_t seg = 0; seg < cfg.num_segments; ++seg) ASSERT_TRUE(tbl.TryLock(seg));
  b.ForceValueCompaction(forced);
  sim.Run();
  size_t contended = 0;
  for (uint32_t seg = 0; seg < cfg.num_segments; ++seg) {
    if (tbl.waiters(seg) == 0) continue;
    ++contended;
    tbl.Unlock(seg, pump);
    ASSERT_TRUE(tbl.TryLock(seg));
  }
  sim.Run();
  for (uint32_t seg = 0; seg < cfg.num_segments; ++seg) {
    if (tbl.waiters(seg) > 0) --contended;
    tbl.Unlock(seg, pump);
  }
  sim.Run();
  EXPECT_EQ(contended, 0u);  // every losing waiter queued up again

  // C: writes that all land on the donor, then a key run over an empty
  // home region that merges them back.
  c.SetSwapTarget(1);
  for (int k = 0; k < kKeys; ++k) {
    ++op_status[SyncPut(sim, c, "key" + std::to_string(k), TestValue(k, 300)).code()];
  }
  c.SetSwapTarget(std::nullopt);
  ASSERT_EQ(c_key.used(), 0u);
  for (int pass = 0; pass < 2; ++pass) {
    c.ForceKeyCompaction(forced);
    sim.Run();
  }

  // Final state per store: every key's GET, the full-range snapshot, a
  // COPY of every item, and a rebuilt range index.
  std::string digest;
  for (DataStore* ds : {&a, &b, &c}) {
    for (int k = 0; k < kKeys; ++k) {
      std::vector<uint8_t> value;
      Status st = SyncGet(sim, *ds, "key" + std::to_string(k), &value);
      digest += std::to_string(static_cast<int>(st.code())) + ":" +
                std::to_string(Fnv1a64(std::string_view(
                    reinterpret_cast<const char*>(value.data()), value.size()))) +
                " ";
    }
    for (const ScanLoc& loc : ds->ScanKeys("", 1000)) {
      digest += loc.key + "@" + std::to_string(loc.value_ssd) + "/" +
                std::to_string(loc.value_offset) + "/" +
                std::to_string(loc.value_len) + " ";
    }
    bool done = false;
    ds->CopyOut([](std::string_view) { return true; },
                [&](std::string key, std::vector<uint8_t> value) {
                  digest += key + "=" + std::to_string(value.size()) + " ";
                },
                [&](Status st) {
                  EXPECT_TRUE(st.ok());
                  done = true;
                });
    testutil::RunUntilFlag(sim, done);
    RangeIndex rebuilt;
    done = false;
    ds->RebuildRangeIndex(&rebuilt, [&](Status st, uint64_t live) {
      EXPECT_TRUE(st.ok());
      digest += "live=" + std::to_string(live) + " | ";
      done = true;
    });
    testutil::RunUntilFlag(sim, done);
    EXPECT_EQ(rebuilt.DebugDump(), ds->range_index().DebugDump());
  }
  std::string statuses;
  for (const auto* tally : {&op_status, &forced_status}) {
    for (const auto& [code, n] : *tally) {
      statuses += std::to_string(static_cast<int>(code)) + "x" + std::to_string(n) + " ";
    }
    statuses += "| ";
  }

  // The churn reaches what the pin is for.
  const StoreStats sa = a.stats(), sb = b.stats(), sc = c.stats();
  EXPECT_GT(sa.key_compactions, 0u);
  EXPECT_GT(sa.value_compactions, 0u);
  EXPECT_GT(sa.prefetch_hits, 0u);
  EXPECT_GT(sa.prefetch_misses, 0u);
  EXPECT_GT(sa.swap_puts, 0u);
  EXPECT_EQ(a.swapped_segments(), 0u);
  EXPECT_GT(sb.value_compactions, 0u);
  EXPECT_GT(forced_status[StatusCode::kBusy], 0);
  EXPECT_GT(sc.swap_puts, 0u);
  EXPECT_EQ(c.swapped_segments(), 0u);
  EXPECT_EQ(sim.events_pending(), 0u);

  EXPECT_EQ(StatsLine(sa),
            "gets=40 puts=3191 dels=809 get_not_found=7 ssd_reads=6871 "
            "ssd_writes=8972 get_chain_extra_reads=0 get_retries=0 "
            "key_compactions=141 value_compactions=52 segments_collapsed=1724 "
            "items_live_moved=3961 items_dropped=345 swap_puts=1000 "
            "prefetch_hits=50 prefetch_misses=143 lock_waits=3018 "
            "puts_failed_full=0 fast_gets=0 fast_get_aborts=0 scans=0 "
            "scan_items=0 scan_stale_locs=0");
  EXPECT_EQ(StatsLine(sb),
            "gets=40 puts=3245 dels=755 get_not_found=6 ssd_reads=4156 "
            "ssd_writes=7245 get_chain_extra_reads=0 get_retries=0 "
            "key_compactions=0 value_compactions=3 segments_collapsed=2 "
            "items_live_moved=4 items_dropped=0 swap_puts=0 prefetch_hits=0 "
            "prefetch_misses=3 lock_waits=2237 puts_failed_full=0 fast_gets=0 "
            "fast_get_aborts=0 scans=0 scan_items=0 scan_stale_locs=0");
  EXPECT_EQ(StatsLine(sc),
            "gets=40 puts=40 dels=0 get_not_found=0 ssd_reads=244 "
            "ssd_writes=148 get_chain_extra_reads=0 get_retries=0 "
            "key_compactions=2 value_compactions=0 segments_collapsed=28 "
            "items_live_moved=80 items_dropped=0 swap_puts=40 prefetch_hits=1 "
            "prefetch_misses=0 lock_waits=0 puts_failed_full=0 fast_gets=0 "
            "fast_get_aborts=0 scans=0 scan_items=0 scan_stale_locs=0");
  EXPECT_EQ(statuses, "0x8040 | 0x10 5x39 | ");
  EXPECT_EQ(Fnv1a64(digest), 15076177098468531984u) << digest;
  EXPECT_EQ(sim.Now(), 133248411u);
  EXPECT_EQ(sim.events_executed(), 61041u);
}

// ---------------------------------------------------------------------------
// RangeIndex against a std::map oracle
// ---------------------------------------------------------------------------

// The oracle's DebugDump: the same escaping as RangeIndex::DebugDump.
std::string OracleDump(const std::map<std::string, RangeIndex::ValueLoc>& m) {
  std::string out;
  for (const auto& [k, l] : m) {
    for (char c : k) {
      if (c <= ' ' || c == '%' || c == 0x7f) {
        char esc[4];
        std::snprintf(esc, sizeof esc, "%%%02x", static_cast<unsigned char>(c));
        out += esc;
      } else {
        out += c;
      }
    }
    out += " " + std::to_string(l.ssd) + " " + std::to_string(l.offset) + " " +
           std::to_string(l.value_len) + "\n";
  }
  return out;
}

// Keys of 0-40 bytes drawn from a few shared 16-byte stems, so many keys
// tie on the stored prefix and order by length and tail; bytes include NUL
// and 0xff, which the prefix words must order as unsigned.
TEST(RangeIndexTest, RandomizedAgainstMapOracle) {
  Rng rng(testutil::TestSeed(0x1dea));
  const std::string alphabet("\x00\x01a\x7f\x80\xfe\xff", 7);
  std::vector<std::string> stems;
  for (int i = 0; i < 6; ++i) {
    std::string stem;
    for (int b = 0; b < 16; ++b) stem += alphabet[rng.NextBounded(alphabet.size())];
    stems.push_back(stem);
  }
  auto random_key = [&] {
    const size_t len = rng.NextBounded(41);
    std::string k = stems[rng.NextBounded(stems.size())].substr(0, len);
    while (k.size() < len) k += alphabet[rng.NextBounded(alphabet.size())];
    return k;
  };
  auto random_loc = [&] {
    return RangeIndex::ValueLoc{static_cast<uint8_t>(rng.NextBounded(4)),
                                rng.NextBounded(1 << 30),
                                static_cast<uint32_t>(rng.NextBounded(4096))};
  };

  RangeIndex index;
  std::map<std::string, RangeIndex::ValueLoc> oracle;
  for (int op = 0; op < 20000; ++op) {
    const std::string key = random_key();
    const uint64_t dice = rng.NextBounded(10);
    if (dice < 5) {
      const RangeIndex::ValueLoc loc = random_loc();
      const bool fresh = !oracle.contains(key);
      ASSERT_EQ(index.Upsert(key, loc), fresh) << op;
      oracle[key] = loc;
    } else if (dice < 8) {
      ASSERT_EQ(index.Erase(key), oracle.erase(key) == 1) << op;
    } else if (dice < 9) {
      // Repair from the current location succeeds; from any other fails.
      auto it = oracle.find(key);
      const RangeIndex::ValueLoc to = random_loc();
      if (it != oracle.end() && rng.NextBounded(2) == 0) {
        ASSERT_TRUE(index.Repair(key, it->second, to)) << op;
        it->second = to;
      } else {
        const RangeIndex::ValueLoc other{9, 1ull << 40, 1};
        ASSERT_FALSE(index.Repair(key, other, to)) << op;
      }
    } else {
      // VisitFrom a random start yields the oracle's lower_bound run.
      const uint32_t limit = 1 + static_cast<uint32_t>(rng.NextBounded(20));
      std::vector<std::pair<std::string, RangeIndex::ValueLoc>> got;
      index.VisitFrom(key, [&](std::string_view k, const RangeIndex::ValueLoc& l) {
        got.emplace_back(std::string(k), l);
        return got.size() < limit;
      });
      auto it = oracle.lower_bound(key);
      for (const auto& [k, l] : got) {
        ASSERT_TRUE(it != oracle.end()) << op;
        ASSERT_EQ(k, it->first) << op;
        ASSERT_TRUE(l == it->second) << op;
        ++it;
      }
      if (got.size() < limit) {
        ASSERT_TRUE(it == oracle.end()) << op;
      }
    }
    auto found = index.Find(key);
    auto want = oracle.find(key);
    ASSERT_EQ(found.has_value(), want != oracle.end()) << op;
    if (found) {
      ASSERT_TRUE(*found == want->second) << op;
    }
    ASSERT_EQ(index.size(), oracle.size());
    if (op % 500 == 0) {
      ASSERT_TRUE(index.CheckInvariants()) << op;
      ASSERT_EQ(index.DebugDump(), OracleDump(oracle)) << op;
    }
  }
  EXPECT_GT(index.height(), 2);  // splits and pruning at several levels
  EXPECT_TRUE(index.CheckInvariants());
  EXPECT_EQ(index.DebugDump(), OracleDump(oracle));
  // Erase everything (no rebalancing: the empty tree may keep its depth).
  for (const auto& [k, l] : oracle) ASSERT_TRUE(index.Erase(k));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.CheckInvariants());
  EXPECT_EQ(index.DebugDump(), "");
  // The emptied tree still answers lookups and takes new keys.
  EXPECT_FALSE(index.Find(oracle.begin()->first).has_value());
  EXPECT_TRUE(index.Upsert("fresh", random_loc()));
  EXPECT_TRUE(index.CheckInvariants());
}

}  // namespace
}  // namespace leed::store
