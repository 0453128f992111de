// Functional tests of the LEED data store: command correctness, chain
// growth, NVMe access counts (the paper's 2/3/2), compaction (key log and
// value log), data swapping, and the COPY primitive.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rand.h"
#include "log/circular_log.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
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
    value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 8 << 20);
    LogSet home{0, key_log_.get(), value_log_.get()};
    return std::make_unique<DataStore>(sim_, core_, home, cfg);
  }

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

TEST_F(SwapTest, SwapToUnknownDonorIsIgnored) {
  auto ds = MakeSwappingStore();
  ds->SetSwapTarget(7);  // never registered
  EXPECT_FALSE(ds->swap_target().has_value());
}

// ---------------------------------------------------------------------------
// COPY (§3.8)
// ---------------------------------------------------------------------------

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
