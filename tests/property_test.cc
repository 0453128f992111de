// Property-style parameterized sweeps (TEST_P): invariants that must hold
// across the configuration space, not just at hand-picked points.
//
//  * DataStore: read-your-writes + newest-wins + compaction preserves data,
//    across bucket sizes, value sizes, and segment counts.
//  * DataStore shadow model: a random PUT/DEL/GET stream checked op-by-op
//    against an in-memory oracle, with logs small enough that the stream
//    laps them (circular-log wraparound) and compaction runs throughout.
//  * CircularLog: contents survive arbitrary wrap patterns across region
//    and entry-size combinations.
//  * Histogram: percentile monotonicity and bounds across distributions.
//  * Zipf: samples in range and monotone concentration across theta.

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <unordered_map>

#include "common/histogram.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "log/circular_log.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "store/data_store.h"
#include "test_util.h"

namespace leed {
namespace {

// ---------------------------------------------------------------------------
// DataStore sweep: (bucket_size, value_size, num_segments)
// ---------------------------------------------------------------------------

using StoreParam = std::tuple<uint32_t, uint32_t, uint32_t>;

class StoreSweep : public ::testing::TestWithParam<StoreParam> {
 protected:
  StoreSweep() : device_(sim_, 128ull << 20, 512), core_(sim_, 3.0) {}

  sim::Simulator sim_;
  sim::MemBlockDevice device_;
  sim::CpuCore core_;
};

TEST_P(StoreSweep, ReadYourWritesAndCompactionPreserves) {
  auto [bucket_size, value_size, num_segments] = GetParam();
  log::CircularLog key_log(device_, 0, 32ull << 20);
  log::CircularLog value_log(device_, 32ull << 20, 32ull << 20);
  store::StoreConfig cfg;
  cfg.bucket_size = bucket_size;
  cfg.num_segments = num_segments;
  cfg.chain_bits = 5;
  cfg.compaction_threshold = 1.1;  // manual
  store::DataStore ds(sim_, core_, store::LogSet{0, &key_log, &value_log}, cfg);

  const int kKeys = 120;
  std::map<std::string, std::vector<uint8_t>> truth;
  Rng rng(bucket_size * 31 + value_size);
  // Two rounds of writes (second round overwrites half) + some deletes.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      if (round == 1 && i % 2 == 0) continue;  // half keep round-0 values
      std::string key = "k" + std::to_string(i);
      auto value = testutil::TestValue(round * 1000 + i, value_size);
      ASSERT_TRUE(testutil::SyncPut(sim_, ds, key, value).ok())
          << key << " bucket=" << bucket_size;
      truth[key] = value;
    }
  }
  for (int i = 0; i < kKeys; i += 7) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(testutil::SyncDel(sim_, ds, key).ok());
    truth.erase(key);
  }

  auto verify = [&](const char* when) {
    for (int i = 0; i < kKeys; ++i) {
      std::string key = "k" + std::to_string(i);
      std::vector<uint8_t> out;
      Status st = testutil::SyncGet(sim_, ds, key, &out);
      auto it = truth.find(key);
      if (it == truth.end()) {
        EXPECT_TRUE(st.IsNotFound()) << when << " " << key;
      } else {
        ASSERT_TRUE(st.ok()) << when << " " << key << ": " << st.ToString();
        EXPECT_EQ(out, it->second) << when << " " << key;
      }
    }
  };
  verify("before compaction");

  for (int pass = 0; pass < 3; ++pass) {
    bool kd = false, vd = false;
    ds.ForceKeyCompaction([&](Status) { kd = true; });
    testutil::RunUntilFlag(sim_, kd);
    ds.ForceValueCompaction([&](Status) { vd = true; });
    testutil::RunUntilFlag(sim_, vd);
  }
  verify("after compaction");
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, StoreSweep,
    ::testing::Combine(::testing::Values(256u, 512u, 4096u),   // bucket size
                       ::testing::Values(16u, 256u, 1024u),    // value size
                       ::testing::Values(1u, 16u, 256u)),      // segments
    [](const ::testing::TestParamInfo<StoreParam>& p) {
      return "b" + std::to_string(std::get<0>(p.param)) + "_v" +
             std::to_string(std::get<1>(p.param)) + "_s" +
             std::to_string(std::get<2>(p.param));
    });

// ---------------------------------------------------------------------------
// DataStore shadow model: random op stream vs an in-memory oracle
// ---------------------------------------------------------------------------

TEST(StoreShadowModel, RandomOpsMatchOracleThroughCompactionAndWrap) {
  sim::Simulator sim;
  sim::MemBlockDevice device(sim, 64ull << 20, 512);
  sim::CpuCore core(sim, 3.0);
  // Logs small enough that the op stream laps them several times — every
  // lap is a circular-log wraparound — with auto-compaction reclaiming
  // space underneath the whole run.
  constexpr uint64_t kRegion = 32 << 10;
  log::CircularLog key_log(device, 0, kRegion);
  log::CircularLog value_log(device, 8 << 20, kRegion);
  store::StoreConfig cfg;
  cfg.bucket_size = 512;
  cfg.num_segments = 8;
  cfg.chain_bits = 5;
  cfg.compaction_threshold = 0.60;
  store::DataStore ds(sim, core, store::LogSet{0, &key_log, &value_log}, cfg);

  const uint64_t seed = testutil::TestSeed(0x51ed);
  Rng rng(seed);
  std::unordered_map<std::string, std::vector<uint8_t>> oracle;
  constexpr int kKeys = 64;
  constexpr int kOps = 4000;
  uint64_t tag = 0;
  uint64_t value_bytes_written = 0;
  for (int i = 0; i < kOps; ++i) {
    std::string key = "sk" + std::to_string(rng.NextBounded(kKeys));
    const uint64_t roll = rng.NextBounded(1000);
    if (roll < 550) {
      auto value = testutil::TestValue(++tag, 16 + rng.NextBounded(120));
      value_bytes_written += value.size();
      ASSERT_TRUE(testutil::SyncPut(sim, ds, key, value).ok())
          << "op " << i << " seed " << seed;
      oracle[key] = std::move(value);
    } else if (roll < 700) {
      Status st = testutil::SyncDel(sim, ds, key);
      if (oracle.count(key)) {
        ASSERT_TRUE(st.ok()) << "op " << i << " seed " << seed << ": "
                             << st.ToString();
      } else {
        ASSERT_TRUE(st.ok() || st.IsNotFound())
            << "op " << i << " seed " << seed << ": " << st.ToString();
      }
      oracle.erase(key);
    } else {
      std::vector<uint8_t> out;
      Status st = testutil::SyncGet(sim, ds, key, &out);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_TRUE(st.IsNotFound()) << "op " << i << " seed " << seed;
      } else {
        ASSERT_TRUE(st.ok()) << "op " << i << " seed " << seed << ": "
                             << st.ToString();
        EXPECT_EQ(out, it->second) << "op " << i << " seed " << seed;
      }
    }
    if (i % 512 == 511) {
      // Forced passes on top of the threshold-triggered ones: the oracle
      // must hold across both compaction entry points.
      bool kd = false, vd = false;
      ds.ForceKeyCompaction([&](Status) { kd = true; });
      testutil::RunUntilFlag(sim, kd);
      ds.ForceValueCompaction([&](Status) { vd = true; });
      testutil::RunUntilFlag(sim, vd);
    }
  }
  // The stream must actually have lapped the value log, or the wraparound
  // claim in this test's name is vacuous.
  EXPECT_GT(value_bytes_written, 3 * kRegion);
  for (int k = 0; k < kKeys; ++k) {
    std::string key = "sk" + std::to_string(k);
    std::vector<uint8_t> out;
    Status st = testutil::SyncGet(sim, ds, key, &out);
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_TRUE(st.IsNotFound()) << "final " << key << " seed " << seed;
    } else {
      ASSERT_TRUE(st.ok()) << "final " << key << " seed " << seed;
      EXPECT_EQ(out, it->second) << "final " << key << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// CircularLog sweep: (region_size, max_entry)
// ---------------------------------------------------------------------------

using LogParam = std::tuple<uint64_t, uint64_t>;

class LogSweep : public ::testing::TestWithParam<LogParam> {
 protected:
  LogSweep() : device_(sim_, 8 << 20, 512) {}
  sim::Simulator sim_;
  sim::MemBlockDevice device_;
};

TEST_P(LogSweep, SurvivesArbitraryWraps) {
  auto [region, max_entry] = GetParam();
  log::CircularLog log(device_, 1024, region);
  Rng rng(region ^ max_entry);
  std::deque<std::pair<uint64_t, std::vector<uint8_t>>> window;
  for (int i = 0; i < 300; ++i) {
    // An entry can never exceed the region itself.
    uint64_t size = 1 + rng.NextBounded(std::min(max_entry, region - 1));
    auto payload = testutil::TestValue(i, size);
    while (log.free_space() < size) {
      ASSERT_FALSE(window.empty());
      // Reclaim the oldest entry.
      uint64_t new_head = window.front().first + window.front().second.size();
      window.pop_front();
      ASSERT_TRUE(log.AdvanceHead(new_head).ok());
    }
    bool done = false;
    log::AppendResult res;
    log.Append(payload, [&](log::AppendResult r) {
      res = std::move(r);
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    ASSERT_TRUE(res.status.ok());
    window.emplace_back(res.offset, std::move(payload));
  }
  for (auto& [offset, payload] : window) {
    bool done = false;
    log::ReadResult r;
    log.Read(offset, payload.size(), [&](log::ReadResult rr) {
      r = std::move(rr);
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.data, payload);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LogSweep,
    ::testing::Combine(::testing::Values(4096ull, 65536ull, 1048576ull),
                       ::testing::Values(100ull, 700ull, 5000ull)),
    [](const ::testing::TestParamInfo<LogParam>& p) {
      return "r" + std::to_string(std::get<0>(p.param)) + "_e" +
             std::to_string(std::get<1>(p.param));
    });

// ---------------------------------------------------------------------------
// Histogram percentile properties across distributions
// ---------------------------------------------------------------------------

class HistogramSweep : public ::testing::TestWithParam<int> {};

TEST_P(HistogramSweep, PercentilesMonotoneAndBounded) {
  Histogram h;
  Rng rng(GetParam());
  double lo = 1e18, hi = 0;
  for (int i = 0; i < 20000; ++i) {
    double v = 0;
    switch (GetParam()) {
      case 0:
        v = 1.0 + static_cast<double>(rng.NextBounded(1000));  // uniform
        break;
      case 1:
        v = rng.NextExponential(250.0) + 0.1;  // heavy tail
        break;
      case 2:
        v = (i % 100 == 0) ? 1e6 : 50.0;  // bimodal with outliers
        break;
      default:
        v = 42.0;  // constant
        break;
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    h.Record(v);
  }
  double prev = 0;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    double p = h.Percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    EXPECT_GE(p, lo * 0.99);
    EXPECT_LE(p, hi * 1.01);
    prev = p;
  }
  EXPECT_GE(h.Mean(), h.min());
  EXPECT_LE(h.Mean(), h.max());
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramSweep, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Zipf concentration monotone in theta
// ---------------------------------------------------------------------------

class ZipfSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSweep, SamplesInRangeAndTopShareMatchesZeta) {
  const double theta = GetParam();
  constexpr uint64_t kN = 50'000;
  ZipfGenerator gen(kN, theta, /*scramble=*/false);
  Rng rng(777);
  uint64_t top = 0;
  constexpr int kSamples = 120'000;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = gen.Next(rng);
    ASSERT_LT(v, kN);
    if (v == 0) ++top;
  }
  if (theta > 0) {
    double expected = gen.TopItemProbability();
    EXPECT_NEAR(static_cast<double>(top) / kSamples, expected,
                std::max(0.002, expected * 0.15));
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfSweep,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 0.99));

// ---------------------------------------------------------------------------
// RangeIndex shadow model: ordered view vs std::map oracle
// ---------------------------------------------------------------------------

TEST(RangeIndexShadowModel, OrderedViewMatchesOracleThroughCompactionSwapWrap) {
  sim::Simulator sim;
  sim::MemBlockDevice device(sim, 64ull << 20, 512);
  sim::MemBlockDevice donor_device(sim, 16ull << 20, 512);
  sim::CpuCore core(sim, 3.0);
  // Small logs so the stream laps them (circular-log wraparound) while
  // auto-compaction reclaims space; a donor log pair so a stretch of the
  // run goes through swapped segments and their merge-back relocations.
  constexpr uint64_t kRegion = 32 << 10;
  log::CircularLog key_log(device, 0, kRegion);
  log::CircularLog value_log(device, 8 << 20, kRegion);
  log::CircularLog donor_key(donor_device, 0, 4 << 20);
  log::CircularLog donor_value(donor_device, 4 << 20, 4 << 20);
  store::StoreConfig cfg;
  cfg.bucket_size = 512;
  cfg.num_segments = 8;
  cfg.chain_bits = 5;
  cfg.compaction_threshold = 0.60;
  store::DataStore ds(sim, core, store::LogSet{0, &key_log, &value_log}, cfg);
  ds.AddLogSet(store::LogSet{1, &donor_key, &donor_value});

  const uint64_t seed = testutil::TestSeed(0x4a9ed);
  Rng rng(seed);
  std::map<std::string, std::vector<uint8_t>> oracle;  // ordered, like the index

  // The invariant under test: the range index holds exactly the oracle's
  // keys, in the same order, every entry's location resolves through a
  // point GET to the oracle's bytes, and the B+-tree structure is sound.
  auto check_against_oracle = [&](int op) {
    std::vector<std::string> indexed;
    ds.range_index().Visit(
        [&](std::string_view k, const store::RangeIndex::ValueLoc&) {
          indexed.emplace_back(k);
        });
    ASSERT_TRUE(std::is_sorted(indexed.begin(), indexed.end()))
        << "op " << op << " seed " << seed;
    std::vector<std::string> expect;
    expect.reserve(oracle.size());
    for (const auto& [k, v] : oracle) expect.push_back(k);
    ASSERT_EQ(indexed, expect) << "op " << op << " seed " << seed;
    ASSERT_TRUE(ds.range_index().CheckInvariants())
        << "op " << op << " seed " << seed;
    // Suffix visit from a random start = oracle lower_bound suffix.
    std::string start = "rk" + std::to_string(rng.NextBounded(64));
    std::vector<std::string> suffix;
    ds.range_index().VisitFrom(
        start, [&](std::string_view k, const store::RangeIndex::ValueLoc&) {
          suffix.emplace_back(k);
          return suffix.size() < 8;
        });
    auto it = oracle.lower_bound(start);
    for (const std::string& got : suffix) {
      ASSERT_TRUE(it != oracle.end()) << "op " << op << " seed " << seed;
      ASSERT_EQ(got, it->first) << "op " << op << " seed " << seed;
      ++it;
    }
  };

  constexpr int kKeys = 64;
  constexpr int kOps = 3000;
  uint64_t tag = 0;
  uint64_t value_bytes_written = 0;
  bool swapped_stretch = false;
  for (int i = 0; i < kOps; ++i) {
    std::string key = "rk" + std::to_string(rng.NextBounded(kKeys));
    const uint64_t roll = rng.NextBounded(1000);
    if (roll < 550) {
      auto value = testutil::TestValue(++tag, 16 + rng.NextBounded(120));
      value_bytes_written += value.size();
      ASSERT_TRUE(testutil::SyncPut(sim, ds, key, value).ok())
          << "op " << i << " seed " << seed;
      oracle[key] = std::move(value);
    } else if (roll < 750) {
      Status st = testutil::SyncDel(sim, ds, key);
      ASSERT_TRUE(st.ok() || st.IsNotFound())
          << "op " << i << " seed " << seed << ": " << st.ToString();
      oracle.erase(key);
    } else {
      std::vector<uint8_t> out;
      Status st = testutil::SyncGet(sim, ds, key, &out);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_TRUE(st.IsNotFound()) << "op " << i << " seed " << seed;
      } else {
        ASSERT_TRUE(st.ok()) << "op " << i << " seed " << seed;
        EXPECT_EQ(out, it->second) << "op " << i << " seed " << seed;
      }
    }

    // A swapped stretch in the middle of the run: PUTs land on the donor
    // SSD, then merge-back relocates them home via forced key compactions.
    if (i == kOps / 3) {
      ds.SetSwapTarget(1);
      swapped_stretch = true;
    }
    if (i == kOps / 2) {
      ds.SetSwapTarget(std::nullopt);
      for (int pass = 0; pass < 8 && ds.swapped_segments() > 0; ++pass) {
        bool done = false;
        ds.ForceKeyCompaction([&](Status) { done = true; });
        testutil::RunUntilFlag(sim, done);
      }
      ASSERT_EQ(ds.swapped_segments(), 0u) << "seed " << seed;
    }
    if (i % 512 == 511) {
      bool kd = false, vd = false;
      ds.ForceKeyCompaction([&](Status) { kd = true; });
      testutil::RunUntilFlag(sim, kd);
      ds.ForceValueCompaction([&](Status) { vd = true; });
      testutil::RunUntilFlag(sim, vd);
    }
    if (i % 128 == 127) check_against_oracle(i);
  }
  // The claims in this test's name must not be vacuous.
  EXPECT_GT(value_bytes_written, 3 * kRegion);  // value log lapped (wrap)
  EXPECT_TRUE(swapped_stretch);
  EXPECT_GT(ds.stats().swap_puts, 0u);
  check_against_oracle(kOps);

  // Every surviving location must resolve: point-GET each indexed key and
  // compare bytes against the oracle (locations repaired by compaction and
  // merge-back still point at live value-log entries).
  ds.range_index().Visit(
      [&](std::string_view key, const store::RangeIndex::ValueLoc&) {
        const std::string k(key);
        std::vector<uint8_t> out;
        ASSERT_TRUE(testutil::SyncGet(sim, ds, k, &out).ok())
            << k << " seed " << seed;
        EXPECT_EQ(out, oracle.at(k)) << k << " seed " << seed;
      });
}

}  // namespace
}  // namespace leed
