// Tests for the YCSB generator and the analysis module (balls-into-bins,
// index-memory arithmetic).

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "analysis/balls_into_bins.h"
#include "analysis/index_memory.h"
#include "common/hash.h"
#include "common/units.h"
#include "sim/platform.h"
#include "workload/ycsb.h"

namespace leed {
namespace {

using workload::Mix;
using workload::OpKind;
using workload::YcsbConfig;
using workload::YcsbGenerator;

// ---------------------------------------------------------------------------
// YCSB
// ---------------------------------------------------------------------------

std::map<OpKind, int> SampleMix(Mix mix, int n = 40000) {
  YcsbConfig cfg;
  cfg.mix = mix;
  cfg.num_keys = 10000;
  cfg.seed = 5;
  YcsbGenerator gen(cfg);
  std::map<OpKind, int> counts;
  for (int i = 0; i < n; ++i) counts[gen.Next().kind]++;
  return counts;
}

TEST(YcsbTest, MixRatiosMatchSpec) {
  auto a = SampleMix(Mix::kA);
  EXPECT_NEAR(a[OpKind::kRead] / 40000.0, 0.50, 0.02);
  EXPECT_NEAR(a[OpKind::kUpdate] / 40000.0, 0.50, 0.02);

  auto b = SampleMix(Mix::kB);
  EXPECT_NEAR(b[OpKind::kRead] / 40000.0, 0.95, 0.01);

  auto c = SampleMix(Mix::kC);
  EXPECT_EQ(c[OpKind::kRead], 40000);

  auto d = SampleMix(Mix::kD);
  EXPECT_NEAR(d[OpKind::kInsert] / 40000.0, 0.05, 0.01);
  EXPECT_EQ(d[OpKind::kUpdate], 0);

  auto f = SampleMix(Mix::kF);
  EXPECT_NEAR(f[OpKind::kReadModifyWrite] / 40000.0, 0.50, 0.02);

  auto wr = SampleMix(Mix::kWriteOnly);
  EXPECT_EQ(wr[OpKind::kUpdate], 40000);
}

TEST(YcsbTest, ReadFractionsMatchMixes) {
  YcsbConfig cfg;
  cfg.mix = Mix::kB;
  EXPECT_DOUBLE_EQ(YcsbGenerator(cfg).ReadFraction(), 0.95);
  cfg.mix = Mix::kWriteOnly;
  EXPECT_DOUBLE_EQ(YcsbGenerator(cfg).ReadFraction(), 0.0);
}

TEST(YcsbTest, KeysStayInPopulation) {
  YcsbConfig cfg;
  cfg.mix = Mix::kA;
  cfg.num_keys = 500;
  YcsbGenerator gen(cfg);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.Next().key_id, 500u);
}

TEST(YcsbTest, WorkloadDGrowsPopulationAndReadsRecent) {
  YcsbConfig cfg;
  cfg.mix = Mix::kD;
  cfg.num_keys = 1000;
  cfg.seed = 3;
  YcsbGenerator gen(cfg);
  uint64_t recent_reads = 0, total_reads = 0;
  for (int i = 0; i < 20000; ++i) {
    auto op = gen.Next();
    if (op.kind == OpKind::kInsert) {
      EXPECT_EQ(op.key_id, gen.population() - 1);  // fresh key
    } else {
      ++total_reads;
      if (op.key_id + 100 >= gen.population()) ++recent_reads;
    }
  }
  EXPECT_GT(gen.population(), 1000u);
  // "Latest" distribution: a large share of reads hit the newest 100 keys.
  EXPECT_GT(static_cast<double>(recent_reads) / total_reads, 0.3);
}

TEST(YcsbTest, ZipfSkewConcentratesRequests) {
  YcsbConfig hot;
  hot.mix = Mix::kC;
  hot.num_keys = 100000;
  hot.zipf_theta = 0.99;
  YcsbGenerator gen(hot);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[gen.Next().key_id]++;
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 500);  // ~> 1% of requests on the hottest key
}

TEST(YcsbTest, KeyNamesAndValuesDeterministic) {
  EXPECT_EQ(YcsbGenerator::KeyName(42), "user000000000042");
  YcsbConfig cfg;
  cfg.value_size = 256;
  YcsbGenerator gen(cfg);
  auto v1 = gen.MakeValue(7, 0);
  auto v2 = gen.MakeValue(7, 0);
  auto v3 = gen.MakeValue(7, 1);
  EXPECT_EQ(v1.size(), 256u);
  EXPECT_EQ(v1, v2);
  EXPECT_NE(v1, v3);
}

TEST(YcsbTest, ValueBytesArePinned) {
  // FNV-1a digests of the byte-at-a-time generator's output: any change to
  // MakeValue's bytes would move every stored value and checker digest.
  auto digest = [](uint32_t size, uint64_t key, uint32_t version) {
    YcsbConfig cfg;
    cfg.value_size = size;
    auto v = YcsbGenerator(cfg).MakeValue(key, version);
    return Fnv1a64({reinterpret_cast<const char*>(v.data()), v.size()});
  };
  EXPECT_EQ(digest(1024, 7, 0), 0xf0d5c5f633ec5b57ULL);
  EXPECT_EQ(digest(1000, 12345, 3), 0xbc3c367dcc2fbb92ULL);  // short last word
  EXPECT_EQ(digest(13, 1, 0), 0xa3e935516732c30cULL);
}

TEST(YcsbTest, MixNames) {
  EXPECT_STREQ(workload::MixName(Mix::kA), "YCSB-A");
  EXPECT_STREQ(workload::MixName(Mix::kWriteOnly), "YCSB-WR");
}

// ---------------------------------------------------------------------------
// Balls into bins (Table 1)
// ---------------------------------------------------------------------------

TEST(BallsIntoBinsTest, EstimateMatchesFormula) {
  auto e = analysis::EstimateMaxLoad(1e6, 100);
  EXPECT_DOUBLE_EQ(e.mean, 10000.0);
  EXPECT_GT(e.deviation, 0.0);
  EXPECT_NEAR(e.deviation, std::sqrt(2.0 * 1e6 * std::log(100.0) / 100.0), 1.0);
}

TEST(BallsIntoBinsTest, FewerBinsMeansLargerDeviationShare) {
  // Table 1's point: 3 JBOFs see a larger max-load overshoot than 100
  // embedded nodes, relative to the mean.
  auto embedded = analysis::EstimateMaxLoad(1e6, 100);
  auto jbof = analysis::EstimateMaxLoad(1e6, 3);
  EXPECT_GT(jbof.deviation / jbof.mean, embedded.deviation / embedded.mean * 0);
  EXPECT_GT(jbof.mean, embedded.mean);
  // Absolute deviation is much larger for the 3-node cluster.
  EXPECT_GT(jbof.deviation, embedded.deviation);
}

TEST(BallsIntoBinsTest, SimulationBracketedByEstimate) {
  Rng rng(17);
  double sim_max = analysis::SimulateMaxLoad(100000, 10, 20, rng);
  auto est = analysis::EstimateMaxLoad(100000, 10);
  EXPECT_GT(sim_max, est.mean);               // above the mean...
  EXPECT_LT(sim_max, est.mean + 2 * est.deviation);  // ...within the bound
}

// ---------------------------------------------------------------------------
// Index memory (Challenge C1 / Table 3 capacity)
// ---------------------------------------------------------------------------

TEST(IndexMemoryTest, FawnCappedByDram) {
  auto plat = sim::StingrayJbof();
  auto r = analysis::MaxCapacity(analysis::FawnIndexModel(), plat.dram_bytes,
                                 0.875, plat.TotalFlashBytes(), 256);
  // Paper Table 3: FAWN-JBOF reaches only ~7.7% of flash for 256B objects.
  EXPECT_GT(r.fraction_of_flash, 0.04);
  EXPECT_LT(r.fraction_of_flash, 0.12);
}

TEST(IndexMemoryTest, KvellCappedHarder) {
  auto plat = sim::StingrayJbof();
  auto r256 = analysis::MaxCapacity(analysis::KvellIndexModel(256), plat.dram_bytes,
                                    0.875, plat.TotalFlashBytes(), 256);
  auto r1k = analysis::MaxCapacity(analysis::KvellIndexModel(1024), plat.dram_bytes,
                                   0.875, plat.TotalFlashBytes(), 1024);
  // Paper: 0.9% / 2.6% of flash (33GB / 100GB).
  EXPECT_LT(r256.fraction_of_flash, 0.02);
  EXPECT_LT(r1k.fraction_of_flash, 0.05);
  EXPECT_GT(r1k.usable_bytes, r256.usable_bytes);
}

TEST(IndexMemoryTest, LeedUnlocksNearlyAllFlash) {
  auto plat = sim::StingrayJbof();
  auto model = analysis::LeedIndexModel(256, 4096, 16, 4);
  EXPECT_LT(model.bytes_per_object, 0.1);  // Challenge C1 target: << 0.5 B
  auto r = analysis::MaxCapacity(model, plat.dram_bytes, 0.875,
                                 plat.TotalFlashBytes(), 256);
  // Paper: 95.4% for 256B (flash-overhead-bound, not DRAM-bound).
  EXPECT_GT(r.fraction_of_flash, 0.85);
}

TEST(IndexMemoryTest, OrderingMatchesTable3) {
  auto plat = sim::StingrayJbof();
  for (uint32_t size : {256u, 1024u}) {
    auto fawn = analysis::MaxCapacity(analysis::FawnIndexModel(), plat.dram_bytes,
                                      0.875, plat.TotalFlashBytes(), size);
    auto kvell = analysis::MaxCapacity(analysis::KvellIndexModel(size),
                                       plat.dram_bytes, 0.875,
                                       plat.TotalFlashBytes(), size);
    auto leed = analysis::MaxCapacity(analysis::LeedIndexModel(size, 4096, 16, 4),
                                      plat.dram_bytes, 0.875,
                                      plat.TotalFlashBytes(), size);
    EXPECT_LT(kvell.fraction_of_flash, fawn.fraction_of_flash) << size;
    EXPECT_LT(fawn.fraction_of_flash, leed.fraction_of_flash) << size;
  }
}

}  // namespace
}  // namespace leed
