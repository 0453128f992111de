// Unit tests for the common substrate: Status/Result, hashing, CRC-32, RNG,
// Zipf, histogram.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/crc32.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "common/status.h"
#include "common/zipf.h"

namespace leed {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status nf = Status::NotFound("key absent");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "not_found: key absent");

  EXPECT_TRUE(Status::Overloaded().IsOverloaded());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::WrongView().IsWrongView());
  EXPECT_EQ(Status::OutOfSpace().code(), StatusCode::kOutOfSpace);
  EXPECT_EQ(Status::Corruption().code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Unavailable().code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Internal().code(), StatusCode::kInternal);
  EXPECT_EQ(Status::InvalidArgument().code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Busy());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_EQ(StatusCodeName(StatusCode::kWrongView), "wrong_view");
  EXPECT_EQ(StatusCodeName(StatusCode::kOverloaded), "overloaded");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.value_or(-1), 42);

  Result<int> bad(Status::NotFound());
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  // "a" -> standard test vector.
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(HashKey("user42", 1), HashKey("user42", 1));
  EXPECT_NE(HashKey("user42", 1), HashKey("user42", 2));
  EXPECT_NE(HashKey("user42", 1), HashKey("user43", 1));
}

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    uint64_t a = Mix64(0x123456789abcdefULL);
    uint64_t b = Mix64(0x123456789abcdefULL ^ (1ULL << i));
    total += __builtin_popcountll(a ^ b);
  }
  double avg = total / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, KeyHashDistributesAcrossBuckets) {
  constexpr int kBuckets = 64;
  constexpr int kKeys = 64000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kKeys; ++i) {
    counts[HashKey("key" + std::to_string(i), 7) % kBuckets]++;
  }
  const double expect = static_cast<double>(kKeys) / kBuckets;
  for (int c : counts) {
    EXPECT_GT(c, expect * 0.8);
    EXPECT_LT(c, expect * 1.2);
  }
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

// The byte-at-a-time table CRC that slicing-by-8 replaced: the oracle
// for on-disk compatibility.
uint32_t BytewiseCrc32(const uint8_t* data, size_t length) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < length; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  Rng rng(99);
  std::vector<uint8_t> buf(600);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; start + len <= 530; ++len) {
      const uint32_t want = BytewiseCrc32(buf.data() + start, len);
      ASSERT_EQ(Crc32ExtendPortable(0, buf.data() + start, len), want)
          << "start " << start << " len " << len;
      ASSERT_EQ(Crc32(buf.data() + start, len), want)
          << "start " << start << " len " << len;
    }
  }
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
}

// The PCLMULQDQ folding path against slicing-by-8: every length through
// several fold blocks and both tail shapes, every alignment, continuing
// from a fresh and from a random checksum.
TEST(Crc32Test, HardwareMatchesPortable) {
  if (!Crc32HardwareAvailable()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  Rng rng(1234);
  std::vector<uint8_t> buf(1100 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (const uint32_t seed : {0u, static_cast<uint32_t>(rng.Next())}) {
    for (size_t start = 0; start < 8; ++start) {
      for (size_t len = 0; len <= 1100; ++len) {
        ASSERT_EQ(Crc32ExtendHardware(seed, buf.data() + start, len),
                  Crc32ExtendPortable(seed, buf.data() + start, len))
            << "seed " << seed << " start " << start << " len " << len;
      }
    }
  }
}

TEST(Crc32Test, ExtendContinuesAChecksum) {
  Rng rng(7);
  std::vector<uint8_t> buf(512);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t cut : {0, 1, 7, 36, 40, 255, 511, 512}) {
    EXPECT_EQ(Crc32Extend(Crc32(buf.data(), cut), buf.data() + cut, buf.size() - cut),
              whole)
        << "cut " << cut;
  }
  EXPECT_EQ(Crc32Extend(0, buf.data(), 0), 0u);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) counts[rng.NextBounded(10)]++;
  for (int c : counts) {
    EXPECT_GT(c, 9300);
    EXPECT_LT(c, 10700);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(5);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / kN, 50.0, 1.0);
}

// ---------------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------------

TEST(ZipfTest, ZetaSumMatchesClosedForms) {
  EXPECT_NEAR(ZetaSum(1, 0.99), 1.0, 1e-12);
  // theta=0 -> harmonic of ones -> n.
  EXPECT_NEAR(ZetaSum(100, 0.0), 100.0, 1e-9);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfGenerator gen(100, 0.0, /*scramble=*/false);
  Rng rng(1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[gen.Next(rng)]++;
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(ZipfTest, HotItemGetsTheoreticalShare) {
  constexpr uint64_t kN = 10000;
  constexpr double kTheta = 0.99;
  ZipfGenerator gen(kN, kTheta, /*scramble=*/false);
  Rng rng(2);
  constexpr int kSamples = 400000;
  uint64_t hot = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (gen.Next(rng) == 0) ++hot;
  }
  const double expected = gen.TopItemProbability();
  EXPECT_NEAR(static_cast<double>(hot) / kSamples, expected, expected * 0.1);
}

TEST(ZipfTest, HigherSkewConcentratesMore) {
  Rng rng(3);
  auto top_share = [&](double theta) {
    ZipfGenerator gen(100000, theta, /*scramble=*/false);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) {
      if (gen.Next(rng) < 100) ++hits;  // share of top-100 ranks
    }
    return hits;
  };
  int low = top_share(0.5);
  int high = top_share(0.99);
  EXPECT_GT(high, low * 2);
}

TEST(ZipfTest, ScrambleSpreadsHotKeyButPreservesSkew) {
  ZipfGenerator gen(100000, 0.99, /*scramble=*/true);
  Rng rng(4);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) counts[gen.Next(rng)]++;
  // The hottest scrambled item should match HottestItem().
  uint64_t argmax = 0;
  int best = 0;
  for (auto& [k, c] : counts) {
    if (c > best) {
      best = c;
      argmax = k;
    }
  }
  EXPECT_EQ(argmax, gen.HottestItem());
  // And it should not be rank 0 (scrambled away) for this size.
  EXPECT_NE(argmax, 0u);
}

TEST(ZipfTest, SamplesStayInRange) {
  ZipfGenerator gen(1000, 0.9);
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) EXPECT_LT(gen.Next(rng), 1000u);
}

// Regression: theta == 1.0 used to divide by zero (alpha = 1/(1-theta)),
// silently collapsing the whole distribution onto ranks {0, 1, n-1}.
// Sanity-check the distribution shape for theta in {0.99, 1.0}.
TEST(ZipfTest, ThetaNearOneDistributionSanity) {
  for (double theta : {0.99, 1.0}) {
    constexpr uint64_t kN = 1000;
    constexpr int kSamples = 200000;
    ZipfGenerator gen(kN, theta, /*scramble=*/false);
    Rng rng(6);
    std::vector<int> counts(kN, 0);
    for (int i = 0; i < kSamples; ++i) {
      uint64_t v = gen.Next(rng);
      ASSERT_LT(v, kN) << "theta=" << theta;
      counts[v]++;
    }
    // Head share matches 1/zeta(n): the uz < 1 branch is exact for both.
    const double expected = gen.TopItemProbability();
    EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, expected,
                expected * 0.12)
        << "theta=" << theta;
    // The tail must not be collapsed: the old bug left only {0, 1, n-1}
    // populated. A healthy zipfian hits hundreds of distinct ranks here.
    int distinct = 0;
    for (int c : counts) distinct += (c > 0) ? 1 : 0;
    EXPECT_GT(distinct, 300) << "theta=" << theta;
    // Monotone head: rank 0 strictly hotter than rank 1, which beats the
    // middle of the tail by a wide margin.
    EXPECT_GT(counts[0], counts[1]) << "theta=" << theta;
    EXPECT_GT(counts[1], counts[kN / 2] * 2) << "theta=" << theta;
    // No artificial mass spike on the last rank (the old collapse dumped
    // the whole tail there).
    EXPECT_LT(counts[kN - 1], counts[0] / 4) << "theta=" << theta;
  }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.P999(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  EXPECT_NEAR(h.P50(), 42.0, 42.0 * 0.02);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
}

TEST(HistogramTest, PercentilesWithinRelativeError) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(static_cast<double>(i));
  EXPECT_NEAR(h.P50(), 5000, 5000 * 0.03);
  EXPECT_NEAR(h.P99(), 9900, 9900 * 0.03);
  EXPECT_NEAR(h.P999(), 9990, 9990 * 0.03);
  EXPECT_NEAR(h.Percentile(1.0), 10000, 10000 * 0.03);
}

TEST(HistogramTest, WideDynamicRange) {
  Histogram h;
  h.Record(0.5);          // sub-microsecond
  h.Record(1e6);          // a second in us
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(10);
  for (int i = 0; i < 100; ++i) b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_NEAR(a.Mean(), 505, 20);
  EXPECT_NEAR(a.Percentile(0.25), 10, 1);
  EXPECT_NEAR(a.Percentile(0.75), 1000, 35);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HistogramTest, RecordNWeights) {
  Histogram h;
  h.RecordN(100.0, 50);
  EXPECT_EQ(h.count(), 50u);
  EXPECT_NEAR(h.Mean(), 100.0, 1e-9);
}

// Regression: negative frexp exponents used to clamp to 0, so every value
// in (0, 1) aliased into the exponent-0 buckets — 0.3 and 0.6 shared a
// midpoint and sub-unity percentiles were fiction.
TEST(HistogramTest, SubUnityValuesResolve) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(0.3);
  for (int i = 0; i < 1000; ++i) h.Record(0.6);
  // The two populations land in different buckets, so the quartiles
  // straddle them instead of reporting one shared midpoint.
  EXPECT_NEAR(h.Percentile(0.25), 0.3, 0.3 * 0.05);
  EXPECT_NEAR(h.Percentile(0.75), 0.6, 0.6 * 0.05);
  // Relative error holds across the sub-unity decades too.
  Histogram fine;
  fine.Record(0.001);
  EXPECT_NEAR(fine.P50(), 0.001, 0.001 * 0.02);
}

TEST(HistogramTest, SummaryMentionsStats) {
  Histogram h;
  h.Record(10);
  std::string s = h.Summary("us");
  EXPECT_NE(s.find("count=1"), std::string::npos);
  EXPECT_NE(s.find("p999"), std::string::npos);
}

}  // namespace
}  // namespace leed
