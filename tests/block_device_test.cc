// Edge-case tests for the functional block-device substrate: sparse page
// store semantics, zero-fill of never-written ranges, cross-page IOs, and
// the MemBlockDevice's async completion ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rand.h"

#include "sim/block_device.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace leed::sim {
namespace {

TEST(PageStoreTest, UnwrittenReadsAreZero) {
  PageStore store(1 << 20, 4096);
  auto data = store.Read(12345, 100);
  ASSERT_EQ(data.size(), 100u);
  for (uint8_t b : data) EXPECT_EQ(b, 0);
  EXPECT_EQ(store.resident_pages(), 0u);
}

TEST(PageStoreTest, CrossPageWriteReadsBack) {
  PageStore store(1 << 20, 4096);
  // Write 6000 bytes starting 1000 bytes before a page boundary: spans
  // three pages.
  std::vector<uint8_t> payload(6000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i);
  store.Write(4096 - 1000, payload, payload.size());
  EXPECT_EQ(store.resident_pages(), 3u);
  auto out = store.Read(4096 - 1000, 6000);
  EXPECT_EQ(out, payload);
  // Neighboring bytes stay zero.
  EXPECT_EQ(store.Read(4096 - 1001, 1)[0], 0);
  EXPECT_EQ(store.Read(4096 - 1000 + 6000, 1)[0], 0);
}

TEST(PageStoreTest, ShortDataZeroFillsDeclaredLength) {
  PageStore store(1 << 20, 4096);
  std::vector<uint8_t> partial(10, 0xff);
  store.Write(0, partial, 100);  // declared length > data
  auto out = store.Read(0, 100);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], 0xff);
  for (int i = 10; i < 100; ++i) EXPECT_EQ(out[i], 0) << i;
}

TEST(PageStoreTest, RangeValidation) {
  PageStore store(1000, 512);
  EXPECT_TRUE(store.CheckRange(0, 1000).ok());
  EXPECT_FALSE(store.CheckRange(0, 1001).ok());
  EXPECT_FALSE(store.CheckRange(999, 2).ok());
  EXPECT_FALSE(store.CheckRange(0, 0).ok());
  // Overflow-safe.
  EXPECT_FALSE(store.CheckRange(UINT64_MAX - 1, 10).ok());
}

TEST(PageStoreTest, OverwriteReplacesBytes) {
  PageStore store(1 << 20, 512);
  store.Write(100, std::vector<uint8_t>(50, 1), 50);
  store.Write(120, std::vector<uint8_t>(10, 2), 10);
  auto out = store.Read(100, 50);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[20], 2);
  EXPECT_EQ(out[29], 2);
  EXPECT_EQ(out[30], 1);
}

// Random writes (page-straddling, some with short data, leaving holes)
// against a byte-map oracle, across many page-table growths.
TEST(PageStoreTest, RandomizedAgainstMapOracle) {
  constexpr uint64_t kCapacity = 1 << 20;
  constexpr uint32_t kPage = 256;
  PageStore store(kCapacity, kPage);
  std::map<uint64_t, uint8_t> oracle;  // written bytes; absent reads as 0
  std::set<uint64_t> pages;
  Rng rng(testutil::TestSeed(0x9a6e));
  auto check = [&](uint64_t offset, uint64_t length) {
    const auto got = store.Read(offset, length);
    ASSERT_EQ(got.size(), length);
    for (uint64_t i = 0; i < length; ++i) {
      auto it = oracle.find(offset + i);
      ASSERT_EQ(got[i], it == oracle.end() ? 0 : it->second) << "byte " << offset + i;
    }
  };
  for (int op = 0; op < 600; ++op) {
    const uint64_t length = 1 + rng.NextBounded(3 * kPage);
    const uint64_t offset = rng.NextBounded(kCapacity - length);
    // Every fourth write declares more bytes than it carries; the rest of
    // the declared range is written as zeros.
    const uint64_t carried = op % 4 == 0 ? rng.NextBounded(length + 1) : length;
    std::vector<uint8_t> data(carried);
    for (auto& b : data) b = static_cast<uint8_t>(1 + rng.NextBounded(255));
    store.Write(offset, data, length);
    for (uint64_t i = 0; i < length; ++i) oracle[offset + i] = i < carried ? data[i] : 0;
    for (uint64_t p = offset / kPage; p <= (offset + length - 1) / kPage; ++p) pages.insert(p);
    ASSERT_EQ(store.resident_pages(), pages.size());
    const uint64_t rlen = 1 + rng.NextBounded(3 * kPage);
    check(rng.NextBounded(kCapacity - rlen), rlen);
  }
  // Several growths happened (the table starts at 16 slots, half full).
  EXPECT_GT(pages.size(), 256u);
  EXPECT_EQ(store.resident_bytes(), pages.size() * kPage);
  for (uint64_t offset = 0; offset < kCapacity; offset += 64 * 1024) check(offset, 64 * 1024);
}

// The same oracle, aimed at the chunk layout: a small window spanning a few
// chunks, so reads and writes straddle chunk boundaries and land on
// never-written pages inside written chunks (one page in the middle of the
// window is never written); first writes that cover only part of a page;
// and crash/torn writes that persist only a `keep` prefix of the data they
// carry. Page sizes give 4, 16 and (capped by the 64-bit bitmap) 64 pages
// per chunk.
TEST(PageStoreTest, ChunkBoundaryOracle) {
  for (const uint32_t page : {4096u, 1024u, 128u}) {
    SCOPED_TRACE(page);
    constexpr uint64_t kCapacity = 1ull << 30;
    constexpr uint64_t kWindow = 5 * 64 * 1024;  // many chunks, any page size
    // Away from zero, so the chunk table hashes non-trivial chunk numbers.
    const uint64_t base = kCapacity / 2 - 7 * 64 * 1024;
    const uint64_t hole = base + kWindow / 2 / page * page;  // never written
    PageStore store(kCapacity, page);
    // Bytes [base - 64 KiB, base + kWindow + 64 KiB); unwritten read as 0.
    std::vector<uint8_t> oracle(kWindow + 2 * 64 * 1024, 0);
    const uint64_t origin = base - 64 * 1024;
    std::set<uint64_t> pages;
    Rng rng(testutil::TestSeed(0xc4a7));
    auto check = [&](uint64_t offset, uint64_t length) {
      const auto got = store.Read(offset, length);
      ASSERT_EQ(got.size(), length);
      for (uint64_t i = 0; i < length; ++i) {
        ASSERT_EQ(got[i], oracle[offset - origin + i]) << "byte " << offset + i;
      }
    };
    // The hole's neighbors hold one byte each: the hole's chunk is resident.
    for (const uint64_t at : {hole - 1, hole + page}) {
      store.Write(at, {0x5a}, 1);
      oracle[at - origin] = 0x5a;
      pages.insert(at / page);
    }
    for (int op = 0; op < 300; ++op) {
      // Mostly partial-page writes, some spanning more than a chunk.
      const uint64_t length = 1 + rng.NextBounded(op % 8 == 0 ? 96 * 1024 : page);
      const uint64_t offset = base + rng.NextBounded(kWindow - length);
      std::vector<uint8_t> data(length);
      for (auto& b : data) b = static_cast<uint8_t>(1 + rng.NextBounded(255));
      // Every fifth write is torn: only a prefix of what it carries lands
      // (the crash model's `keep`), and nothing past the prefix is touched.
      const uint64_t keep = op % 5 == 0 ? 1 + rng.NextBounded(length) : length;
      if (offset < hole + page && hole < offset + keep) continue;
      store.Write(offset, data, keep);
      std::copy(data.begin(), data.begin() + static_cast<long>(keep),
                oracle.begin() + static_cast<long>(offset - origin));
      for (uint64_t p = offset / page; p <= (offset + keep - 1) / page; ++p) {
        pages.insert(p);
      }
      ASSERT_EQ(store.resident_pages(), pages.size());
      const uint64_t rlen = 1 + rng.NextBounded(2 * 64 * 1024);
      check(origin + rng.NextBounded(oracle.size() - rlen), rlen);
    }
    EXPECT_EQ(store.resident_bytes(), pages.size() * page);
    EXPECT_FALSE(pages.contains(hole / page));
    check(origin, oracle.size());
  }
}

TEST(MemBlockDeviceTest, CompletionIsAsynchronousButImmediate) {
  Simulator sim;
  MemBlockDevice dev(sim, 1 << 20);
  bool completed = false;
  IoRequest w;
  w.type = IoType::kWrite;
  w.offset = 0;
  w.data = {1, 2, 3};
  ASSERT_TRUE(dev.Submit(std::move(w), [&](IoResult r) {
                   EXPECT_TRUE(r.status.ok());
                   EXPECT_EQ(r.Latency(), 0);
                   completed = true;
                 })
                  .ok());
  // Not yet: completion is delivered through the event loop (program order
  // matters for the state machines even at zero latency).
  EXPECT_FALSE(completed);
  EXPECT_EQ(dev.inflight(), 1u);
  sim.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(dev.inflight(), 0u);
}

TEST(MemBlockDeviceTest, RejectsOutOfRange) {
  Simulator sim;
  MemBlockDevice dev(sim, 1024);
  IoRequest r;
  r.type = IoType::kRead;
  r.offset = 1000;
  r.length = 100;
  EXPECT_FALSE(dev.Submit(std::move(r), [](IoResult) { FAIL(); }).ok());
  EXPECT_EQ(dev.inflight(), 0u);
}

TEST(MemBlockDeviceTest, WriteThenReadSameEventLoopPass) {
  Simulator sim;
  MemBlockDevice dev(sim, 1 << 20);
  std::vector<uint8_t> got;
  IoRequest w;
  w.type = IoType::kWrite;
  w.offset = 512;
  w.data = testutil::TestValue(9, 64);
  dev.Submit(std::move(w), [&](IoResult) {
    IoRequest r;
    r.type = IoType::kRead;
    r.offset = 512;
    r.length = 64;
    dev.Submit(std::move(r), [&](IoResult res) { got = std::move(res.data); });
  });
  sim.Run();
  EXPECT_EQ(got, testutil::TestValue(9, 64));
}

}  // namespace
}  // namespace leed::sim
