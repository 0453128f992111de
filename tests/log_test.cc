// Unit tests for the circular log (paper §3.2.1): append/read/compact
// pointer discipline, wraparound behaviour, space accounting, zero-padded
// appends, and the device discards that head advances issue.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "log/circular_log.h"
#include "sim/block_device.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace leed::log {
namespace {

class CircularLogTest : public ::testing::Test {
 protected:
  CircularLogTest() : device_(sim_, 1 << 20, 512) {}

  AppendResult SyncAppend(CircularLog& log, std::vector<uint8_t> data) {
    AppendResult out;
    bool done = false;
    log.Append(std::move(data), [&](AppendResult r) {
      out = std::move(r);
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    EXPECT_TRUE(done);
    return out;
  }

  ReadResult SyncRead(CircularLog& log, uint64_t offset, uint64_t length) {
    ReadResult out;
    bool done = false;
    log.Read(offset, length, [&](ReadResult r) {
      out = std::move(r);
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    EXPECT_TRUE(done);
    return out;
  }

  // The device's bytes at physical [offset, offset + length).
  std::vector<uint8_t> DeviceBytes(uint64_t offset, uint64_t length) {
    std::vector<uint8_t> out;
    sim::IoRequest r;
    r.type = sim::IoType::kRead;
    r.offset = offset;
    r.length = length;
    EXPECT_TRUE(device_.Submit(std::move(r), [&](sim::IoResult res) {
                       out = std::move(res.data);
                     }).ok());
    sim_.Run();
    return out;
  }

  sim::Simulator sim_;
  sim::MemBlockDevice device_;
};

// Forwards to another device and records every discard it is asked for.
class DiscardRecorder : public sim::BlockDevice {
 public:
  explicit DiscardRecorder(sim::BlockDevice& inner) : inner_(inner) {}

  Status Submit(sim::IoRequest request, sim::IoCallback callback) override {
    return inner_.Submit(std::move(request), std::move(callback));
  }
  uint64_t capacity_bytes() const override { return inner_.capacity_bytes(); }
  uint32_t block_size() const override { return inner_.block_size(); }
  uint32_t inflight() const override { return inner_.inflight(); }
  void Discard(uint64_t offset, uint64_t length) override {
    discards.emplace_back(offset, length);
    inner_.Discard(offset, length);
  }

  std::vector<std::pair<uint64_t, uint64_t>> discards;  // (offset, length)

 private:
  sim::BlockDevice& inner_;
};

TEST_F(CircularLogTest, AppendAssignsMonotonicOffsets) {
  CircularLog log(device_, 0, 4096);
  auto a = SyncAppend(log, testutil::TestValue(1, 100));
  auto b = SyncAppend(log, testutil::TestValue(2, 50));
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(b.offset, 100u);
  EXPECT_EQ(log.tail(), 150u);
  EXPECT_EQ(log.used(), 150u);
}

TEST_F(CircularLogTest, ReadReturnsExactBytes) {
  CircularLog log(device_, 0, 4096);
  auto payload = testutil::TestValue(9, 333);
  auto a = SyncAppend(log, payload);
  ASSERT_TRUE(a.status.ok());
  auto r = SyncRead(log, a.offset, payload.size());
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, payload);
}

TEST_F(CircularLogTest, RejectsBadAppends) {
  CircularLog log(device_, 0, 1024);
  auto empty = SyncAppend(log, {});
  EXPECT_EQ(empty.status.code(), StatusCode::kInvalidArgument);
  auto oversized = SyncAppend(log, testutil::TestValue(1, 2048));
  EXPECT_EQ(oversized.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CircularLogTest, FullLogRejectsUntilHeadAdvances) {
  CircularLog log(device_, 0, 1000);
  ASSERT_TRUE(SyncAppend(log, testutil::TestValue(1, 600)).status.ok());
  ASSERT_TRUE(SyncAppend(log, testutil::TestValue(2, 400)).status.ok());
  EXPECT_EQ(log.free_space(), 0u);
  auto full = SyncAppend(log, testutil::TestValue(3, 1));
  EXPECT_EQ(full.status.code(), StatusCode::kOutOfSpace);

  ASSERT_TRUE(log.AdvanceHead(600).ok());
  EXPECT_EQ(log.free_space(), 600u);
  EXPECT_TRUE(SyncAppend(log, testutil::TestValue(4, 500)).status.ok());
}

TEST_F(CircularLogTest, WrappingEntryRoundTrips) {
  CircularLog log(device_, 0, 1000);
  ASSERT_TRUE(SyncAppend(log, testutil::TestValue(1, 900)).status.ok());
  ASSERT_TRUE(log.AdvanceHead(900).ok());
  // This entry starts at physical 900 and wraps to the region start.
  auto payload = testutil::TestValue(2, 300);
  auto a = SyncAppend(log, payload);
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(a.offset, 900u);
  auto r = SyncRead(log, 900, 300);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, payload);
}

TEST_F(CircularLogTest, ManyWrapsPreserveData) {
  CircularLog log(device_, 4096, 1024);  // non-zero base exercises mapping
  uint64_t head = 0;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> window;
  for (int i = 0; i < 200; ++i) {
    auto payload = testutil::TestValue(i, 100 + (i % 37));
    if (log.free_space() < payload.size()) {
      // Reclaim the oldest two entries.
      head = window[2].first;
      ASSERT_TRUE(log.AdvanceHead(head).ok());
      window.erase(window.begin(), window.begin() + 2);
    }
    auto a = SyncAppend(log, payload);
    ASSERT_TRUE(a.status.ok());
    window.emplace_back(a.offset, payload);
  }
  for (auto& [offset, payload] : window) {
    auto r = SyncRead(log, offset, payload.size());
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.data, payload) << "offset " << offset;
  }
}

TEST_F(CircularLogTest, ReadOutsideValidRangeFails) {
  CircularLog log(device_, 0, 4096);
  ASSERT_TRUE(SyncAppend(log, testutil::TestValue(1, 100)).status.ok());
  ASSERT_TRUE(SyncAppend(log, testutil::TestValue(2, 100)).status.ok());
  ASSERT_TRUE(log.AdvanceHead(100).ok());
  // Reclaimed prefix.
  EXPECT_FALSE(SyncRead(log, 0, 100).status.ok());
  // Beyond the tail.
  EXPECT_FALSE(SyncRead(log, 150, 100).status.ok());
  // Valid region still works.
  EXPECT_TRUE(SyncRead(log, 100, 100).status.ok());
}

TEST_F(CircularLogTest, AdvanceHeadValidatesRange) {
  CircularLog log(device_, 0, 4096);
  ASSERT_TRUE(SyncAppend(log, testutil::TestValue(1, 100)).status.ok());
  EXPECT_FALSE(log.AdvanceHead(200).ok());  // beyond tail
  ASSERT_TRUE(log.AdvanceHead(50).ok());
  EXPECT_FALSE(log.AdvanceHead(20).ok());  // backwards
}

TEST_F(CircularLogTest, CompactionNeededThreshold) {
  CircularLog log(device_, 0, 1000);
  EXPECT_FALSE(log.CompactionNeeded(0.5));
  ASSERT_TRUE(SyncAppend(log, testutil::TestValue(1, 600)).status.ok());
  EXPECT_TRUE(log.CompactionNeeded(0.5));
  EXPECT_FALSE(log.CompactionNeeded(0.7));
}

TEST_F(CircularLogTest, ResetDiscardsContents) {
  CircularLog log(device_, 0, 1000);
  ASSERT_TRUE(SyncAppend(log, testutil::TestValue(1, 500)).status.ok());
  log.Reset();
  EXPECT_EQ(log.used(), 0u);
  EXPECT_EQ(log.free_space(), 1000u);
  // Stale offsets now fail loudly instead of returning recycled bytes.
  EXPECT_FALSE(SyncRead(log, 0, 100).status.ok());
}

// AdvanceHead and Reset discard exactly the physical range they reclaim,
// [old head, new head), in two pieces where it wraps the region's end;
// the range then reads as zeros and the live entries as written.
TEST_F(CircularLogTest, AdvanceHeadAndResetDiscardTheReclaimedRange) {
  using Ranges = std::vector<std::pair<uint64_t, uint64_t>>;
  DiscardRecorder dev(device_);
  CircularLog log(dev, 1000, 4096);  // physical [1000, 5096)
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(SyncAppend(log, testutil::TestValue(i, 1000)).status.ok());
  }
  ASSERT_TRUE(log.AdvanceHead(1200).ok());
  EXPECT_EQ(dev.discards, (Ranges{{1000, 1200}}));
  EXPECT_EQ(DeviceBytes(1000, 1200), std::vector<uint8_t>(1200, 0));
  // No range, or a rejected advance: nothing to discard.
  ASSERT_TRUE(log.AdvanceHead(1200).ok());
  EXPECT_FALSE(log.AdvanceHead(9000).ok());
  EXPECT_EQ(dev.discards.size(), 1u);

  // An entry across the region's end, then an advance across it too.
  const auto wrapping = testutil::TestValue(7, 2000);
  ASSERT_TRUE(SyncAppend(log, wrapping).status.ok());  // logical [3000, 5000)
  ASSERT_TRUE(log.AdvanceHead(4500).ok());
  EXPECT_EQ(dev.discards, (Ranges{{1000, 1200}, {2200, 2896}, {1000, 404}}));
  EXPECT_EQ(DeviceBytes(2200, 2896), std::vector<uint8_t>(2896, 0));
  EXPECT_EQ(DeviceBytes(1000, 404), std::vector<uint8_t>(404, 0));
  auto live = SyncRead(log, 4500, 500);
  ASSERT_TRUE(live.status.ok());
  EXPECT_EQ(live.data, std::vector<uint8_t>(wrapping.begin() + 1500, wrapping.end()));

  log.Reset();
  EXPECT_EQ(dev.discards.back(), (std::pair<uint64_t, uint64_t>{1404, 500}));
  EXPECT_EQ(dev.discards.size(), 4u);
  EXPECT_EQ(DeviceBytes(1404, 500), std::vector<uint8_t>(500, 0));
  log.Reset();  // empty: nothing more
  EXPECT_EQ(dev.discards.size(), 4u);
}

// A padded append (a key-log bucket's used prefix) takes its full length
// in the log and reads back as its data followed by zeros, also when it
// wraps the region's end and each half carries its part of the data.
TEST_F(CircularLogTest, PaddedAppendReadsBackZeroPadded) {
  CircularLog log(device_, 0, 1000);
  // 600-byte entries at logical 0, 600, 1200 and 1800: the second wraps
  // with all its data before the region's end, the fourth with its data
  // across it.
  for (const uint64_t data_len : {100, 300, 50, 450}) {
    auto data = testutil::TestValue(static_cast<uint32_t>(data_len), data_len);
    const uint64_t at = log.tail();
    AppendResult a;
    bool done = false;
    log.Append(data, 600, [&](AppendResult r) {
      a = std::move(r);
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    ASSERT_TRUE(a.status.ok());
    EXPECT_EQ(a.offset, at);
    EXPECT_EQ(log.tail(), at + 600);
    auto r = SyncRead(log, at, 600);
    ASSERT_TRUE(r.status.ok());
    data.resize(600, 0);
    EXPECT_EQ(r.data, data) << "data " << data_len;
    ASSERT_TRUE(log.AdvanceHead(log.tail()).ok());
  }
}

TEST_F(CircularLogTest, CountsOps) {
  CircularLog log(device_, 0, 4096);
  SyncAppend(log, testutil::TestValue(1, 10));
  SyncAppend(log, testutil::TestValue(2, 10));
  SyncRead(log, 0, 10);
  EXPECT_EQ(log.appends(), 2u);
  EXPECT_EQ(log.reads(), 1u);
}

}  // namespace
}  // namespace leed::log
