// Edge-case tests for the functional block-device substrate: sparse page
// store semantics, zero-fill of never-written ranges, cross-page IOs,
// shared-tail and zero-padded writes kept as extents and discarded ranges
// (against a byte-level oracle, and under torn and crashed writes on both
// devices), discards under outstanding reads,
// and the MemBlockDevice's async completion ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rand.h"
#include "common/shared_bytes.h"

#include "sim/block_device.h"
#include "sim/fault.h"
#include "sim/ssd_model.h"
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

// A byte-level model of a PageStore window, for the oracle tests that mix
// plain, shared and padded writes with discards. Besides each byte's value
// it tracks which write last set the byte (0: a plain write, a discard, or
// never written) and which pages store bytes, so it predicts
// resident_pages() and extents() exactly:
//   * a plain write makes every page it touches store bytes;
//   * a shared write drops the bytes of each page it touches once shared
//     writes own the whole page;
//   * a padded write (data, then zeros) is a shared write up to the end of
//     the chunk holding its last data byte, and a discard past it;
//   * a discard zeroes its bytes and drops the pages it covers whole;
//   * the extents are the maximal runs, within one chunk, of bytes last
//     set by one shared write (a write split at chunk boundaries, trimmed
//     by later writes or discards, or split in two by one inside it).
class WindowOracle {
 public:
  WindowOracle(uint64_t origin, uint64_t size, uint32_t page, uint64_t chunk)
      : origin_(origin), page_(page), chunk_(chunk), bytes_(size, 0), owner_(size, 0) {}

  void Discard(uint64_t offset, uint64_t length) {
    for (uint64_t i = 0; i < length; ++i) {
      bytes_[offset - origin_ + i] = 0;
      owner_[offset - origin_ + i] = 0;
    }
    for (uint64_t p = (offset + page_ - 1) / page_; (p + 1) * page_ <= offset + length; ++p) {
      stored_.erase(p);
    }
  }

  // `keep` bytes of `data` followed by zeros land.
  void WritePadded(uint64_t offset, const std::vector<uint8_t>& data, uint64_t keep) {
    const uint64_t data_len = std::min<uint64_t>(data.size(), keep);
    uint64_t extent_end = offset;
    if (data_len > 0) {
      const uint64_t last = offset + data_len - 1;
      extent_end = std::min(offset + keep, (last / chunk_ + 1) * chunk_);
      std::vector<uint8_t> whole(extent_end - offset, 0);
      std::copy_n(data.begin(), data_len, whole.begin());
      WriteShared(offset, whole, whole.size());
    }
    if (extent_end < offset + keep) Discard(extent_end, offset + keep - extent_end);
  }

  void Write(uint64_t offset, const std::vector<uint8_t>& data, uint64_t keep) {
    for (uint64_t i = 0; i < keep; ++i) {
      bytes_[offset - origin_ + i] = data[i];
      owner_[offset - origin_ + i] = 0;
    }
    for (uint64_t p = offset / page_; p <= (offset + keep - 1) / page_; ++p) {
      stored_.insert(p);
    }
  }

  // `whole` is head ++ tail; `keep` of its bytes land.
  void WriteShared(uint64_t offset, const std::vector<uint8_t>& whole, uint64_t keep) {
    const uint32_t id = ++writes_;
    for (uint64_t i = 0; i < keep; ++i) {
      bytes_[offset - origin_ + i] = whole[i];
      owner_[offset - origin_ + i] = id;
    }
    for (uint64_t p = offset / page_; p <= (offset + keep - 1) / page_; ++p) {
      bool shadowed = true;
      // Bytes outside the window are never written, so never shadowed.
      for (uint64_t b = p * page_; b < (p + 1) * page_ && shadowed; ++b) {
        shadowed = b >= origin_ && b < end() && owner_[b - origin_] != 0;
      }
      if (shadowed) stored_.erase(p);
    }
  }

  uint8_t At(uint64_t offset) const { return bytes_[offset - origin_]; }
  uint64_t end() const { return origin_ + bytes_.size(); }
  uint64_t stored_pages() const { return stored_.size(); }
  bool stores(uint64_t page) const { return stored_.contains(page); }

  uint64_t extents() const {
    uint64_t n = 0;
    for (uint64_t i = 0; i < owner_.size(); ++i) {
      const bool chunk_start = (origin_ + i) % chunk_ == 0;
      if (owner_[i] != 0 && (i == 0 || chunk_start || owner_[i - 1] != owner_[i])) ++n;
    }
    return n;
  }

 private:
  uint64_t origin_;
  uint32_t page_;
  uint64_t chunk_;
  std::vector<uint8_t> bytes_;
  std::vector<uint32_t> owner_;
  std::set<uint64_t> stored_;
  uint32_t writes_ = 0;
};

void CheckAgainst(const PageStore& store, const WindowOracle& oracle,
                  uint64_t offset, uint64_t length) {
  const auto got = store.Read(offset, length);
  ASSERT_EQ(got.size(), length);
  for (uint64_t i = 0; i < length; ++i) {
    ASSERT_EQ(got[i], oracle.At(offset + i)) << "byte " << offset + i;
  }
}

// `data` as a shared write carries it: its first `head_len` bytes, and
// the rest as a shared tail.
std::pair<std::vector<uint8_t>, SharedBytes> SplitHead(const std::vector<uint8_t>& data,
                                                       uint64_t head_len) {
  const auto cut = data.begin() + static_cast<long>(head_len);
  return {std::vector<uint8_t>(data.begin(), cut),
          SharedBytes(std::vector<uint8_t>(cut, data.end()))};
}

std::vector<uint8_t> RandomBytes(Rng& rng, uint64_t n) {
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(1 + rng.NextBounded(255));
  return data;
}

// A padded write as a device persists it: `keep` bytes of a `length`-byte
// request that carries only `data` (the rest reads as zeros).
void PersistPadded(PageStore& store, WindowOracle& oracle, uint64_t offset,
                   const std::vector<uint8_t>& data, uint64_t length, uint64_t keep) {
  IoRequest request;
  request.type = IoType::kWrite;
  request.offset = offset;
  request.length = length;
  request.data = data;
  store.Persist(request, keep);
  if (data.size() >= keep) {
    oracle.Write(offset, data, keep);  // no zeros land: plain page bytes
  } else {
    oracle.WritePadded(offset, data, keep);
  }
}

// The same oracle, aimed at the chunk layout: a small window spanning a few
// chunks, so reads and writes straddle chunk boundaries and land on
// never-written pages inside written chunks (one page in the middle of the
// window is never written); first writes that cover only part of a page;
// and crash/torn writes that persist only a `keep` prefix of the data they
// carry. Half the writes are shared (WriteExtent: a head copied, a tail
// kept by reference), so extents cross chunks, overwrite page bytes and
// are overwritten by plain writes and by each other, and torn prefixes end
// inside the head or past it. One write in six is padded (a key-log
// bucket: data, then zeros to its length, with heads often longer than an
// extent holds inline), and one op in nine discards a range first. At the end a
// discard of the whole window leaves nothing stored. Page sizes give 4, 16
// and (capped by the 64-bit bitmap) 64 pages per chunk.
TEST(PageStoreTest, ChunkBoundaryOracle) {
  constexpr uint64_t kInline = PageStore::kInlineHead;
  for (const uint32_t page : {4096u, 1024u, 128u}) {
    SCOPED_TRACE(page);
    constexpr uint64_t kCapacity = 1ull << 30;
    constexpr uint64_t kChunk = 16 * 1024;
    constexpr uint64_t kWindow = 5 * 64 * 1024;  // many chunks, any page size
    // Away from zero, so the chunk table hashes non-trivial chunk numbers.
    const uint64_t base = kCapacity / 2 - 7 * 64 * 1024;
    const uint64_t hole = base + kWindow / 2 / page * page;  // never written
    PageStore store(kCapacity, page);
    // Bytes [base - 64 KiB, base + kWindow + 64 KiB); unwritten read as 0.
    const uint64_t origin = base - 64 * 1024;
    // PageStore's chunk: 16 KiB, but at most 64 pages.
    const uint64_t chunk = std::min<uint64_t>(kChunk / page, 64) * page;
    WindowOracle oracle(origin, kWindow + 2 * 64 * 1024, page, chunk);
    Rng rng(testutil::TestSeed(0xc4a7));
    // The hole's neighbors hold one byte each: the hole's chunk is resident.
    for (const uint64_t at : {hole - 1, hole + page}) {
      store.Write(at, {0x5a}, 1);
      oracle.Write(at, {0x5a}, 1);
    }
    uint64_t torn_in_head = 0, torn_in_tail = 0, padded = 0, discards = 0;
    uint64_t inline_heads = 0;
    for (int op = 0; op < 600; ++op) {
      if (op % 9 == 8) {
        const uint64_t dlen = 1 + rng.NextBounded(op % 4 == 0 ? 40 * 1024 : 2 * page);
        const uint64_t doff = base + rng.NextBounded(kWindow - dlen);
        store.Discard(doff, dlen);
        oracle.Discard(doff, dlen);
        ++discards;
      }
      // Mostly partial-page writes, some spanning more than a chunk.
      const uint64_t length = 1 + rng.NextBounded(op % 8 == 0 ? 96 * 1024 : page);
      const uint64_t offset = base + rng.NextBounded(kWindow - length);
      std::vector<uint8_t> data = RandomBytes(rng, length);
      // Every fifth write is torn: only a prefix of what it carries lands
      // (the crash model's `keep`), and nothing past the prefix is touched.
      uint64_t keep = op % 5 == 0 ? 1 + rng.NextBounded(length) : length;
      if (offset < hole + page && hole < offset + keep) continue;
      if (op % 6 == 2 && op % 12 == 8 && length > kInline + 16) {
        // A head of the inline limit -1, the limit or +1, every other one
        // split across a chunk boundary; then a discard, plain write or
        // shared write through it, which drops its front, splits it or
        // replaces it.
        data.resize(kInline - 1 + rng.NextBounded(3));
        uint64_t at = offset;
        if (op % 24 == 8) {
          const uint64_t boundary = (base + rng.NextBounded(kWindow - 2 * length)) / chunk * chunk;
          at = std::max(base + chunk, boundary) - 1 - rng.NextBounded(data.size() - 1);
        }
        if (at < hole + page && hole < at + length) continue;
        PersistPadded(store, oracle, at, data, length, length);
        const uint64_t from = at + rng.NextBounded(data.size());
        const uint64_t n = 1 + rng.NextBounded(at + data.size() + 8 - from);
        std::vector<uint8_t> over = RandomBytes(rng, n);
        switch (op / 12 % 3) {
          case 0:
            store.Discard(from, n);
            oracle.Discard(from, n);
            break;
          case 1:
            store.Write(from, over, n);
            oracle.Write(from, over, n);
            break;
          default: {
            auto [over_head, over_tail] = SplitHead(over, n / 2);
            store.WriteExtent(from, over_head, over_tail, n);
            oracle.WriteShared(from, over, n);
          }
        }
        ++inline_heads;
      } else if (op % 6 == 2) {
        // Up to 300 bytes of data (often more than an extent holds
        // inline), or none at all.
        data.resize(rng.NextBounded(std::min<uint64_t>(length, 300) + 1));
        PersistPadded(store, oracle, offset, data, length, keep);
        ++padded;
      } else if (op % 2 == 0) {
        store.Write(offset, data, keep);
        oracle.Write(offset, data, keep);
      } else {
        // A head of up to 64 bytes (a value entry's header and key), or
        // none at all; the rest is the shared tail.
        const uint64_t head_len = rng.NextBounded(std::min<uint64_t>(length, 64) + 1);
        auto [head, tail] = SplitHead(data, head_len);
        // Every other torn one is cut inside its head.
        if (keep < length && op % 20 == 15 && head_len > 0) keep = 1 + rng.NextBounded(head_len);
        if (keep < length) ++(keep <= head_len ? torn_in_head : torn_in_tail);
        store.WriteExtent(offset, head, tail, keep);
        oracle.WriteShared(offset, data, keep);
      }
      ASSERT_EQ(store.resident_pages(), oracle.stored_pages());
      if (op % 20 == 0) {
        ASSERT_EQ(store.extents(), oracle.extents());
      }
      const uint64_t rlen = 1 + rng.NextBounded(2 * 64 * 1024);
      CheckAgainst(store, oracle, origin + rng.NextBounded(oracle.end() - origin - rlen), rlen);
    }
    EXPECT_GT(torn_in_head, 0u);
    EXPECT_GT(torn_in_tail, 0u);
    EXPECT_GT(padded, 0u);
    EXPECT_GT(discards, 0u);
    EXPECT_GT(inline_heads, 0u);
    EXPECT_EQ(store.resident_bytes(), oracle.stored_pages() * page);
    EXPECT_EQ(store.extents(), oracle.extents());
    EXPECT_FALSE(oracle.stores(hole / page));
    CheckAgainst(store, oracle, origin, oracle.end() - origin);
    store.Discard(base, kWindow);
    oracle.Discard(base, kWindow);
    EXPECT_EQ(store.resident_pages(), 0u);
    EXPECT_EQ(store.extents(), 0u);
    CheckAgainst(store, oracle, origin, oracle.end() - origin);
  }
}

// A log's life on the store: entries appended back to back around a ring
// that is not chunk-aligned, wrapping several times, so every entry after
// the first lap overwrites older extents and page bytes. Most entries are
// shared (a PUT's value entry: head, then the client's value); one in
// eight is plain (a compaction re-append). An entry that would cross the
// ring's end is written as two halves, as CircularLog does: two copied
// halves, or two padded ones. Once a lap of shared entries has passed, the
// pages they cover store no bytes. Then one entry in four is padded (a
// key-log bucket: 512 bytes of which the first 40-200 are data, so its
// head is longer than an extent holds inline), and the log's head follows
// the tail half a ring behind and discards what it passes, as AdvanceHead
// does. At the end a discard of the live half leaves no extent.
TEST(PageStoreTest, LogWrapOracle) {
  constexpr uint32_t kPage = 4096;
  constexpr uint64_t kChunk = 16 * 1024;
  constexpr uint64_t kRing = 3 * kChunk + 1000;
  constexpr uint64_t kBucket = 512;
  const uint64_t base = 5 * kChunk + 300;
  PageStore store(1 << 24, kPage);
  WindowOracle oracle(base, kRing, kPage, kChunk);
  Rng rng(testutil::TestSeed(0x10a7));
  uint64_t head = 0;  // logical log offsets
  uint64_t tail = 0;
  enum class Kind { kShared, kPadded, kPlain };
  // `length` of a shared or plain entry (0: random), `head_len` of a padded
  // one (0: random).
  auto append = [&](Kind kind, uint64_t length = 0, uint64_t head_len = 0) {
    if (length == 0) length = kind == Kind::kPadded ? kBucket : 40 + rng.NextBounded(3000);
    if (head_len == 0) {
      head_len = kind == Kind::kPadded ? 40 + rng.NextBounded(161) : 10 + rng.NextBounded(30);
    }
    std::vector<uint8_t> data = RandomBytes(rng, kind == Kind::kPadded ? head_len : length);
    const uint64_t phys = base + tail % kRing;
    const uint64_t to_end = base + kRing - phys;
    tail += length;
    if (length > to_end) {
      const auto cut = data.begin() + static_cast<long>(std::min<uint64_t>(to_end, data.size()));
      const std::vector<uint8_t> first(data.begin(), cut);
      const std::vector<uint8_t> second(cut, data.end());
      if (kind == Kind::kPadded) {
        PersistPadded(store, oracle, phys, first, to_end, to_end);
        PersistPadded(store, oracle, base, second, length - to_end, length - to_end);
      } else {
        store.Write(phys, first, first.size());
        oracle.Write(phys, first, first.size());
        store.Write(base, second, second.size());
        oracle.Write(base, second, second.size());
      }
    } else if (kind == Kind::kShared) {
      auto [entry_head, value] = SplitHead(data, head_len);
      store.WriteExtent(phys, entry_head, value, length);
      oracle.WriteShared(phys, data, length);
    } else if (kind == Kind::kPadded) {
      PersistPadded(store, oracle, phys, data, length, length);
    } else {
      store.Write(phys, data, length);
      oracle.Write(phys, data, length);
    }
  };
  // Logical [from, to), split where it wraps the ring's end.
  auto discard = [&](uint64_t from, uint64_t to) {
    while (from < to) {
      const uint64_t phys = base + from % kRing;
      const uint64_t n = std::min(to - from, base + kRing - phys);
      store.Discard(phys, n);
      oracle.Discard(phys, n);
      from += n;
    }
  };
  for (int op = 0; tail < 6 * kRing; ++op) {
    append(op % 8 == 7 ? Kind::kPlain : Kind::kShared);
    ASSERT_EQ(store.resident_pages(), oracle.stored_pages());
    ASSERT_EQ(store.extents(), oracle.extents());
    const uint64_t rlen = 1 + rng.NextBounded(kRing);
    CheckAgainst(store, oracle, base + rng.NextBounded(kRing - rlen + 1), rlen);
  }
  // A lap of shared entries only: the pages they cover whole drop their
  // bytes; at most the pages holding the ring's wrap point keep theirs.
  const uint64_t lap_end = tail + kRing;
  while (tail < lap_end) append(Kind::kShared);
  EXPECT_EQ(store.resident_pages(), oracle.stored_pages());
  EXPECT_LE(store.resident_pages(), 2u);
  CheckAgainst(store, oracle, base, kRing);

  // The head half a ring behind the tail; the free half ahead of the tail
  // was discarded when the head last passed it.
  head = tail - kRing / 2;
  discard(tail, head + kRing);
  const uint64_t end = tail + 4 * kRing;
  uint64_t inline_heads = 0, split_inline_heads = 0, heads_cut_inside = 0;
  std::deque<uint64_t> inline_at;  // logical offsets of those buckets
  for (int op = 0; tail < end; ++op) {
    if (op % 4 == 1 && op % 8 != 7 && rng.NextBounded(2) == 0) {
      // A bucket whose head is at the inline limit -1, the limit or +1;
      // every other one placed across a chunk boundary by the entry
      // before it.
      const uint64_t head_len = PageStore::kInlineHead - 1 + rng.NextBounded(3);
      const uint64_t phys = base + tail % kRing;
      const uint64_t to_boundary = kChunk - phys % kChunk;
      const uint64_t pad = to_boundary - 1 - rng.NextBounded(head_len - 1);
      if (op % 8 == 1 && pad >= 40 && phys + pad < base + kRing) {
        append(Kind::kShared, pad);
        ++split_inline_heads;
      }
      inline_at.push_back(tail);
      append(Kind::kPadded, 0, head_len);
      ++inline_heads;
    } else {
      append(op % 8 == 7 ? Kind::kPlain : op % 4 == 1 ? Kind::kPadded : Kind::kShared);
    }
    if (tail - head > kRing / 2) {
      // The log's head stops inside every such bucket's head first.
      uint64_t to = tail - kRing / 2;
      if (!inline_at.empty() && inline_at.front() + PageStore::kInlineHead < to) {
        to = inline_at.front() + 1 + rng.NextBounded(PageStore::kInlineHead - 2);
        inline_at.pop_front();
        ++heads_cut_inside;
      }
      discard(head, to);
      head = to;
    }
    ASSERT_EQ(store.resident_pages(), oracle.stored_pages());
    ASSERT_EQ(store.extents(), oracle.extents());
    const uint64_t rlen = 1 + rng.NextBounded(kRing);
    CheckAgainst(store, oracle, base + rng.NextBounded(kRing - rlen + 1), rlen);
  }
  EXPECT_GT(inline_heads, 0u);
  EXPECT_GT(split_inline_heads, 0u);
  EXPECT_GT(heads_cut_inside, 0u);
  discard(head, tail);
  EXPECT_EQ(store.resident_pages(), oracle.stored_pages());
  EXPECT_EQ(store.extents(), 0u);
  CheckAgainst(store, oracle, base, kRing);
}

// A log's appends grow a chunk's extent array by doubling; the append
// that reaches the chunk's end leaves the array exactly its size, on the
// first lap and on the lap that overwrites it.
TEST(PageStoreTest, ChunkArrayIsExactOnceWrittenToItsEnd) {
  constexpr uint64_t kChunk = 16 * 1024;
  constexpr uint64_t kEnd = 3 * kChunk;
  PageStore store(1 << 24, 4096);
  Rng rng(testutil::TestSeed(0xe7ac));
  for (int lap = 0; lap < 2; ++lap) {
    SCOPED_TRACE(lap);
    bool spare = false;
    for (uint64_t at = 0; at < kEnd;) {
      const uint64_t length = std::min<uint64_t>(70 + rng.NextBounded(600), kEnd - at);
      // A one-item bucket's used prefix, padded; or a value entry.
      if (rng.NextBounded(2) == 0) {
        store.WriteExtent(at, RandomBytes(rng, 65), SharedBytes(), length);
      } else {
        auto [head, tail] = SplitHead(RandomBytes(rng, length), 20);
        store.WriteExtent(at, head, tail, length);
      }
      at += length;
      spare = spare || store.extent_capacity() > store.extents();
    }
    EXPECT_TRUE(spare);
    EXPECT_EQ(store.extent_capacity(), store.extents());
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

// A shared-tail write has no zero padding to fall back on: a length past
// data ++ tail is rejected up front on both devices, never read past the
// tail buffer.
TEST(SharedTailFaultTest, WriteLongerThanDataAndTailIsRejected) {
  Simulator sim;
  MemBlockDevice mem(sim, 1 << 20);
  SimSsd ssd(sim, Dct983Spec(), 1);
  for (BlockDevice* dev : {static_cast<BlockDevice*>(&mem), static_cast<BlockDevice*>(&ssd)}) {
    IoRequest w;
    w.type = IoType::kWrite;
    w.offset = 0;
    w.data = {1, 2};
    w.tail = SharedBytes(std::vector<uint8_t>{3, 4, 5});
    w.length = 6;
    EXPECT_EQ(dev->Submit(std::move(w), [](IoResult) { FAIL(); }).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(dev->inflight(), 0u);
  }
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

// A write with a shared tail that is torn, or cut short by a crash,
// persists exactly the prefix of head ++ tail the fault layer chose, and
// leaves every byte past it as it was, on both devices. The write crosses
// a chunk boundary; over the seeds the prefix ends inside the head and
// past it.
TEST(SharedTailFaultTest, TornOrCrashedWritePersistsExactlyItsPrefix) {
  constexpr uint64_t kOffset = 16 * 1024 - 100;
  constexpr uint64_t kHead = 200;
  constexpr uint64_t kLength = 500;
  for (const bool crash : {false, true}) {
    for (const bool ssd : {false, true}) {
      SCOPED_TRACE(std::string(crash ? "crash" : "torn") + (ssd ? " SimSsd" : " Mem"));
      uint64_t in_head = 0, past_head = 0;
      for (uint64_t seed = 1; seed <= 24; ++seed) {
        Simulator sim;
        std::unique_ptr<BlockDevice> dev;
        if (ssd) {
          dev = std::make_unique<SimSsd>(sim, Dct983Spec(), seed);
        } else {
          dev = std::make_unique<MemBlockDevice>(sim, 1 << 20);
        }
        FaultInjector injector(sim, seed);
        DeviceFaultSpec spec;
        if (crash) {
          spec.crash_at_io = 2;
        } else {
          spec.fail_write_at = 2;
          spec.torn_writes = true;
        }
        dev->set_faults(injector.AddDevice(spec, seed, 0, 0));
        // IO 1 lays down the old bytes, each unlike the new one there.
        const std::vector<uint8_t> fresh = testutil::TestValue(seed, kLength);
        std::vector<uint8_t> old = fresh;
        for (auto& b : old) b ^= 0xff;
        IoRequest fill;
        fill.type = IoType::kWrite;
        fill.offset = kOffset;
        fill.data = old;
        ASSERT_TRUE(dev->Submit(std::move(fill), [](IoResult r) {
                         ASSERT_TRUE(r.status.ok());
                       }).ok());
        sim.Run();
        // IO 2: the shared write the fault hits.
        IoRequest w;
        w.type = IoType::kWrite;
        w.offset = kOffset;
        w.data.assign(fresh.begin(), fresh.begin() + kHead);
        w.tail = SharedBytes(std::vector<uint8_t>(fresh.begin() + kHead, fresh.end()));
        bool completed = false;
        ASSERT_TRUE(dev->Submit(std::move(w), [&](IoResult r) {
                         completed = true;
                         EXPECT_FALSE(r.status.ok());
                       }).ok());
        sim.Run();
        EXPECT_EQ(completed, !crash);  // a crashed device never answers
        dev->set_faults(nullptr);
        std::vector<uint8_t> got;
        IoRequest r;
        r.type = IoType::kRead;
        r.offset = kOffset;
        r.length = kLength;
        ASSERT_TRUE(dev->Submit(std::move(r), [&](IoResult res) {
                         got = std::move(res.data);
                       }).ok());
        sim.Run();
        ASSERT_EQ(got.size(), kLength);
        uint64_t keep = 0;
        while (keep < kLength && got[keep] == fresh[keep]) ++keep;
        ASSERT_LT(keep, kLength) << "a torn write must not land whole";
        for (uint64_t i = keep; i < kLength; ++i) {
          ASSERT_EQ(got[i], old[i]) << "seed " << seed << " byte " << i;
        }
        ++(keep <= kHead ? in_head : past_head);
      }
      EXPECT_GT(in_head, 0u);
      EXPECT_GT(past_head, 0u);
    }
  }
}

// A simulated read takes its bytes when it completes. A discard of a range
// that queued and in-service reads still cover keeps those bytes, so each
// read returns what it would have without the discard; the rest of the
// range reads back as zeros.
TEST(SimSsdDiscardTest, OutstandingReadsReturnTheirBytes) {
  Simulator sim;
  SimSsd ssd(sim, Dct983Spec(), 3);
  constexpr uint64_t kBytes = 64 * 1024;
  const std::vector<uint8_t> old = testutil::TestValue(5, kBytes);
  IoRequest w;
  w.type = IoType::kWrite;
  w.offset = 0;
  w.data = old;
  ASSERT_TRUE(ssd.Submit(std::move(w), [](IoResult r) { ASSERT_TRUE(r.status.ok()); }).ok());
  sim.Run();
  // More reads than the DCT983's 20 read channels: some wait in the queue.
  constexpr uint64_t kReads = 30;
  constexpr uint64_t kReadBytes = 100;
  std::vector<std::vector<uint8_t>> got(kReads);
  for (uint64_t i = 0; i < kReads; ++i) {
    IoRequest r;
    r.type = IoType::kRead;
    r.offset = i * 2000;
    r.length = kReadBytes;
    ASSERT_TRUE(ssd.Submit(std::move(r), [&got, i](IoResult res) {
                     got[i] = std::move(res.data);
                   }).ok());
  }
  EXPECT_GT(ssd.read_queue_depth(), 0u);
  ssd.Discard(0, kBytes);
  sim.Run();
  for (uint64_t i = 0; i < kReads; ++i) {
    const auto from = old.begin() + static_cast<long>(i * 2000);
    EXPECT_EQ(got[i], std::vector<uint8_t>(from, from + kReadBytes)) << "read " << i;
  }
  std::vector<uint8_t> after;
  IoRequest r;
  r.type = IoType::kRead;
  r.offset = 0;
  r.length = kBytes;
  ASSERT_TRUE(ssd.Submit(std::move(r), [&](IoResult res) { after = std::move(res.data); }).ok());
  sim.Run();
  ASSERT_EQ(after.size(), kBytes);
  for (uint64_t b = 0; b < kBytes; ++b) {
    const bool kept = b % 2000 < kReadBytes && b / 2000 < kReads;
    ASSERT_EQ(after[b], kept ? old[b] : 0) << "byte " << b;
  }
}

// A crashed device hears no discard: after it revives, its bytes are
// there, on both devices.
TEST(SimSsdDiscardTest, CrashedDeviceIgnoresDiscard) {
  for (const bool ssd : {false, true}) {
    SCOPED_TRACE(ssd ? "SimSsd" : "Mem");
    Simulator sim;
    std::unique_ptr<BlockDevice> dev;
    if (ssd) {
      dev = std::make_unique<SimSsd>(sim, Dct983Spec(), 1);
    } else {
      dev = std::make_unique<MemBlockDevice>(sim, 1 << 20);
    }
    FaultInjector injector(sim, 1);
    DeviceFaults* faults = injector.AddDevice(DeviceFaultSpec{}, 1, 0, 0);
    dev->set_faults(faults);
    const std::vector<uint8_t> bytes = testutil::TestValue(8, 3000);
    IoRequest w;
    w.type = IoType::kWrite;
    w.offset = 4000;
    w.data = bytes;
    ASSERT_TRUE(dev->Submit(std::move(w), [](IoResult) {}).ok());
    sim.Run();
    faults->Crash();
    dev->Discard(4000, 3000);
    faults->Revive();
    std::vector<uint8_t> got;
    IoRequest r;
    r.type = IoType::kRead;
    r.offset = 4000;
    r.length = 3000;
    ASSERT_TRUE(dev->Submit(std::move(r), [&](IoResult res) { got = std::move(res.data); }).ok());
    sim.Run();
    EXPECT_EQ(got, bytes);
    dev->Discard(4000, 1000);
    got.clear();
    IoRequest again;
    again.type = IoType::kRead;
    again.offset = 4000;
    again.length = 1000;
    ASSERT_TRUE(dev->Submit(std::move(again), [&](IoResult res) { got = std::move(res.data); }).ok());
    sim.Run();
    EXPECT_EQ(got, std::vector<uint8_t>(1000, 0));
  }
}

}  // namespace
}  // namespace leed::sim
