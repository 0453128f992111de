// Unit tests for the on-flash format (buckets, key items, value entries)
// and the SegTbl.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rand.h"
#include "store/format.h"
#include "store/segment_table.h"

namespace leed::store {
namespace {

KeyItem MakeItem(const std::string& key, uint32_t vlen, uint64_t voff,
                 uint8_t ssd = 0) {
  KeyItem it;
  it.key = key;
  it.value_len = vlen;
  it.value_offset = voff;
  it.value_ssd = ssd;
  return it;
}

// ---------------------------------------------------------------------------
// Bucket encode/decode
// ---------------------------------------------------------------------------

TEST(BucketFormatTest, RoundTripsHeaderAndItems) {
  Bucket b;
  b.header.segment_id = 77;
  b.header.tag = 0xdeadbeef;
  b.header.chain_len = 3;
  b.header.position = 1;
  b.header.contiguous = 1;
  b.header.prev_offset = 0x123456789aULL;
  b.header.prev_ssd = 2;
  b.header.log_head = 111;
  b.header.log_tail = 222;
  b.items.push_back(MakeItem("alpha", 100, 5000, 1));
  b.items.push_back(MakeItem("beta", 0, 0));  // tombstone
  b.header.item_count = 2;

  auto encoded = EncodeBucket(b, 512);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.value().size(), 512u);

  auto decoded = DecodeBucket(encoded.value(), 0, 512);
  ASSERT_TRUE(decoded.ok());
  const Bucket& d = decoded.value();
  EXPECT_EQ(d.header.segment_id, 77u);
  EXPECT_EQ(d.header.tag, 0xdeadbeefu);
  EXPECT_EQ(d.header.chain_len, 3);
  EXPECT_EQ(d.header.position, 1);
  EXPECT_EQ(d.header.contiguous, 1);
  EXPECT_EQ(d.header.prev_offset, 0x123456789aULL);
  EXPECT_EQ(d.header.prev_ssd, 2);
  EXPECT_EQ(d.header.log_head, 111u);
  EXPECT_EQ(d.header.log_tail, 222u);
  ASSERT_EQ(d.items.size(), 2u);
  EXPECT_EQ(d.items[0].key, "alpha");
  EXPECT_EQ(d.items[0].value_len, 100u);
  EXPECT_EQ(d.items[0].value_offset, 5000u);
  EXPECT_EQ(d.items[0].value_ssd, 1);
  EXPECT_TRUE(d.items[1].IsTombstone());
}

TEST(BucketFormatTest, ValueOffset48BitRoundTrip) {
  Bucket b;
  b.items.push_back(MakeItem("k", 1, (1ULL << 48) - 1));
  auto enc = EncodeBucket(b, 512);
  ASSERT_TRUE(enc.ok());
  auto dec = DecodeBucket(enc.value(), 0, 512);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().items[0].value_offset, (1ULL << 48) - 1);
}

TEST(BucketFormatTest, OversizedBucketRejected) {
  Bucket b;
  for (int i = 0; i < 100; ++i) {
    b.items.push_back(MakeItem("key-" + std::to_string(i), 10, i));
  }
  auto enc = EncodeBucket(b, 512);
  EXPECT_FALSE(enc.ok());
}

TEST(BucketFormatTest, ShortBufferIsCorruption) {
  std::vector<uint8_t> tiny(100, 0);
  EXPECT_FALSE(DecodeBucket(tiny, 0, 512).ok());
  std::vector<uint8_t> misaligned(1000, 0);
  EXPECT_FALSE(DecodeBucket(misaligned, 600, 512).ok());
}

TEST(BucketFormatTest, DecodeAtOffsetWithinArray) {
  Bucket b1, b2;
  b1.header.segment_id = 1;
  b1.items.push_back(MakeItem("one", 1, 10));
  b2.header.segment_id = 2;
  b2.items.push_back(MakeItem("two", 2, 20));
  auto e1 = EncodeBucket(b1, 256);
  auto e2 = EncodeBucket(b2, 256);
  ASSERT_TRUE(e1.ok() && e2.ok());
  std::vector<uint8_t> blob = e1.value();
  blob.insert(blob.end(), e2.value().begin(), e2.value().end());

  auto d2 = DecodeBucket(blob, 256, 256);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2.value().header.segment_id, 2u);
  EXPECT_EQ(d2.value().items[0].key, "two");
}

// Re-seals an edited encoding so it passes the CRC and reaches the parser.
void Reseal(std::vector<uint8_t>& bytes) {
  const size_t crc_pos = BucketHeader::kEncodedSize - sizeof(uint32_t);
  for (size_t i = 0; i < sizeof(uint32_t); ++i) bytes[crc_pos + i] = 0;
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  for (size_t i = 0; i < sizeof(uint32_t); ++i) {
    bytes[crc_pos + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

TEST(BucketViewTest, FindAgreesWithDecodedBucket) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Bucket b;
    b.header.segment_id = static_cast<uint32_t>(trial);
    const int n = 1 + static_cast<int>(rng.NextBounded(14));
    for (int i = 0; i < n; ++i) {
      b.Upsert(512, MakeItem("user" + std::to_string(rng.NextBounded(40)),
                             static_cast<uint32_t>(rng.NextBounded(3)) * 512,
                             rng.NextBounded(1ULL << 40),
                             static_cast<uint8_t>(rng.NextBounded(4))));
    }
    auto enc = EncodeBucket(b, 512);
    ASSERT_TRUE(enc.ok());
    auto view = BucketView::Parse(enc.value(), 0, 512);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().header().item_count, b.items.size());
    for (int k = 0; k < 40; ++k) {
      const std::string key = "user" + std::to_string(k);
      auto idx = b.Find(key);
      auto hit = view.value().Find(key);
      ASSERT_EQ(idx.has_value(), hit.has_value()) << key;
      if (!hit) continue;
      const KeyItem& want = b.items[*idx];
      EXPECT_EQ(hit->key, want.key);
      EXPECT_EQ(hit->value_len, want.value_len);
      EXPECT_EQ(hit->value_offset, want.value_offset);
      EXPECT_EQ(hit->value_ssd, want.value_ssd);
    }
  }
}

TEST(BucketViewTest, RejectsDamageWithDecodeStatuses) {
  Bucket b;
  b.items.push_back(MakeItem("alpha", 100, 5000));
  b.items.push_back(MakeItem("beta", 7, 9));
  auto enc = EncodeBucket(b, 128);
  ASSERT_TRUE(enc.ok());
  const size_t count_pos = BucketHeader::kEncodedSize - sizeof(uint32_t) - 1 - 2;

  auto expect_both = [](const std::vector<uint8_t>& bytes, const char* msg) {
    auto view = BucketView::Parse(bytes, 0, 128);
    auto dec = DecodeBucket(bytes, 0, 128);
    ASSERT_FALSE(view.ok());
    ASSERT_FALSE(dec.ok());
    EXPECT_EQ(view.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(view.status().message(), msg);
    EXPECT_EQ(dec.status().message(), msg);
  };

  std::vector<uint8_t> flipped = enc.value();
  flipped[60] ^= 0x10;
  expect_both(flipped, "bucket crc mismatch");
  EXPECT_TRUE(VerifyBucketCrc(enc.value(), 0, 128));
  EXPECT_FALSE(VerifyBucketCrc(flipped, 0, 128));

  // A sealed bucket claiming more items than its bytes hold: the zero
  // padding parses as empty keys until the item area runs out.
  std::vector<uint8_t> overcount = enc.value();
  overcount[count_pos] = 200;
  Reseal(overcount);
  expect_both(overcount, "truncated key item");

  // A sealed item whose key length runs past the bucket end.
  std::vector<uint8_t> longkey = enc.value();
  longkey[BucketHeader::kEncodedSize] = 0xff;
  Reseal(longkey);
  expect_both(longkey, "truncated key bytes");

  std::vector<uint8_t> tiny(100, 0);
  expect_both(tiny, "short bucket read");
}

// ---------------------------------------------------------------------------
// Bucket mutation helpers
// ---------------------------------------------------------------------------

TEST(BucketUpsertTest, InsertsNewestFirst) {
  Bucket b;
  EXPECT_TRUE(b.Upsert(512, MakeItem("a", 1, 1)));
  EXPECT_TRUE(b.Upsert(512, MakeItem("b", 2, 2)));
  ASSERT_EQ(b.items.size(), 2u);
  EXPECT_EQ(b.items[0].key, "b");  // newest first
  EXPECT_EQ(b.items[1].key, "a");
}

TEST(BucketUpsertTest, ReplacesInPlace) {
  Bucket b;
  EXPECT_TRUE(b.Upsert(512, MakeItem("a", 1, 1)));
  EXPECT_TRUE(b.Upsert(512, MakeItem("a", 9, 99)));
  ASSERT_EQ(b.items.size(), 1u);
  EXPECT_EQ(b.items[0].value_offset, 99u);
}

TEST(BucketUpsertTest, RespectsCapacity) {
  Bucket b;
  // Item size = 13 fixed + 8 key = 21 bytes; header 32. In 128 bytes:
  // (128-32)/21 = 4 items.
  int inserted = 0;
  while (b.Upsert(128, MakeItem("key-" + std::to_string(inserted) + "xx", 1,
                                inserted))) {
    ++inserted;
  }
  EXPECT_EQ(inserted, 4);
  EXPECT_TRUE(b.CanUpsert(128, MakeItem("key-0xx", 5, 5)));  // replace fits
  EXPECT_FALSE(b.CanUpsert(128, MakeItem("brand-new", 5, 5)));
}

TEST(BucketUpsertTest, FindReturnsNewest) {
  Bucket b;
  b.Upsert(512, MakeItem("x", 1, 1));
  auto idx = b.Find("x");
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(b.items[*idx].value_offset, 1u);
  EXPECT_FALSE(b.Find("missing").has_value());
}

// ---------------------------------------------------------------------------
// In-place encoder and view merge, checked against the reference codec
// ---------------------------------------------------------------------------

KeyItemView ViewOf(const KeyItem& it) {
  return {it.key, it.value_len, it.value_offset, it.value_ssd};
}

BucketHeader SampleHeader() {
  BucketHeader h;
  h.segment_id = 41;
  h.tag = 0x5eed;
  h.chain_len = 2;
  h.contiguous = 1;
  h.value_ssd_hint = 3;
  h.prev_offset = 0x1234500;
  h.prev_ssd = 1;
  h.log_head = 4096;
  h.log_tail = 81920;
  h.owner_store = 2;
  return h;
}

std::vector<uint8_t> Reference(const Bucket& b, uint32_t bucket_size) {
  auto enc = EncodeBucket(b, bucket_size);
  EXPECT_TRUE(enc.ok());
  return enc.value();
}

// A head bucket of six 16-byte keys (the YCSB key shape), as read.
Bucket SixItemHead() {
  Bucket b;
  b.header = SampleHeader();
  for (int i = 0; i < 6; ++i) {
    b.Upsert(512, MakeItem("user00000000010" + std::to_string(i), 256,
                           static_cast<uint64_t>(i) * 300, 1));
  }
  return b;
}

TEST(BucketEncoderTest, ReplaceInPlaceMatchesUpsert) {
  const Bucket head = SixItemHead();
  const auto bytes = Reference(head, 512);
  const BucketView view = BucketView::Parse(bytes, 0, 512).value();
  for (size_t k = 0; k < head.items.size(); ++k) {  // first, middle, last
    const KeyItem repl = MakeItem(head.items[k].key, 777, 0xabcdef0 + k, 3);
    Bucket want = head;
    ASSERT_TRUE(view.CanUpsert(ViewOf(repl), 512));
    ASSERT_TRUE(want.Upsert(512, repl));
    want.header.log_tail = 99999;
    std::vector<uint8_t> got(512, 0xee);  // every byte must be rewritten
    view.EncodeUpsert(ViewOf(repl), want.header, got);
    EXPECT_EQ(got, Reference(want, 512)) << "replaced item " << k;
  }
}

TEST(BucketEncoderTest, PrependMatchesUpsertUpToExactlyFull) {
  // 128 B buckets: 36 B header + 4 items of 13 + 10 B fill it exactly.
  Bucket head;
  head.header = SampleHeader();
  head.Upsert(128, MakeItem("key-aaaaaa", 10, 1));
  head.Upsert(128, MakeItem("key-bbbbbb", 20, 2));
  for (const char* key : {"key-cccccc", "key-dddddd"}) {
    const auto bytes = Reference(head, 128);
    const BucketView view = BucketView::Parse(bytes, 0, 128).value();
    const KeyItem add = MakeItem(key, 30, 3, 2);
    Bucket want = head;
    ASSERT_TRUE(view.CanUpsert(ViewOf(add), 128));
    ASSERT_TRUE(want.Upsert(128, add));
    std::vector<uint8_t> got(128, 0xee);
    view.EncodeUpsert(ViewOf(add), want.header, got);
    EXPECT_EQ(got, Reference(want, 128)) << key;
    head = want;
  }
  EXPECT_EQ(head.PayloadBytes(), 128u);
  const auto full = Reference(head, 128);
  const BucketView view = BucketView::Parse(full, 0, 128).value();
  EXPECT_FALSE(view.CanUpsert(ViewOf(MakeItem("key-eeeeee", 1, 1)), 128));
  EXPECT_TRUE(view.CanUpsert(ViewOf(MakeItem("key-aaaaaa", 1, 1)), 128));
}

TEST(BucketEncoderTest, NewChainHeadMatchesReference) {
  const KeyItem item = MakeItem("user000000000042", 1024, 0x7777777, 2);
  Bucket want;
  want.header = SampleHeader();
  ASSERT_TRUE(want.Upsert(512, item));
  std::vector<uint8_t> got(512, 0xee);
  BucketEncoder enc(got);
  ASSERT_TRUE(enc.Add(ViewOf(item)));
  enc.Finish(want.header);
  EXPECT_EQ(got, Reference(want, 512));
  EXPECT_TRUE(VerifyBucketCrc(got, 0, 512));
}

// Compaction's rewrite against Buckets packed by Upsert, first fit.
std::vector<uint8_t> ReferenceChain(const std::vector<KeyItem>& items,
                                    uint32_t bucket_size, const BucketHeader& common,
                                    uint64_t base) {
  std::vector<Bucket> buckets(1);
  for (const auto& item : items) {
    if (!buckets.back().Upsert(bucket_size, item)) {
      buckets.emplace_back();
      EXPECT_TRUE(buckets.back().Upsert(bucket_size, item));
    }
  }
  std::vector<uint8_t> blob;
  const size_t n = buckets.size();
  for (size_t i = 0; i < n; ++i) {
    BucketHeader& h = buckets[i].header;
    h = common;
    h.chain_len = static_cast<uint8_t>(n - i);
    h.position = static_cast<uint8_t>(i);
    h.contiguous = i + 1 < n ? 1 : 0;
    h.prev_offset = i + 1 < n ? base + (i + 1) * bucket_size : 0;
    const auto enc = Reference(buckets[i], bucket_size);
    blob.insert(blob.end(), enc.begin(), enc.end());
  }
  return blob;
}

TEST(BucketEncoderTest, ContiguousChainMatchesUpsertPacking) {
  const BucketHeader common = SampleHeader();
  // Four 23-byte items fill the first 128 B bucket exactly; the rest
  // spill into the next.
  std::vector<KeyItem> items;
  for (int i = 0; i < 4; ++i) items.push_back(MakeItem("exact-" + std::to_string(1000 + i), 5, i));
  items.push_back(MakeItem("spill-a", 7, 70, 1));
  items.push_back(MakeItem("spill-bbbbbbbbbbbb", 0, 0));
  std::vector<KeyItemView> views;
  for (const auto& it : items) views.push_back(ViewOf(it));
  auto got = EncodeContiguousChain(views, 128, common, 1 << 20);
  EXPECT_EQ(got.size(), 2u * 128);
  EXPECT_EQ(got, ReferenceChain(items, 128, common, 1 << 20));

  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    items.clear();
    views.clear();
    const int n = 1 + static_cast<int>(rng.NextBounded(120));
    for (int i = 0; i < n; ++i) {
      items.push_back(MakeItem(std::string(1 + rng.NextBounded(30), 'k') + std::to_string(i),
                               static_cast<uint32_t>(rng.NextBounded(4)) * 100,
                               rng.NextBounded(1ULL << 40),
                               static_cast<uint8_t>(rng.NextBounded(3))));
    }
    for (const auto& it : items) views.push_back(ViewOf(it));
    EXPECT_EQ(EncodeContiguousChain(views, 512, common, 4096 * trial),
              ReferenceChain(items, 512, common, 4096 * trial))
        << "trial " << trial;
  }
}

// The set-based merge the view merge replaced: the oracle.
std::vector<KeyItem> ReferenceMerge(const std::vector<Bucket>& chain) {
  std::vector<KeyItem> merged;
  std::set<std::string> seen;
  for (const auto& b : chain) {
    for (const auto& it : b.items) {
      if (!seen.insert(it.key).second || it.IsTombstone()) continue;
      merged.push_back(it);
    }
  }
  return merged;
}

// Encodes each bucket and parses views over the bytes (kept in `store`).
std::vector<BucketView> Views(const std::vector<Bucket>& chain,
                              std::vector<std::vector<uint8_t>>* store) {
  std::vector<BucketView> views;
  store->reserve(chain.size());
  for (const auto& b : chain) {
    store->push_back(Reference(b, 512));
    views.push_back(BucketView::Parse(store->back(), 0, 512).value());
  }
  return views;
}

TEST(MergeNewestWinsTest, NewestWinsAndTombstonesShadow) {
  std::vector<Bucket> chain(3);  // newest first
  chain[0].items = {MakeItem("a", 3, 300), MakeItem("c", 0, 0)};
  chain[1].items = {MakeItem("b", 2, 200), MakeItem("a", 2, 201), MakeItem("d", 1, 100)};
  chain[2].items = {MakeItem("c", 1, 101), MakeItem("a", 1, 102), MakeItem("e", 0, 0)};
  std::vector<std::vector<uint8_t>> bytes;
  const auto merged = MergeNewestWins(Views(chain, &bytes));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, "a");
  EXPECT_EQ(merged[0].value_offset, 300u);  // the newest version
  EXPECT_EQ(merged[1].key, "b");
  EXPECT_EQ(merged[2].key, "d");
  // "c" is shadowed by its newer tombstone, and "e" is one.
  // Keys point into the bucket bytes, not into copies.
  const auto* lo = bytes[0].data();
  EXPECT_TRUE(reinterpret_cast<const uint8_t*>(merged[0].key.data()) >= lo &&
              reinterpret_cast<const uint8_t*>(merged[0].key.data()) < lo + 512);
}

TEST(MergeNewestWinsTest, AgreesWithSetMergeOnRandomChains) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Bucket> chain(1 + rng.NextBounded(15));
    for (auto& b : chain) {
      const int n = static_cast<int>(rng.NextBounded(12));
      for (int i = 0; i < n; ++i) {
        b.Upsert(512, MakeItem("user" + std::to_string(rng.NextBounded(30)),
                               static_cast<uint32_t>(rng.NextBounded(3)) * 64,
                               rng.NextBounded(1ULL << 40)));
      }
    }
    std::vector<std::vector<uint8_t>> bytes;
    const auto got = MergeNewestWins(Views(chain, &bytes));
    const auto want = ReferenceMerge(chain);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key);
      EXPECT_EQ(got[i].value_len, want[i].value_len);
      EXPECT_EQ(got[i].value_offset, want[i].value_offset);
      EXPECT_EQ(got[i].value_ssd, want[i].value_ssd);
    }
  }
}

// ---------------------------------------------------------------------------
// Value entries
// ---------------------------------------------------------------------------

TEST(ValueEntryTest, RoundTrip) {
  ValueEntry e;
  e.segment_id = 42;
  e.key = "user123";
  e.value = {9, 8, 7, 6};
  auto bytes = EncodeValueEntry(e.segment_id, e.key, e.value);
  EXPECT_EQ(bytes.size(), e.EncodedSize());
  auto d = ParseValueEntry(bytes, 0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().segment_id, 42u);
  EXPECT_EQ(d.value().key, "user123");
  EXPECT_EQ(std::vector<uint8_t>(d.value().value.begin(), d.value().value.end()),
            (std::vector<uint8_t>{9, 8, 7, 6}));
}

TEST(ValueEntryTest, SequentialParse) {
  ValueEntry a, b;
  a.segment_id = 1;
  a.key = "k1";
  a.value = std::vector<uint8_t>(100, 1);
  b.segment_id = 2;
  b.key = "key-two";
  b.value = std::vector<uint8_t>(37, 2);
  auto blob = EncodeValueEntry(a.segment_id, a.key, a.value);
  auto bb = EncodeValueEntry(b.segment_id, b.key, b.value);
  blob.insert(blob.end(), bb.begin(), bb.end());

  auto d1 = ParseValueEntry(blob, 0);
  ASSERT_TRUE(d1.ok());
  auto d2 = ParseValueEntry(blob, d1.value().bytes.size());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2.value().key, "key-two");
  EXPECT_EQ(d2.value().value.size(), 37u);
}

TEST(ValueEntryTest, ViewPointsIntoTheEncodedBytes) {
  const std::vector<uint8_t> value = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> direct = EncodeValueEntry(9, "key-x", value);

  std::vector<uint8_t> blob(3, 0xee);  // leading bytes of another entry
  blob.insert(blob.end(), direct.begin(), direct.end());
  auto v = ParseValueEntry(blob, 3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().segment_id, 9u);
  EXPECT_EQ(v.value().key, "key-x");
  EXPECT_EQ(std::vector<uint8_t>(v.value().value.begin(), v.value().value.end()), value);
  EXPECT_EQ(v.value().bytes.data(), blob.data() + 3);
  EXPECT_EQ(std::vector<uint8_t>(v.value().bytes.begin(), v.value().bytes.end()), direct);
  EXPECT_FALSE(ParseValueEntry(blob, blob.size() + 1).ok());
}

TEST(ValueEntryTest, TruncatedIsCorruption) {
  ValueEntry e;
  e.key = "k";
  e.value = std::vector<uint8_t>(100, 3);
  auto bytes = EncodeValueEntry(e.segment_id, e.key, e.value);
  bytes.resize(bytes.size() - 10);
  EXPECT_FALSE(ParseValueEntry(bytes, 0).ok());
  std::vector<uint8_t> tiny(4, 0);
  EXPECT_FALSE(ParseValueEntry(tiny, 0).ok());
}

// ---------------------------------------------------------------------------
// SegmentTable
// ---------------------------------------------------------------------------

TEST(SegmentTableTest, LockBitBasics) {
  SegmentTable tbl(16);
  EXPECT_TRUE(tbl.TryLock(3));
  EXPECT_FALSE(tbl.TryLock(3));
  EXPECT_TRUE(tbl.IsLocked(3));
  int resumed = 0;
  tbl.Unlock(3, [&](std::function<void()> fn) {
    resumed++;
    fn();
  });
  EXPECT_FALSE(tbl.IsLocked(3));
  EXPECT_EQ(resumed, 0);  // no waiters
}

TEST(SegmentTableTest, WaitersResumeFifoOnePerUnlock) {
  SegmentTable tbl(4);
  ASSERT_TRUE(tbl.TryLock(1));
  std::vector<int> order;
  tbl.WaitOnLock(1, [&] { order.push_back(1); });
  tbl.WaitOnLock(1, [&] { order.push_back(2); });
  EXPECT_EQ(tbl.waiters(1), 2u);

  auto run_now = [](std::function<void()> fn) { fn(); };
  tbl.Unlock(1, run_now);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(tbl.waiters(1), 1u);
  ASSERT_TRUE(tbl.TryLock(1));
  tbl.Unlock(1, run_now);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SegmentTableTest, MaxChainFromBits) {
  SegmentTable tbl(4, 4);
  EXPECT_EQ(tbl.max_chain(), 15u);
  SegmentTable tbl3(4, 3);
  EXPECT_EQ(tbl3.max_chain(), 7u);
}

TEST(SegmentTableTest, PaperDramAccountingUnderHalfByte) {
  // Challenge C1: a Stingray-scale config must index 256B objects at well
  // under 0.5 B/object. 4KB buckets hold ~140 items; one entry per segment.
  constexpr uint64_t kObjects = 1'000'000;
  constexpr uint32_t kItemsPerBucket = 140;
  SegmentTable tbl(kObjects / kItemsPerBucket, 4);
  double bpo = tbl.PaperBytesPerObject(kObjects);
  EXPECT_LT(bpo, 0.1);
  EXPECT_GT(bpo, 0.0);
  // And FAWN's 6 B/object is two orders of magnitude worse.
  EXPECT_LT(bpo * 60, 6.0);
}

TEST(SegmentTableTest, EmptyEntryDetection) {
  SegmentTable tbl(2);
  EXPECT_TRUE(tbl.At(0).Empty());
  tbl.At(0).chain_len = 1;
  EXPECT_FALSE(tbl.At(0).Empty());
}

}  // namespace
}  // namespace leed::store
