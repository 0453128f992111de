// On-flash format of the LEED data store (paper §3.2.2, §3.2.3).
//
// Layout recap: a (virtual) node's key space is split into *segments*; a
// segment is a chain of up to M *buckets*; a bucket holds up to N key
// items plus metadata and is limited to the SSD block size. Buckets are
// appended whole to the circular *key log*; values (prefixed by their key,
// as in WiscKey's vLog, so that value-log compaction can verify liveness)
// are appended to the circular *value log*.
//
// Chain discipline: SegTbl points at the newest bucket of a segment's
// chain. A PUT appends a new copy of the head bucket (or a fresh bucket
// when the head is full) whose `prev_offset` links to the rest of the
// chain. Newest-first traversal means a GET takes the first match it sees,
// so stale versions need no eager invalidation — compaction collapses the
// chain, deduplicates (newest wins), drops tombstones, and rewrites the
// segment as one *contiguous array* of buckets ("the data structure of a
// segment is changed to an array of buckets when writing to the SSD"),
// after which a chain miss in the head bucket costs a single extra IO for
// the whole remainder.
//
// A key item's value location carries an SSD identifier — the one-field
// format extension (§3.6) that makes intra-JBOF data swapping possible.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace leed::store {

// A deletion is an item whose value_len is zero (paper §3.3: "updating the
// corresponding value length field to zero as a deletion marker").
struct KeyItem {
  std::string key;
  uint32_t value_len = 0;
  uint64_t value_offset = 0;  // logical offset into the value log
  uint8_t value_ssd = 0;      // SSD identifier of the value log (swap support)

  bool IsTombstone() const { return value_len == 0; }

  // On-flash footprint: key_len(2) + value_len(4) + value_offset(6) +
  // value_ssd(1) + key bytes.
  static constexpr uint32_t kFixedBytes = 2 + 4 + 6 + 1;
  uint32_t EncodedSize() const {
    return kFixedBytes + static_cast<uint32_t>(key.size());
  }
};

struct BucketHeader {
  uint32_t segment_id = 0;   // owning segment (for compaction liveness)
  uint32_t tag = 0;          // 4B bucket index: hash tag for fast matching
  uint8_t chain_len = 0;     // chain length *at and below* this bucket
  uint8_t position = 0;      // position of this bucket within the chain
  uint8_t contiguous = 0;    // 1 if the rest of the chain follows on-flash
  uint8_t value_ssd_hint = 0;
  uint64_t prev_offset = 0;  // key-log offset of the next-older bucket
  uint8_t prev_ssd = 0;      // SSD holding prev bucket (swap support)
  // Recovery fields (§3.2.3): snapshot of the key log head/tail at append
  // time; a scan after a crash can rebuild SegTbl from these.
  uint32_t log_head = 0;
  uint32_t log_tail = 0;
  uint16_t item_count = 0;
  // Which store wrote this bucket. Swap logs are shared between stores, so
  // a per-store recovery scan needs this to tell its own buckets from a
  // sibling's (both would otherwise pass the CRC and offset checks).
  uint8_t owner_store = 0;
  // CRC-32 over the full encoded bucket with this field zeroed. Rejects
  // torn appends during recovery by checksum instead of relying solely on
  // checkpointed tail pointers.
  uint32_t crc = 0;

  static constexpr uint32_t kEncodedSize =
      4 + 4 + 1 + 1 + 1 + 1 + 8 + 1 + 4 + 4 + 2 + 1 /*owner*/ + 4 /*crc*/;
};

// An in-memory bucket: header + items, serialized to exactly
// `bucket_size` bytes (zero-padded). Items are stored newest-first.
struct Bucket {
  BucketHeader header;
  std::vector<KeyItem> items;

  uint32_t PayloadBytes() const;
  bool Fits(uint32_t bucket_size, const KeyItem& extra) const;

  // Find newest item for key. Returns index or nullopt.
  std::optional<size_t> Find(std::string_view key) const;

  // Insert-or-replace within this bucket (newest wins; replaces in place if
  // the key already lives in this bucket, else prepends).
  // Returns false if the item would not fit.
  bool Upsert(uint32_t bucket_size, KeyItem item);

  // Would Upsert succeed? (No mutation — used to decide in-place update vs.
  // chain extension before any IO is issued.)
  bool CanUpsert(uint32_t bucket_size, const KeyItem& item) const;
};

// Serialize to exactly bucket_size bytes. Dies (Status) if oversized.
// Bucket, EncodeBucket and DecodeBucket are the reference codec: tests and
// microbenchmarks check the in-place encoder and views below against them;
// the store's own runtime paths never materialize a Bucket.
Result<std::vector<uint8_t>> EncodeBucket(const Bucket& bucket, uint32_t bucket_size);

// One key item where it lies in an encoded bucket: the fixed fields copied
// out, the key viewed in place. Fields may be edited (compaction moves
// values); the key must stay backed by the bucket bytes.
struct KeyItemView {
  std::string_view key;
  uint32_t value_len = 0;
  uint64_t value_offset = 0;
  uint8_t value_ssd = 0;

  bool IsTombstone() const { return value_len == 0; }
  uint32_t EncodedSize() const {
    return KeyItem::kFixedBytes + static_cast<uint32_t>(key.size());
  }
};

// A checked, non-owning view of one encoded bucket. Parse verifies the CRC
// and bounds-checks every key item where the bytes lie; lookups then read
// keys straight out of the buffer, so searching or merging buckets
// allocates nothing per item. DecodeBucket is Parse plus ToBucket. The
// viewed bytes must outlive the view.
class BucketView {
 public:
  BucketView() = default;

  // Same contract and statuses as DecodeBucket.
  static Result<BucketView> Parse(std::span<const uint8_t> data, size_t at,
                                  uint32_t bucket_size);
  // Parse for a caller that has already run VerifyBucketCrc on the same
  // bytes (the recovery scan counts CRC rejects on their own): the
  // structural checks alone, so each bucket is checksummed once.
  static Result<BucketView> ParseCrcChecked(std::span<const uint8_t> data,
                                            size_t at, uint32_t bucket_size);

  const BucketHeader& header() const { return header_; }
  uint16_t item_count() const { return header_.item_count; }

  // Newest item for key (Bucket::Find semantics), copied out.
  std::optional<KeyItem> Find(std::string_view key) const;

  // Bucket::CanUpsert: would `item` fit, replacing its key's version here
  // if there is one and prepending otherwise?
  bool CanUpsert(const KeyItemView& item, uint32_t bucket_size) const;
  // Writes this bucket with `item` upserted (Bucket::Upsert semantics)
  // under `header` into `out` (one bucket). Requires CanUpsert. The other
  // items are copied as encoded byte runs. Returns the bytes used, as
  // BucketEncoder::Finish does.
  size_t EncodeUpsert(const KeyItemView& item, const BucketHeader& header,
                      std::span<uint8_t> out) const;

  // Calls fn(const KeyItemView&) for every item, newest first.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    size_t pos = 0;
    for (uint16_t i = 0; i < header_.item_count; ++i) {
      const KeyItemView item = ItemAt(pos);
      pos += item.EncodedSize();
      fn(item);
    }
  }

  // Owning copy of the header and every item.
  Bucket ToBucket() const;

 private:
  // The newest item for a key, with its index and its byte range
  // [begin, end) within the item area.
  struct Located {
    KeyItemView item;
    uint16_t index = 0;
    size_t begin = 0;
    size_t end = 0;
  };
  std::optional<Located> Locate(std::string_view key) const;

  // The item starting at byte `pos` of the (already validated) item area.
  KeyItemView ItemAt(size_t pos) const;

  BucketHeader header_;
  std::span<const uint8_t> items_;  // validated for header_.item_count items
};

// Writes one bucket straight into its destination (typically a slice of
// the key-log append buffer): Add/AddEncoded append items newest first
// after the header slot, and Finish writes the header, zero-fills the rest
// and stores the CRC. The bytes equal EncodeBucket of the equivalent
// Bucket. Note that Bucket::Upsert *prepends*, so a Bucket filled by
// successive Upserts holds its items in reverse insertion order.
class BucketEncoder {
 public:
  // `out` is exactly one bucket (bucket_size bytes).
  explicit BucketEncoder(std::span<uint8_t> out);

  // Appends one item; false (and nothing written) if it does not fit.
  bool Add(const KeyItemView& item);
  // Appends `count` already-encoded items verbatim (a run of another
  // bucket's item area, cut on item boundaries).
  bool AddEncoded(std::span<const uint8_t> items, uint16_t count);

  // Writes `header` with item_count set to the items added and the CRC of
  // the finished bucket (over all of it, zero padding included). Returns
  // the bytes used: the header and the items; the rest of `out` is zeros.
  size_t Finish(const BucketHeader& header);

 private:
  std::span<uint8_t> out_;
  size_t pos_;
  uint16_t count_ = 0;
};

// Compaction's segment rewrite: packs items (newest first) into buckets
// first-fit in order and encodes them back to back, as the contiguous array
// that gets appended at key-log offset `base`. Each bucket carries
// `common`'s fields plus its own chain_len, position, contiguity and
// prev_offset (the next bucket of the array). Byte-equal to filling Buckets
// by successive Upserts, so each bucket holds its run of items reversed.
std::vector<uint8_t> EncodeContiguousChain(std::span<const KeyItemView> items,
                                           uint32_t bucket_size,
                                           const BucketHeader& common, uint64_t base);

// Newest-wins merge of a chain given newest bucket first: for each key the
// first version in chain order survives unless it is a tombstone; shadowed
// versions and tombstones are dropped. Survivors keep chain order, and
// their keys point into the buckets' bytes. The one merge behind key
// compaction, value-compaction liveness, swap merge-back, COPY and the
// range-index rebuild.
std::vector<KeyItemView> MergeNewestWins(std::span<const BucketView> chain);

// Parse one bucket from `data` at byte offset `at` (bucket_size bytes).
// Verifies the bucket CRC first; a mismatch (torn append, bit rot, or a
// never-written region) yields Status::Corruption("bucket crc mismatch").
Result<Bucket> DecodeBucket(std::span<const uint8_t> data, size_t at,
                            uint32_t bucket_size);

// CRC check alone, without parsing — lets the recovery scan count
// checksum rejects separately from structural decode failures. Checks the
// bytes in place; nothing is copied.
bool VerifyBucketCrc(std::span<const uint8_t> data, size_t at, uint32_t bucket_size);

// ---- value log entries ----------------------------------------------------

struct ValueEntry {
  uint32_t segment_id = 0;
  std::string key;
  std::vector<uint8_t> value;

  static constexpr uint32_t kHeaderBytes = 4 + 2 + 4;  // seg(4) klen(2) vlen(4)
  uint32_t EncodedSize() const {
    return kHeaderBytes + static_cast<uint32_t>(key.size() + value.size());
  }
};

// A parsed, non-owning view of one value-log entry; key, value and bytes
// point into the parsed buffer.
struct ValueEntryView {
  uint32_t segment_id = 0;
  std::string_view key;
  std::span<const uint8_t> value;
  std::span<const uint8_t> bytes;  // the whole encoded entry, verbatim
};

std::vector<uint8_t> EncodeValueEntry(uint32_t segment_id, std::string_view key,
                                      std::span<const uint8_t> value);
// The entry's header and key: every byte before a `value_len`-byte value.
// A PUT appends this head followed by its shared value buffer, so the value
// itself is never copied into the log.
std::vector<uint8_t> EncodeValueEntryHead(uint32_t segment_id, std::string_view key,
                                          uint32_t value_len);
Result<ValueEntryView> ParseValueEntry(std::span<const uint8_t> data, size_t at);

// Size of the value-log entry for a key/value pair — what a GET must read.
inline uint32_t ValueEntryBytes(uint32_t key_len, uint32_t value_len) {
  return ValueEntry::kHeaderBytes + key_len + value_len;
}

// ---- SCAN support ---------------------------------------------------------

// One entry of a scan snapshot: a (key, value-log location) pair captured
// atomically from the DRAM range index. The locations are immutable log
// offsets; the fetch phase reads them asynchronously and detects (via the
// log's pointer validation plus the key echo in the value entry) when
// compaction reclaimed a location under the snapshot.
struct ScanLoc {
  std::string key;
  uint8_t value_ssd = 0;
  uint64_t value_offset = 0;
  uint32_t value_len = 0;
};

// One fetched scan result item.
struct ScanItem {
  std::string key;
  std::vector<uint8_t> value;
};

}  // namespace leed::store
