#include <algorithm>

#include "common/bytes.h"
#include "common/crc32.h"

#include "store/format.h"

namespace leed::store {

namespace {

// Byte offset of the header's crc field within an encoded bucket; the CRC
// covers the full bucket_size buffer with these four bytes zeroed.
constexpr size_t kBucketCrcPos = BucketHeader::kEncodedSize - sizeof(uint32_t);

// Little-endian scalar write helpers over a byte buffer.
template <typename T>
void PutScalar(std::vector<uint8_t>& buf, size_t& pos, T v) {
  leed::CopyBytes(buf.data() + pos, &v, sizeof(T));
  pos += sizeof(T);
}

// value_offset is stored in 6 bytes (paper metadata budget); 48 bits cover
// 256 TB of logical log offsets.
void Put48(std::vector<uint8_t>& buf, size_t& pos, uint64_t v) {
  for (int i = 0; i < 6; ++i) buf[pos++] = static_cast<uint8_t>(v >> (8 * i));
}

// Bounds-checked little-endian cursor over encoded bytes, read in place.
class Reader {
 public:
  Reader(std::span<const uint8_t> bytes, size_t pos) : bytes_(bytes), pos_(pos) {}

  template <typename T>
  bool Get(T* v) {
    if (!Has(sizeof(T))) return false;
    leed::CopyBytes(v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool Get48(uint64_t* v) {
    if (!Has(6)) return false;
    *v = 0;
    for (int i = 0; i < 6; ++i) {
      *v |= static_cast<uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return true;
  }

  // The next n bytes as a view, or an empty optional past the end.
  std::optional<std::span<const uint8_t>> Take(size_t n) {
    if (!Has(n)) return std::nullopt;
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  bool Has(size_t n) const { return n <= bytes_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_;
};

std::string_view AsChars(std::span<const uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// Reads one key item; false if the item area ends inside it.
bool ReadItem(Reader& r, std::string_view* key, KeyItem* fields) {
  uint16_t klen = 0;
  if (!r.Get(&klen) || !r.Get(&fields->value_len) || !r.Get48(&fields->value_offset) ||
      !r.Get(&fields->value_ssd)) {
    return false;
  }
  auto bytes = r.Take(klen);
  if (!bytes) return false;
  *key = AsChars(*bytes);
  return true;
}

}  // namespace

uint32_t Bucket::PayloadBytes() const {
  uint32_t total = BucketHeader::kEncodedSize;
  for (const auto& it : items) total += it.EncodedSize();
  return total;
}

bool Bucket::Fits(uint32_t bucket_size, const KeyItem& extra) const {
  return PayloadBytes() + extra.EncodedSize() <= bucket_size;
}

std::optional<size_t> Bucket::Find(std::string_view key) const {
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].key == key) return i;
  }
  return std::nullopt;
}

bool Bucket::CanUpsert(uint32_t bucket_size, const KeyItem& item) const {
  if (auto idx = Find(item.key)) {
    uint32_t without = PayloadBytes() - items[*idx].EncodedSize();
    return without + item.EncodedSize() <= bucket_size;
  }
  return Fits(bucket_size, item);
}

bool Bucket::Upsert(uint32_t bucket_size, KeyItem item) {
  if (auto idx = Find(item.key)) {
    // Replacing in place: check the size delta fits.
    uint32_t without = PayloadBytes() - items[*idx].EncodedSize();
    if (without + item.EncodedSize() > bucket_size) return false;
    items[*idx] = std::move(item);
    return true;
  }
  if (!Fits(bucket_size, item)) return false;
  items.insert(items.begin(), std::move(item));  // newest first
  header.item_count = static_cast<uint16_t>(items.size());
  return true;
}

Result<std::vector<uint8_t>> EncodeBucket(const Bucket& bucket, uint32_t bucket_size) {
  if (bucket.PayloadBytes() > bucket_size) {
    return Status::InvalidArgument("bucket exceeds block size");
  }
  std::vector<uint8_t> out(bucket_size, 0);
  size_t pos = 0;
  const BucketHeader& h = bucket.header;
  PutScalar(out, pos, h.segment_id);
  PutScalar(out, pos, h.tag);
  PutScalar(out, pos, h.chain_len);
  PutScalar(out, pos, h.position);
  PutScalar(out, pos, h.contiguous);
  PutScalar(out, pos, h.value_ssd_hint);
  PutScalar(out, pos, h.prev_offset);
  PutScalar(out, pos, h.prev_ssd);
  PutScalar(out, pos, h.log_head);
  PutScalar(out, pos, h.log_tail);
  PutScalar(out, pos, static_cast<uint16_t>(bucket.items.size()));
  PutScalar(out, pos, h.owner_store);
  PutScalar(out, pos, static_cast<uint32_t>(0));  // crc, patched below

  for (const auto& it : bucket.items) {
    PutScalar(out, pos, static_cast<uint16_t>(it.key.size()));
    PutScalar(out, pos, it.value_len);
    Put48(out, pos, it.value_offset);
    PutScalar(out, pos, it.value_ssd);
    leed::CopyBytes(out.data() + pos, it.key.data(), it.key.size());
    pos += it.key.size();
  }
  // The crc slot is still zero, so checksumming the whole buffer here
  // matches what verifiers compute after zeroing the slot.
  uint32_t crc = leed::Crc32(out.data(), out.size());
  size_t crc_pos = kBucketCrcPos;
  PutScalar(out, crc_pos, crc);
  return out;
}

bool VerifyBucketCrc(std::span<const uint8_t> data, size_t at, uint32_t bucket_size) {
  if (at + bucket_size > data.size()) return false;
  if (bucket_size < BucketHeader::kEncodedSize) return false;
  const uint8_t* b = data.data() + at;
  uint32_t stored = 0;
  leed::CopyBytes(&stored, b + kBucketCrcPos, sizeof(stored));
  // Checksum the bucket as written — crc slot zeroed — by feeding four
  // zero bytes in place of the slot, instead of zeroing a copy.
  static constexpr uint8_t kZeroSlot[sizeof(uint32_t)] = {};
  constexpr size_t kAfterSlot = kBucketCrcPos + sizeof(uint32_t);
  uint32_t crc = leed::Crc32(b, kBucketCrcPos);
  crc = leed::Crc32Extend(crc, kZeroSlot, sizeof(kZeroSlot));
  crc = leed::Crc32Extend(crc, b + kAfterSlot, bucket_size - kAfterSlot);
  return crc == stored;
}

Result<BucketView> BucketView::Parse(std::span<const uint8_t> data, size_t at,
                                     uint32_t bucket_size) {
  if (at + bucket_size > data.size()) {
    return Status::Corruption("short bucket read");
  }
  if (!VerifyBucketCrc(data, at, bucket_size)) {
    return Status::Corruption("bucket crc mismatch");
  }
  const auto bytes = data.subspan(at, bucket_size);
  Reader r(bytes, 0);
  BucketView v;
  BucketHeader& h = v.header_;
  if (!r.Get(&h.segment_id) || !r.Get(&h.tag) || !r.Get(&h.chain_len) ||
      !r.Get(&h.position) || !r.Get(&h.contiguous) || !r.Get(&h.value_ssd_hint) ||
      !r.Get(&h.prev_offset) || !r.Get(&h.prev_ssd) || !r.Get(&h.log_head) ||
      !r.Get(&h.log_tail) || !r.Get(&h.item_count) || !r.Get(&h.owner_store) ||
      !r.Get(&h.crc)) {
    return Status::Corruption("truncated bucket header");
  }
  // Walk every item once so lookups can trust the item area.
  const size_t items_at = r.pos();
  for (uint16_t i = 0; i < h.item_count; ++i) {
    uint16_t klen = 0;
    if (!r.Get(&klen) || !r.Take(KeyItem::kFixedBytes - sizeof(klen))) {
      return Status::Corruption("truncated key item");
    }
    if (!r.Take(klen)) return Status::Corruption("truncated key bytes");
  }
  v.items_ = bytes.subspan(items_at, r.pos() - items_at);
  return v;
}

std::optional<KeyItem> BucketView::Find(std::string_view key) const {
  Reader r(items_, 0);
  for (uint16_t i = 0; i < header_.item_count; ++i) {
    std::string_view k;
    KeyItem item;
    if (!ReadItem(r, &k, &item)) break;
    if (k == key) {
      item.key.assign(k);
      return item;
    }
  }
  return std::nullopt;
}

Bucket BucketView::ToBucket() const {
  Bucket b;
  b.header = header_;
  b.items.reserve(header_.item_count);
  Reader r(items_, 0);
  for (uint16_t i = 0; i < header_.item_count; ++i) {
    std::string_view k;
    KeyItem item;
    if (!ReadItem(r, &k, &item)) break;
    item.key.assign(k);
    b.items.push_back(std::move(item));
  }
  return b;
}

Result<Bucket> DecodeBucket(std::span<const uint8_t> data, size_t at,
                            uint32_t bucket_size) {
  auto view = BucketView::Parse(data, at, bucket_size);
  if (!view.ok()) return view.status();
  return view.value().ToBucket();
}

std::vector<uint8_t> EncodeValueEntry(uint32_t segment_id, std::string_view key,
                                      std::span<const uint8_t> value) {
  std::vector<uint8_t> out(ValueEntry::kHeaderBytes + key.size() + value.size());
  size_t pos = 0;
  PutScalar(out, pos, segment_id);
  PutScalar(out, pos, static_cast<uint16_t>(key.size()));
  PutScalar(out, pos, static_cast<uint32_t>(value.size()));
  leed::CopyBytes(out.data() + pos, key.data(), key.size());
  pos += key.size();
  // Empty values (DEL tombstones) have a null data(); CopyBytes guards
  // the n == 0 case that raw memcpy declares nonnull.
  leed::CopyBytes(out.data() + pos, value.data(), value.size());
  return out;
}

Result<ValueEntryView> ParseValueEntry(std::span<const uint8_t> data, size_t at) {
  ValueEntryView e;
  uint16_t klen = 0;
  uint32_t vlen = 0;
  Reader r(data, std::min(at, data.size()));
  if (at > data.size() || !r.Get(&e.segment_id) || !r.Get(&klen) || !r.Get(&vlen)) {
    return Status::Corruption("truncated value entry header");
  }
  if (!r.Has(static_cast<size_t>(klen) + vlen)) {
    return Status::Corruption("truncated value entry body");
  }
  e.key = AsChars(*r.Take(klen));
  e.value = *r.Take(vlen);
  e.bytes = data.subspan(at, r.pos() - at);
  return e;
}

}  // namespace leed::store
