#include <algorithm>
#include <cassert>
#include <numeric>

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
  // Checksum the bucket as written — crc slot zeroed — over a stack copy
  // of its first bytes with the slot cleared, then the rest in place. One
  // 64-byte prefix keeps both pieces long enough for the folding CRC.
  uint8_t prefix[64];
  const size_t n = std::min<size_t>(bucket_size, sizeof(prefix));
  leed::CopyBytes(prefix, b, n);
  leed::FillBytes(prefix + kBucketCrcPos, 0, sizeof(uint32_t));
  const uint32_t crc = leed::Crc32Extend(leed::Crc32(prefix, n), b + n, bucket_size - n);
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
  return ParseCrcChecked(data, at, bucket_size);
}

Result<BucketView> BucketView::ParseCrcChecked(std::span<const uint8_t> data,
                                               size_t at, uint32_t bucket_size) {
  if (at + bucket_size > data.size()) {
    return Status::Corruption("short bucket read");
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

KeyItemView BucketView::ItemAt(size_t pos) const {
  // Parse validated the item area, so the fields are read unchecked (in
  // the host byte order EncodeBucket writes them in).
  const uint8_t* p = items_.data() + pos;
  KeyItemView item;
  uint16_t klen = 0;
  leed::CopyBytes(&klen, p, sizeof(klen));
  leed::CopyBytes(&item.value_len, p + 2, sizeof(item.value_len));
  for (int i = 0; i < 6; ++i) item.value_offset |= static_cast<uint64_t>(p[6 + i]) << (8 * i);
  item.value_ssd = p[12];
  item.key = {reinterpret_cast<const char*>(p + KeyItem::kFixedBytes), klen};
  return item;
}

std::optional<BucketView::Located> BucketView::Locate(std::string_view key) const {
  size_t pos = 0;
  for (uint16_t i = 0; i < header_.item_count; ++i) {
    uint16_t klen = 0;
    leed::CopyBytes(&klen, items_.data() + pos, sizeof(klen));
    const size_t end = pos + KeyItem::kFixedBytes + klen;
    if (klen == key.size() &&
        AsChars(items_.subspan(pos + KeyItem::kFixedBytes, klen)) == key) {
      return Located{ItemAt(pos), i, pos, end};
    }
    pos = end;
  }
  return std::nullopt;
}

std::optional<KeyItem> BucketView::Find(std::string_view key) const {
  auto hit = Locate(key);
  if (!hit) return std::nullopt;
  KeyItem item;
  item.key.assign(hit->item.key);
  item.value_len = hit->item.value_len;
  item.value_offset = hit->item.value_offset;
  item.value_ssd = hit->item.value_ssd;
  return item;
}

bool BucketView::CanUpsert(const KeyItemView& item, uint32_t bucket_size) const {
  const auto old = Locate(item.key);
  const uint32_t payload =
      BucketHeader::kEncodedSize + static_cast<uint32_t>(items_.size());
  const uint32_t without = payload - (old ? old->item.EncodedSize() : 0u);
  return without + item.EncodedSize() <= bucket_size;
}

size_t BucketView::EncodeUpsert(const KeyItemView& item, const BucketHeader& header,
                                std::span<uint8_t> out) const {
  BucketEncoder enc(out);
  bool ok = false;
  if (const auto old = Locate(item.key)) {
    // Replace where it lies: the items before and after are copied whole.
    ok = enc.AddEncoded(items_.first(old->begin), old->index) && enc.Add(item) &&
         enc.AddEncoded(items_.subspan(old->end),
                        static_cast<uint16_t>(item_count() - old->index - 1));
  } else {
    ok = enc.Add(item) && enc.AddEncoded(items_, item_count());  // newest first
  }
  (void)ok;
  assert(ok && "EncodeUpsert requires CanUpsert");
  return enc.Finish(header);
}

Bucket BucketView::ToBucket() const {
  Bucket b;
  b.header = header_;
  b.items.reserve(header_.item_count);
  ForEachItem([&b](const KeyItemView& v) {
    KeyItem item;
    item.key.assign(v.key);
    item.value_len = v.value_len;
    item.value_offset = v.value_offset;
    item.value_ssd = v.value_ssd;
    b.items.push_back(std::move(item));
  });
  return b;
}

BucketEncoder::BucketEncoder(std::span<uint8_t> out)
    : out_(out), pos_(BucketHeader::kEncodedSize) {}

bool BucketEncoder::Add(const KeyItemView& item) {
  if (item.EncodedSize() > out_.size() - pos_) return false;
  uint8_t* p = out_.data() + pos_;
  const uint16_t klen = static_cast<uint16_t>(item.key.size());
  leed::CopyBytes(p, &klen, sizeof(klen));
  leed::CopyBytes(p + 2, &item.value_len, sizeof(item.value_len));
  for (int i = 0; i < 6; ++i) p[6 + i] = static_cast<uint8_t>(item.value_offset >> (8 * i));
  p[12] = item.value_ssd;
  leed::CopyBytes(p + KeyItem::kFixedBytes, item.key.data(), item.key.size());
  pos_ += item.EncodedSize();
  ++count_;
  return true;
}

bool BucketEncoder::AddEncoded(std::span<const uint8_t> items, uint16_t count) {
  if (items.size() > out_.size() - pos_) return false;
  leed::CopyBytes(out_.data() + pos_, items.data(), items.size());
  pos_ += items.size();
  count_ = static_cast<uint16_t>(count_ + count);
  return true;
}

size_t BucketEncoder::Finish(const BucketHeader& h) {
  leed::FillBytes(out_.data() + pos_, 0, out_.size() - pos_);
  size_t pos = 0;
  auto put = [this, &pos](const auto& v) {
    leed::CopyBytes(out_.data() + pos, &v, sizeof(v));
    pos += sizeof(v);
  };
  put(h.segment_id);
  put(h.tag);
  put(h.chain_len);
  put(h.position);
  put(h.contiguous);
  put(h.value_ssd_hint);
  put(h.prev_offset);
  put(h.prev_ssd);
  put(h.log_head);
  put(h.log_tail);
  put(count_);
  put(h.owner_store);
  put(uint32_t{0});  // crc slot: zero while checksumming
  const uint32_t crc = leed::Crc32(out_.data(), out_.size());
  leed::CopyBytes(out_.data() + kBucketCrcPos, &crc, sizeof(crc));
  return pos_;
}

std::vector<uint8_t> EncodeContiguousChain(std::span<const KeyItemView> items,
                                           uint32_t bucket_size,
                                           const BucketHeader& common, uint64_t base) {
  // First fit in order: starts[i] is the first item of bucket i.
  std::vector<size_t> starts{0};
  uint32_t used = BucketHeader::kEncodedSize;
  for (size_t i = 0; i < items.size(); ++i) {
    if (used + items[i].EncodedSize() > bucket_size) {
      starts.push_back(i);
      used = BucketHeader::kEncodedSize;
    }
    used += items[i].EncodedSize();
  }
  starts.push_back(items.size());
  const size_t n = starts.size() - 1;
  std::vector<uint8_t> blob(n * bucket_size);
  for (size_t i = 0; i < n; ++i) {
    BucketEncoder enc(std::span<uint8_t>(blob).subspan(i * bucket_size, bucket_size));
    for (size_t j = starts[i + 1]; j > starts[i]; --j) enc.Add(items[j - 1]);
    BucketHeader h = common;
    const bool more = i + 1 < n;
    h.chain_len = static_cast<uint8_t>(n - i);
    h.position = static_cast<uint8_t>(i);
    h.contiguous = more ? 1 : 0;
    h.prev_offset = more ? base + (i + 1) * static_cast<uint64_t>(bucket_size) : 0;
    enc.Finish(h);
  }
  return blob;
}

std::vector<KeyItemView> MergeNewestWins(std::span<const BucketView> chain) {
  size_t total = 0;
  for (const BucketView& b : chain) total += b.item_count();
  std::vector<KeyItemView> items;
  items.reserve(total);
  for (const BucketView& b : chain) {
    b.ForEachItem([&items](const KeyItemView& it) { items.push_back(it); });
  }
  // Sort positions by (key, chain position) — a stable sort by key — so
  // each key's run starts with its newest version.
  std::vector<uint32_t> order(items.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&items](uint32_t a, uint32_t b) {
    const int c = items[a].key.compare(items[b].key);
    return c != 0 ? c < 0 : a < b;
  });
  // Keep each key's newest version unless it is a tombstone, then close
  // the gaps so survivors stay in chain order.
  std::vector<bool> keep(items.size(), false);
  for (size_t i = 0; i < order.size();) {
    const KeyItemView& newest = items[order[i]];
    keep[order[i]] = !newest.IsTombstone();
    size_t j = i + 1;
    while (j < order.size() && items[order[j]].key == newest.key) ++j;
    i = j;
  }
  size_t out = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (keep[i]) items[out++] = items[i];
  }
  items.resize(out);
  return items;
}

Result<Bucket> DecodeBucket(std::span<const uint8_t> data, size_t at,
                            uint32_t bucket_size) {
  auto view = BucketView::Parse(data, at, bucket_size);
  if (!view.ok()) return view.status();
  return view.value().ToBucket();
}

namespace {

// Writes the entry head (header and key) at the start of `out`; returns
// its length.
size_t PutValueEntryHead(std::vector<uint8_t>& out, uint32_t segment_id,
                         std::string_view key, uint32_t value_len) {
  size_t pos = 0;
  PutScalar(out, pos, segment_id);
  PutScalar(out, pos, static_cast<uint16_t>(key.size()));
  PutScalar(out, pos, value_len);
  leed::CopyBytes(out.data() + pos, key.data(), key.size());
  return pos + key.size();
}

}  // namespace

std::vector<uint8_t> EncodeValueEntry(uint32_t segment_id, std::string_view key,
                                      std::span<const uint8_t> value) {
  std::vector<uint8_t> out(ValueEntry::kHeaderBytes + key.size() + value.size());
  const size_t pos =
      PutValueEntryHead(out, segment_id, key, static_cast<uint32_t>(value.size()));
  // Empty values (DEL tombstones) have a null data(); CopyBytes guards
  // the n == 0 case that raw memcpy declares nonnull.
  leed::CopyBytes(out.data() + pos, value.data(), value.size());
  return out;
}

std::vector<uint8_t> EncodeValueEntryHead(uint32_t segment_id, std::string_view key,
                                          uint32_t value_len) {
  std::vector<uint8_t> out(ValueEntry::kHeaderBytes + key.size());
  PutValueEntryHead(out, segment_id, key, value_len);
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
