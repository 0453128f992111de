#include "sim/block_device.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include "common/bytes.h"
#include "sim/fault.h"

namespace leed::sim {

PageStore::PageStore(uint64_t capacity_bytes, uint32_t page_size)
    : capacity_(capacity_bytes),
      page_size_(page_size),
      chunk_pages_(static_cast<uint32_t>(
          std::clamp<uint64_t>(kChunkBytes / page_size, 1, 64))),
      chunk_bytes_(uint64_t{chunk_pages_} * page_size) {}

Status PageStore::CheckRange(uint64_t offset, uint64_t length) const {
  if (length == 0) return Status::InvalidArgument("zero-length IO");
  if (offset + length < offset || offset + length > capacity_) {
    return Status::InvalidArgument("IO beyond device capacity");
  }
  return Status::Ok();
}

Status PageStore::CheckRequest(const IoRequest& request, uint64_t length) const {
  LEED_RETURN_IF_ERROR(CheckRange(request.offset, length));
  if (request.type == IoType::kWrite && request.tail.size() > 0 &&
      length > request.data.size() + request.tail.size()) {
    return Status::InvalidArgument("shared-tail write longer than its bytes");
  }
  return Status::Ok();
}

const PageStore::Slot* PageStore::Find(uint64_t chunk_no) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(chunk_no);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.chunk_no == kNoChunk) return nullptr;
    if (s.chunk_no == chunk_no) return &s;
  }
}

PageStore::Slot& PageStore::FindOrInsert(uint64_t chunk_no) {
  if (2 * (chunks_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(chunk_no);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.chunk_no == kNoChunk) {
      s.chunk_no = chunk_no;
      ++chunks_;
      return s;
    }
    if (s.chunk_no == chunk_no) return s;
  }
}

void PageStore::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_ = std::vector<Slot>(old.empty() ? 16 : 2 * old.size());
  shift_ = static_cast<uint32_t>(64 - std::countr_zero(slots_.size()));
  const size_t mask = slots_.size() - 1;
  for (Slot& s : old) {
    if (s.chunk_no == kNoChunk) continue;
    size_t i = Home(s.chunk_no);
    while (slots_[i].chunk_no != kNoChunk) i = (i + 1) & mask;
    slots_[i] = std::move(s);
  }
}

void PageStore::Extent::SetHead(std::span<const uint8_t> bytes) {
  head_len = static_cast<uint32_t>(bytes.size());
  if (head_len > kInlineHead) {
    head_bytes.emplace<std::vector<uint8_t>>(bytes.begin(), bytes.end());
  } else {
    leed::CopyBytes(head_bytes.emplace<InlineHead>().data(), bytes.data(), bytes.size());
  }
}

void PageStore::Extent::SetHead(std::vector<uint8_t>&& bytes) {
  if (bytes.size() > kInlineHead) {
    head_len = static_cast<uint32_t>(bytes.size());
    head_bytes = std::move(bytes);
  } else {
    SetHead(std::span<const uint8_t>(bytes));
  }
}

void PageStore::Extent::AppendTo(uint32_t from, uint32_t to,
                                 std::vector<uint8_t>& out) const {
  uint64_t src = pos + (from - begin);
  const uint64_t src_end = src + (to - from);
  if (src < head_len) {
    const uint64_t h = std::min<uint64_t>(src_end, head_len);
    out.insert(out.end(), head() + src, head() + h);
    src = h;
  }
  if (src >= src_end) return;
  if (tail_data != nullptr) {
    out.insert(out.end(), tail_data + (src - head_len), tail_data + (src_end - head_len));
  } else {
    out.resize(out.size() + (src_end - src), 0);
  }
}

void PageStore::Extent::DropFront(uint32_t at) {
  pos += at - begin;
  begin = at;
  if (head_len > 0 && pos >= head_len) {
    pos -= head_len;
    head_len = 0;
    head_bytes.emplace<InlineHead>();
  }
}

PageStore::Extent PageStore::Extent::Suffix(uint32_t at) const {
  Extent x;
  x.begin = at;
  x.end = end;
  x.pos = pos + (at - begin);
  x.tail = tail;
  x.tail_data = tail_data;
  if (x.pos < head_len) {
    x.SetHead({head() + x.pos, head_len - x.pos});  // the rest of the head
    x.pos = 0;
  } else {
    x.pos -= head_len;
  }
  return x;
}

void PageStore::CutExtents(Slot& slot, uint32_t begin, uint32_t end, Extent* fill) {
  std::vector<Extent>& xs = slot.extents;
  const auto by_end = [begin](const Extent& x) { return x.end <= begin; };
  size_t first = std::partition_point(xs.begin(), xs.end(), by_end) - xs.begin();
  size_t last = first;
  while (last < xs.size() && xs[last].begin < end) ++last;
  if (last - first == 1 && xs[first].begin < begin && xs[first].end > end) {
    // The range lies inside one extent: keep both sides of it.
    Extent right = xs[first].Suffix(end);
    xs[first].end = begin;
    xs.insert(xs.begin() + static_cast<long>(first) + 1, std::move(right));
    ++extents_;
    ++first;
    last = first;
  } else if (first < last) {
    if (xs[first].begin < begin) xs[first++].end = begin;
    if (first < last && xs[last - 1].end > end) xs[--last].DropFront(end);
  }
  // [first, last) now lie inside the range.
  if (fill != nullptr && first < last) {
    xs[first++] = std::move(*fill);  // replaces a covered extent
    fill = nullptr;
  }
  extents_ -= last - first;
  xs.erase(xs.begin() + static_cast<long>(first), xs.begin() + static_cast<long>(last));
  if (fill != nullptr) {
    xs.insert(xs.begin() + static_cast<long>(first), std::move(*fill));
    ++extents_;
  }
}

void PageStore::DropShadowedPages(Slot& slot, uint64_t first, uint64_t last) {
  for (uint64_t page = first; page <= last; ++page) {
    if (!(slot.written >> page & 1)) continue;
    const uint64_t begin = page * page_size_;
    const uint64_t end = begin + page_size_;
    uint64_t shadowed = 0;
    for (const Extent& x : slot.extents) {
      if (x.begin >= end) break;
      if (x.end > begin) {
        shadowed += std::min<uint64_t>(x.end, end) - std::max<uint64_t>(x.begin, begin);
      }
    }
    if (shadowed == page_size_) {
      slot.written &= ~(uint64_t{1} << page);
      --resident_;
    }
  }
  if (slot.written == 0) slot.bytes.reset();
}

void PageStore::Write(uint64_t offset, const std::vector<uint8_t>& data,
                      uint64_t length) {
  uint64_t pos = 0;
  while (pos < length) {
    const uint64_t chunk_no = (offset + pos) / chunk_bytes_;
    const uint64_t begin = (offset + pos) % chunk_bytes_;
    const uint64_t n = std::min(chunk_bytes_ - begin, length - pos);
    const uint64_t end = begin + n;
    Slot& slot = FindOrInsert(chunk_no);
    if (!slot.bytes) {
      // Uninitialized on purpose: a page's bytes are defined by its first
      // write, which zero-fills whatever of the page it does not cover.
      slot.bytes = std::make_unique_for_overwrite<uint8_t[]>(chunk_bytes_);
    }
    if (!slot.extents.empty()) {
      CutExtents(slot, static_cast<uint32_t>(begin), static_cast<uint32_t>(end), nullptr);
    }
    uint8_t* bytes = slot.bytes.get();
    // A page's first write defines all of it: zero what this write leaves
    // of its first and last page (the only partially covered ones).
    const uint64_t first = begin / page_size_;
    const uint64_t last = (end - 1) / page_size_;
    if (!(slot.written >> first & 1)) {
      leed::FillBytes(bytes + first * page_size_, 0, begin - first * page_size_);
    }
    if (!(slot.written >> last & 1)) {
      leed::FillBytes(bytes + end, 0, (last + 1) * page_size_ - end);
    }
    const uint64_t copy = pos < data.size() ? std::min(n, data.size() - pos) : 0;
    if (copy > 0) leed::CopyBytes(bytes + begin, data.data() + pos, copy);
    leed::FillBytes(bytes + begin + copy, 0, n - copy);
    const uint64_t span = last - first + 1;
    const uint64_t mask = (span == 64 ? ~uint64_t{0} : (uint64_t{1} << span) - 1)
                          << first;
    resident_ += static_cast<uint64_t>(std::popcount(mask & ~slot.written));
    slot.written |= mask;
    pos += n;
  }
}

void PageStore::WriteExtent(uint64_t offset, std::vector<uint8_t> head,
                            const SharedBytes& tail, uint64_t length) {
  const uint64_t head_len = head.size();
  assert(tail.size() == 0 || length <= head_len + tail.size());
  uint64_t pos = 0;
  while (pos < length) {
    const uint64_t chunk_no = (offset + pos) / chunk_bytes_;
    const uint64_t begin = (offset + pos) % chunk_bytes_;
    const uint64_t n = std::min(chunk_bytes_ - begin, length - pos);
    const uint64_t end = begin + n;
    if (pos >= head_len && tail.size() == 0) {
      // Nothing but zeros: stored as no bytes at all.
      Discard(offset + pos, n);
      pos += n;
      continue;
    }
    Slot& slot = FindOrInsert(chunk_no);
    Extent x;
    x.begin = static_cast<uint32_t>(begin);
    x.end = static_cast<uint32_t>(end);
    if (pos < head_len) {
      // The piece keeps only the part of the head inside it: the head
      // itself when that is all of it, a copy of its part otherwise.
      const uint64_t part = std::min(n, head_len - pos);
      if (part == head_len) {
        x.SetHead(std::move(head));
      } else {
        x.SetHead(std::span<const uint8_t>(head).subspan(pos, part));
      }
    } else {
      x.pos = static_cast<uint32_t>(pos - head_len);
    }
    if (pos + n > head_len && tail.size() > 0) {
      x.tail = tail;
      x.tail_data = tail.bytes().data();
    }
    CutExtents(slot, x.begin, x.end, &x);
    if (slot.written != 0) {
      DropShadowedPages(slot, begin / page_size_, (end - 1) / page_size_);
    }
    pos += n;
  }
}

void PageStore::Persist(IoRequest& request, uint64_t length) {
  if (request.tail.size() == 0 && request.data.size() >= length) {
    Write(request.offset, request.data, length);
  } else {
    if (request.data.size() > length) request.data.resize(length);
    WriteExtent(request.offset, std::move(request.data), request.tail, length);
  }
}

void PageStore::Discard(uint64_t offset, uint64_t length) {
  for (uint64_t pos = 0; pos < length;) {
    const uint64_t chunk_no = (offset + pos) / chunk_bytes_;
    const uint64_t begin = (offset + pos) % chunk_bytes_;
    const uint64_t n = std::min(chunk_bytes_ - begin, length - pos);
    const uint64_t end = begin + n;
    pos += n;
    Slot* slot = Find(chunk_no);
    if (slot == nullptr) continue;
    if (!slot->extents.empty()) {
      CutExtents(*slot, static_cast<uint32_t>(begin), static_cast<uint32_t>(end), nullptr);
      if (slot->extents.empty()) std::vector<Extent>().swap(slot->extents);
    }
    if (slot->written == 0) continue;
    for (uint64_t page = begin / page_size_; page <= (end - 1) / page_size_; ++page) {
      if (!(slot->written >> page & 1)) continue;
      const uint64_t from = std::max(begin, page * page_size_);
      const uint64_t to = std::min(end, (page + 1) * page_size_);
      if (to - from == page_size_) {
        slot->written &= ~(uint64_t{1} << page);
        --resident_;
      } else {
        leed::FillBytes(slot->bytes.get() + from, 0, to - from);
      }
    }
    if (slot->written == 0) slot->bytes.reset();
  }
}

void PageStore::AppendPages(const Slot* slot, uint64_t begin, uint64_t end,
                            std::vector<uint8_t>& out) const {
  if (slot == nullptr || !slot->bytes) {
    out.resize(out.size() + (end - begin), 0);
    return;
  }
  // Each run of stored pages is copied once; only pages without bytes are
  // zero-filled.
  for (uint64_t pos = begin; pos < end;) {
    uint64_t page = pos / page_size_;
    const bool written = slot->written >> page & 1;
    while (++page < chunk_pages_ && page * page_size_ < end &&
           (slot->written >> page & 1) == written) {
    }
    const uint64_t run_end = std::min(end, page * page_size_);
    if (written) {
      out.insert(out.end(), slot->bytes.get() + pos, slot->bytes.get() + run_end);
    } else {
      out.resize(out.size() + (run_end - pos), 0);
    }
    pos = run_end;
  }
}

std::vector<uint8_t> PageStore::Read(uint64_t offset, uint64_t length) const {
  // Append chunk by chunk: the extents, and the page bytes between them.
  std::vector<uint8_t> out;
  out.reserve(length);
  while (out.size() < length) {
    const uint64_t chunk_no = (offset + out.size()) / chunk_bytes_;
    const uint64_t begin = (offset + out.size()) % chunk_bytes_;
    const uint64_t end = begin + std::min(chunk_bytes_ - begin, length - out.size());
    const Slot* slot = Find(chunk_no);
    uint64_t pos = begin;
    if (slot != nullptr) {
      // The first extent ending past `begin`, searched from where it would
      // lie if the chunk's extents were of equal size: a value log's are
      // close to it, and a step costs one cache line, not a probe's miss.
      const std::vector<Extent>& xs = slot->extents;
      size_t i = begin * xs.size() / chunk_bytes_;
      while (i > 0 && xs[i - 1].end > begin) --i;
      while (i < xs.size() && xs[i].end <= begin) ++i;
      for (auto x = xs.begin() + static_cast<long>(i); x != xs.end() && x->begin < end; ++x) {
        if (pos < x->begin) AppendPages(slot, pos, x->begin, out);
        const uint32_t from = static_cast<uint32_t>(std::max<uint64_t>(x->begin, pos));
        const uint32_t to = static_cast<uint32_t>(std::min<uint64_t>(x->end, end));
        x->AppendTo(from, to, out);
        pos = to;
      }
    }
    if (pos < end) AppendPages(slot, pos, end, out);
  }
  return out;
}

void MemBlockDevice::Discard(uint64_t offset, uint64_t length) {
  if (faults_ != nullptr && faults_->crashed()) return;
  store_.Discard(offset, length);
}

Status MemBlockDevice::Submit(IoRequest request, IoCallback callback) {
  uint64_t length =
      request.length ? request.length : request.data.size() + request.tail.size();
  LEED_RETURN_IF_ERROR(store_.CheckRequest(request, length));
  SimTime submitted = sim_.Now();
  if (faults_ != nullptr) {
    const bool is_write = request.type == IoType::kWrite;
    double latency_factor = 1.0;  // no service model here; spikes ignored
    uint64_t keep = 0;
    switch (faults_->OnIo(is_write, length, &latency_factor, &keep)) {
      case IoFault::kNone:
        break;
      case IoFault::kCrash:
        // Power loss: a write persists its torn prefix, then the device
        // goes silent — the callback never fires.
        if (is_write && keep > 0) store_.Persist(request, keep);
        return Status::Ok();
      case IoFault::kTorn:
        store_.Persist(request, keep);
        [[fallthrough]];
      case IoFault::kError:
        ++inflight_;
        sim_.Schedule(0, [this, submitted, cb = std::move(callback)]() mutable {
          --inflight_;
          IoResult r;
          r.status = Status::IoError("injected device fault");
          r.submitted_at = submitted;
          r.completed_at = sim_.Now();
          cb(std::move(r));
        });
        return Status::Ok();
    }
  }
  ++inflight_;
  if (request.type == IoType::kWrite) {
    store_.Persist(request, length);
    sim_.Schedule(0, [this, submitted, cb = std::move(callback)]() mutable {
      --inflight_;
      IoResult r;
      r.submitted_at = submitted;
      r.completed_at = sim_.Now();
      cb(std::move(r));
    });
  } else {
    auto data = store_.Read(request.offset, length);
    sim_.Schedule(0, [this, submitted, d = std::move(data),
                      cb = std::move(callback)]() mutable {
      --inflight_;
      IoResult r;
      r.data = std::move(d);
      r.submitted_at = submitted;
      r.completed_at = sim_.Now();
      cb(std::move(r));
    });
  }
  return Status::Ok();
}

}  // namespace leed::sim
