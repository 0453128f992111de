#include "sim/block_device.h"

#include <algorithm>
#include <bit>
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

const PageStore::Slot* PageStore::Find(uint64_t chunk_no) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(chunk_no);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (!s.bytes) return nullptr;
    if (s.chunk_no == chunk_no) return &s;
  }
}

PageStore::Slot& PageStore::FindOrInsert(uint64_t chunk_no) {
  if (2 * (chunks_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(chunk_no);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (!s.bytes) {
      s.chunk_no = chunk_no;
      s.written = 0;
      // Uninitialized on purpose: a page's bytes are defined by its first
      // write, which zero-fills whatever of the page it does not cover.
      s.bytes = std::make_unique_for_overwrite<uint8_t[]>(chunk_bytes_);
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
    if (!s.bytes) continue;
    size_t i = Home(s.chunk_no);
    while (slots_[i].bytes) i = (i + 1) & mask;
    slots_[i] = std::move(s);
  }
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

std::vector<uint8_t> PageStore::Read(uint64_t offset, uint64_t length) const {
  // Append run by run: each run of written pages is copied once, and only
  // never-written pages (or absent chunks) are zero-filled.
  std::vector<uint8_t> out;
  out.reserve(length);
  while (out.size() < length) {
    const uint64_t chunk_no = (offset + out.size()) / chunk_bytes_;
    const uint64_t begin = (offset + out.size()) % chunk_bytes_;
    const uint64_t end = begin + std::min(chunk_bytes_ - begin, length - out.size());
    const Slot* slot = Find(chunk_no);
    if (slot == nullptr) {
      out.resize(out.size() + (end - begin), 0);
      continue;
    }
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
  return out;
}

Status MemBlockDevice::Submit(IoRequest request, IoCallback callback) {
  uint64_t length = request.length ? request.length : request.data.size();
  LEED_RETURN_IF_ERROR(store_.CheckRange(request.offset, length));
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
        if (is_write && keep > 0) store_.Write(request.offset, request.data, keep);
        return Status::Ok();
      case IoFault::kTorn:
        store_.Write(request.offset, request.data, keep);
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
    store_.Write(request.offset, request.data, length);
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
