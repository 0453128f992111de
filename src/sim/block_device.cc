#include "sim/block_device.h"

#include <algorithm>
#include <bit>
#include "common/bytes.h"
#include "sim/fault.h"

namespace leed::sim {

Status PageStore::CheckRange(uint64_t offset, uint64_t length) const {
  if (length == 0) return Status::InvalidArgument("zero-length IO");
  if (offset + length < offset || offset + length > capacity_) {
    return Status::InvalidArgument("IO beyond device capacity");
  }
  return Status::Ok();
}

const uint8_t* PageStore::Find(uint64_t page_no) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(page_no);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (!s.page) return nullptr;
    if (s.page_no == page_no) return s.page.get();
  }
}

uint8_t* PageStore::FindOrInsert(uint64_t page_no) {
  if (2 * (resident_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(page_no);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (!s.page) {
      s.page_no = page_no;
      s.page.reset(new uint8_t[page_size_]());
      ++resident_;
      return s.page.get();
    }
    if (s.page_no == page_no) return s.page.get();
  }
}

void PageStore::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_ = std::vector<Slot>(old.empty() ? 16 : 2 * old.size());
  shift_ = static_cast<uint32_t>(64 - std::countr_zero(slots_.size()));
  const size_t mask = slots_.size() - 1;
  for (Slot& s : old) {
    if (!s.page) continue;
    size_t i = Home(s.page_no);
    while (slots_[i].page) i = (i + 1) & mask;
    slots_[i] = std::move(s);
  }
}

void PageStore::Write(uint64_t offset, const std::vector<uint8_t>& data,
                      uint64_t length) {
  uint64_t pos = 0;
  while (pos < length) {
    uint64_t page_no = (offset + pos) / page_size_;
    uint64_t in_page = (offset + pos) % page_size_;
    uint64_t chunk = std::min<uint64_t>(page_size_ - in_page, length - pos);
    uint8_t* page = FindOrInsert(page_no);
    if (pos < data.size()) {
      uint64_t copy = std::min<uint64_t>(chunk, data.size() - pos);
      leed::CopyBytes(page + in_page, data.data() + pos, copy);
      if (copy < chunk) {
        leed::FillBytes(page + in_page + copy, 0, chunk - copy);
      }
    } else {
      leed::FillBytes(page + in_page, 0, chunk);
    }
    pos += chunk;
  }
}

std::vector<uint8_t> PageStore::Read(uint64_t offset, uint64_t length) const {
  // Append page by page: resident bytes are copied once, and only holes
  // (never-written pages) are zero-filled.
  std::vector<uint8_t> out;
  out.reserve(length);
  while (out.size() < length) {
    uint64_t page_no = (offset + out.size()) / page_size_;
    uint64_t in_page = (offset + out.size()) % page_size_;
    uint64_t chunk = std::min<uint64_t>(page_size_ - in_page, length - out.size());
    if (const uint8_t* page = Find(page_no)) {
      out.insert(out.end(), page + in_page, page + in_page + chunk);
    } else {
      out.resize(out.size() + chunk, 0);
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
