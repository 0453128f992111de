#include "log/circular_log.h"

#include <algorithm>
#include <cassert>

namespace leed::log {

CircularLog::CircularLog(BlockDevice& device, uint64_t base_offset, uint64_t size)
    : device_(device), base_(base_offset), size_(size) {
  assert(size_ > 0);
  assert(base_ + size_ <= device_.capacity_bytes());
}

void CircularLog::AppendEntry(std::vector<uint8_t> head, SharedBytes tail,
                              uint64_t len, AppendCallback callback) {
  assert(tail.size() == 0 ? head.size() <= len : head.size() + tail.size() == len);
  if (len == 0 || len > size_) {
    callback(AppendResult{Status::InvalidArgument("bad append size"), 0, 0});
    return;
  }
  if (len > free_space()) {
    callback(AppendResult{Status::OutOfSpace("circular log full"), 0, 0});
    return;
  }
  const uint64_t entry_offset = tail_;
  tail_ += len;
  ++appends_;

  const uint64_t phys = Physical(entry_offset);
  const uint64_t to_end = base_ + size_ - phys;

  if (len <= to_end) {
    IoRequest req;
    req.type = IoType::kWrite;
    req.pattern = IoPattern::kSequential;
    req.offset = phys;
    req.length = len;
    req.data = std::move(head);
    req.tail = std::move(tail);
    Status st = device_.Submit(std::move(req), [entry_offset, cb = std::move(callback)](
                                                   sim::IoResult r) {
      cb(AppendResult{std::move(r.status), entry_offset, r.Latency()});
    });
    if (!st.ok()) callback(AppendResult{st, 0, 0});
    return;
  }

  // Wrapping entry: two sequential writes (end of region, then start),
  // each carrying its part of the data and padded to its part of `len`.
  std::vector<uint8_t> data = std::move(head);
  data.insert(data.end(), tail.bytes().begin(), tail.bytes().end());
  const auto cut = data.begin() + static_cast<long>(std::min<uint64_t>(to_end, data.size()));
  auto state = std::make_shared<std::pair<int, AppendResult>>();
  state->first = 2;
  state->second.offset = entry_offset;
  auto on_done = [state, cb = std::move(callback)](sim::IoResult r) {
    if (!r.status.ok()) state->second.status = std::move(r.status);
    state->second.latency = std::max(state->second.latency, r.Latency());
    if (--state->first == 0) cb(std::move(state->second));
  };

  IoRequest first;
  first.type = IoType::kWrite;
  first.pattern = IoPattern::kSequential;
  first.offset = phys;
  first.length = to_end;
  first.data.assign(data.begin(), cut);
  IoRequest second;
  second.type = IoType::kWrite;
  second.pattern = IoPattern::kSequential;
  second.offset = base_;
  second.length = len - to_end;
  second.data.assign(cut, data.end());

  Status st1 = device_.Submit(std::move(first), on_done);
  Status st2 = device_.Submit(std::move(second), on_done);
  if (!st1.ok() || !st2.ok()) {
    // Structural failure cannot happen for in-range requests; treat as fatal
    // for the entry but keep pointer arithmetic consistent.
    state->second.status = !st1.ok() ? st1 : st2;
  }
}

void CircularLog::Read(uint64_t offset, uint64_t length, ReadCallback callback) {
  if (length == 0) {
    callback(ReadResult{Status::InvalidArgument("zero-length read"), {}, 0});
    return;
  }
  if (offset < head_ || offset + length > tail_) {
    callback(ReadResult{Status::InvalidArgument("read outside valid log range"), {}, 0});
    return;
  }
  DoRead(offset, length, std::move(callback));
}

void CircularLog::ReadRaw(uint64_t offset, uint64_t length, ReadCallback callback) {
  if (length == 0) {
    callback(ReadResult{Status::InvalidArgument("zero-length read"), {}, 0});
    return;
  }
  if (offset < head_ || offset + length > head_ + size_) {
    callback(ReadResult{Status::InvalidArgument("raw read outside physical window"), {}, 0});
    return;
  }
  DoRead(offset, length, std::move(callback));
}

void CircularLog::DoRead(uint64_t offset, uint64_t length, ReadCallback callback) {
  ++reads_;
  const uint64_t phys = Physical(offset);
  const uint64_t to_end = base_ + size_ - phys;

  if (length <= to_end) {
    IoRequest req;
    req.type = IoType::kRead;
    req.pattern = IoPattern::kRandom;
    req.offset = phys;
    req.length = length;
    Status st = device_.Submit(std::move(req), [cb = std::move(callback)](sim::IoResult r) {
      cb(ReadResult{std::move(r.status), std::move(r.data), r.Latency()});
    });
    if (!st.ok()) callback(ReadResult{st, {}, 0});
    return;
  }

  // Wrapping read: stitch two device reads back together in order.
  struct WrapState {
    int remaining = 2;
    Status status;
    std::vector<uint8_t> first, second;
    SimTime latency = 0;
  };
  auto state = std::make_shared<WrapState>();
  auto finish = [state, cb = std::move(callback)]() {
    ReadResult out;
    out.status = state->status;
    out.latency = state->latency;
    if (out.status.ok()) {
      out.data = std::move(state->first);
      out.data.insert(out.data.end(), state->second.begin(), state->second.end());
    }
    cb(std::move(out));
  };

  IoRequest r1;
  r1.type = IoType::kRead;
  r1.pattern = IoPattern::kRandom;
  r1.offset = phys;
  r1.length = to_end;
  IoRequest r2;
  r2.type = IoType::kRead;
  r2.pattern = IoPattern::kRandom;
  r2.offset = base_;
  r2.length = length - to_end;

  device_.Submit(std::move(r1), [state, finish](sim::IoResult r) {
    if (!r.status.ok()) state->status = std::move(r.status);
    state->first = std::move(r.data);
    state->latency = std::max(state->latency, r.Latency());
    if (--state->remaining == 0) finish();
  });
  device_.Submit(std::move(r2), [state, finish](sim::IoResult r) {
    if (!r.status.ok()) state->status = std::move(r.status);
    state->second = std::move(r.data);
    state->latency = std::max(state->latency, r.Latency());
    if (--state->remaining == 0) finish();
  });
}

Status CircularLog::AdvanceHead(uint64_t new_head) {
  if (new_head < head_ || new_head > tail_) {
    return Status::InvalidArgument("head must advance within [head, tail]");
  }
  const uint64_t phys = Physical(head_);
  const uint64_t length = new_head - head_;
  const uint64_t to_end = base_ + size_ - phys;
  if (length > to_end) {
    device_.Discard(phys, to_end);
    device_.Discard(base_, length - to_end);
  } else if (length > 0) {
    device_.Discard(phys, length);
  }
  head_ = new_head;
  return Status::Ok();
}

}  // namespace leed::log
