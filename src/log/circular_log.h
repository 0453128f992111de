// Circular log — the paper's central data structure (§3.2.1).
//
// A fixed-size contiguous region on the SSD whose head/tail delimit the
// used range. Three operations: read from an offset inside the valid
// range; append at the tail (sequential write — the pattern NVMe loves);
// and compaction support (the *store* decides which entries are live and
// re-appends them; the log just exposes AdvanceHead to reclaim the prefix,
// and tells the device that the reclaimed range is free).
//
// Offsets handed out are *logical* and monotonically increasing; physical
// position is logical % region size. An entry may physically wrap across
// the region end, in which case a read or append is split into two device
// IOs — this wastes nothing (no alignment gap) at the cost of a rare
// second IO, consistent with design principle P1 (spend IO bandwidth, save
// memory/cycles).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/shared_bytes.h"
#include "common/status.h"
#include "sim/block_device.h"

namespace leed::log {

using sim::BlockDevice;
using sim::IoPattern;
using sim::IoRequest;
using sim::IoType;

struct AppendResult {
  Status status;
  uint64_t offset = 0;  // logical offset of the appended entry
  SimTime latency = 0;
};

struct ReadResult {
  Status status;
  std::vector<uint8_t> data;
  SimTime latency = 0;
};

using AppendCallback = std::function<void(AppendResult)>;
using ReadCallback = std::function<void(ReadResult)>;

class CircularLog {
 public:
  // The log owns the device range [base_offset, base_offset + size).
  CircularLog(BlockDevice& device, uint64_t base_offset, uint64_t size);

  // Append `data` at the tail. Fails with kOutOfSpace if the used region
  // would exceed capacity; the caller is expected to compact first (the
  // store triggers compaction when the free fraction drops below a
  // threshold, well before this fires).
  void Append(std::vector<uint8_t> data, AppendCallback callback) {
    const uint64_t length = data.size();
    AppendEntry(std::move(data), SharedBytes(), length, std::move(callback));
  }
  // Append a `length`-byte entry that holds `data` followed by zeros (a
  // key-log bucket: its used prefix, zero padded). The zeros are not sent:
  // the device keeps them implicitly (IoRequest::data).
  void Append(std::vector<uint8_t> data, uint64_t length, AppendCallback callback) {
    AppendEntry(std::move(data), SharedBytes(), length, std::move(callback));
  }
  // Append the entry head ++ tail. The device keeps the tail by reference
  // (IoRequest::tail); an entry that wraps the region end is written as
  // two copied halves instead.
  void Append(std::vector<uint8_t> head, SharedBytes tail, AppendCallback callback) {
    const uint64_t length = head.size() + tail.size();
    AppendEntry(std::move(head), std::move(tail), length, std::move(callback));
  }

  // Read `length` bytes at logical `offset`. The range must be inside
  // [head, tail).
  void Read(uint64_t offset, uint64_t length, ReadCallback callback);

  // Recovery-only read past the tail: the range must lie inside
  // [head, head + size), i.e. within the physical window, but may extend
  // beyond the checkpointed tail. Lets the crash-recovery scan look for
  // buckets appended after the last checkpoint; data found there is
  // validated by checksum, not by the log's pointers.
  void ReadRaw(uint64_t offset, uint64_t length, ReadCallback callback);

  // Adopt appends discovered beyond the checkpointed tail (recovery-only).
  // new_tail must not shrink the log or exceed the physical window.
  Status ExtendTail(uint64_t new_tail) {
    if (new_tail < tail_ || new_tail - head_ > size_) {
      return Status::InvalidArgument("tail extension out of range");
    }
    tail_ = new_tail;
    return Status::Ok();
  }

  // Reclaim everything before new_head (exclusive). new_head must lie in
  // [head, tail]. Compactions re-append live data first, then advance.
  // The device discards the reclaimed range (BlockDevice::Discard, split
  // in two where it wraps the region end): it reads back as zeros.
  Status AdvanceHead(uint64_t new_head);

  // Discard the entire contents (head := tail), on the device too, as
  // AdvanceHead(tail) does. Used to reclaim a swap region wholesale once
  // nothing references it; logical offsets stay monotonic so stale readers
  // fail loudly instead of reading recycled bytes.
  void Reset() { (void)AdvanceHead(tail_); }

  // Reattach to existing on-device contents after a crash: restore the
  // checkpointed pointers. Only valid on a virgin log object.
  Status Restore(uint64_t head, uint64_t tail) {
    if (head_ != 0 || tail_ != 0) {
      return Status::InvalidArgument("Restore requires a fresh log");
    }
    if (head > tail || tail - head > size_) {
      return Status::InvalidArgument("checkpoint pointers out of range");
    }
    head_ = head;
    tail_ = tail;
    return Status::Ok();
  }

  uint64_t head() const { return head_; }
  uint64_t tail() const { return tail_; }
  uint64_t size() const { return size_; }
  uint64_t used() const { return tail_ - head_; }
  uint64_t free_space() const { return size_ - used(); }
  double UsedFraction() const {
    return static_cast<double>(used()) / static_cast<double>(size_);
  }

  // True once the used fraction exceeds `threshold` — the compaction
  // trigger condition from §3.2.1 ("when the gap between the tail and head
  // has reached a threshold").
  bool CompactionNeeded(double threshold) const {
    return UsedFraction() >= threshold;
  }

  uint64_t appends() const { return appends_; }
  uint64_t reads() const { return reads_; }

 private:
  uint64_t Physical(uint64_t logical) const { return base_ + logical % size_; }

  // Append the `length`-byte entry head ++ tail ++ zeros (a tail carries
  // no zeros: length is then head.size() + tail.size()).
  void AppendEntry(std::vector<uint8_t> head, SharedBytes tail, uint64_t length,
                   AppendCallback callback);

  // Issue the device IO(s) for a validated logical range (shared by Read
  // and ReadRaw).
  void DoRead(uint64_t offset, uint64_t length, ReadCallback callback);

  BlockDevice& device_;
  uint64_t base_;
  uint64_t size_;
  uint64_t head_ = 0;  // logical
  uint64_t tail_ = 0;  // logical
  uint64_t appends_ = 0;
  uint64_t reads_ = 0;
};

}  // namespace leed::log
