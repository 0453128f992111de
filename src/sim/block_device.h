// Asynchronous block-device interface and its in-memory functional backing.
//
// Every store in this repo (the LEED data store, the FAWN baseline, the
// KVell baseline) talks to storage only through BlockDevice, mirroring how
// the paper's prototype talks to NVMe through SPDK queue pairs: submit an
// IO, get a completion callback later. Devices actually store the bytes —
// a GET returns exactly what the matching PUT persisted — so the data-path
// logic above is exercised functionally, not just for timing.
//
// The byte store is sparse (chunked, with a written-page bitmap per chunk):
// simulating a 960 GB SSD does not allocate 960 GB; only chunks holding a
// written page exist.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace leed::sim {

class DeviceFaults;  // sim/fault.h

enum class IoType : uint8_t { kRead, kWrite };

// Hint used by the SSD service model: sequential writes stream through the
// write pipe at full bandwidth; random writes pay a page-program penalty.
enum class IoPattern : uint8_t { kSequential, kRandom };

struct IoRequest {
  IoType type = IoType::kRead;
  IoPattern pattern = IoPattern::kRandom;
  uint64_t offset = 0;  // bytes
  uint64_t length = 0;  // bytes; for writes, data.size() if data present
  // For writes: bytes to persist. May be empty for timing-only traffic
  // (e.g. device-level microbenchmarks), in which case zeros are stored.
  std::vector<uint8_t> data;
};

struct IoResult {
  Status status;
  std::vector<uint8_t> data;   // for reads
  SimTime submitted_at = 0;
  SimTime completed_at = 0;
  SimTime Latency() const { return completed_at - submitted_at; }
};

using IoCallback = std::function<void(IoResult)>;

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Submit an asynchronous IO. The callback fires from the simulator event
  // loop. Returns non-OK (and never invokes the callback) only for
  // structurally invalid requests (out of range); device overload is
  // expressed as queueing delay, like real NVMe, not as rejection —
  // back-pressure is the job of the layers above (paper §3.4).
  virtual Status Submit(IoRequest request, IoCallback callback) = 0;

  virtual uint64_t capacity_bytes() const = 0;
  virtual uint32_t block_size() const = 0;

  // Number of IOs submitted but not yet completed.
  virtual uint32_t inflight() const = 0;

  // Attach (or detach, with nullptr) an injectable fault layer; consulted
  // on every Submit. See sim/fault.h.
  void set_faults(DeviceFaults* faults) { faults_ = faults; }
  DeviceFaults* faults() const { return faults_; }

  // Raw completion-status observer — the "NVMe driver" view. Fired once per
  // completed IO with ok/error and the IO's device-side latency (submit to
  // completion, including on-device queueing but nothing above the driver),
  // before the requester's callback. The store layers above wrap device
  // errors into their own status codes (corruption, retry-budget internal
  // errors, ...), so KV-level completions cannot tell a dead device from a
  // logic bug; health latches hang off this instead — and token-pool
  // rescaling feeds on the latency (§3.4: tokens track the *device's*
  // serving capability, so the feed must exclude host-side queueing).
  // One observer per device; setting replaces the previous one.
  void set_io_observer(std::function<void(bool ok, SimTime latency_ns)> observer) {
    io_observer_ = std::move(observer);
  }

 protected:
  void NotifyIo(bool ok, SimTime latency_ns) {
    if (io_observer_) io_observer_(ok, latency_ns);
  }

  DeviceFaults* faults_ = nullptr;

 private:
  std::function<void(bool ok, SimTime latency_ns)> io_observer_;
};

// Sparse in-memory byte store shared by device implementations. Bytes live
// in fixed-size chunks (16 KiB, at most 64 pages), one heap allocation
// each, found through a flat open-addressing table (linear probing,
// power-of-two size, multiplicative hash, at most half full; chunks are
// never freed, so no tombstones). Each chunk keeps a bitmap of its written
// pages: a never-written page reads as zero without being stored or
// zeroed, a first write zero-fills only the bytes of its pages it does not
// cover, and a read copies each run of written pages once. A chunk is
// small enough that the unwritten tail of a partly written chunk (one at
// each log's write frontier) costs little memory, and large enough that
// a sequential log append touches one table slot per 4 pages.
class PageStore {
 public:
  PageStore(uint64_t capacity_bytes, uint32_t page_size = 4096);

  Status CheckRange(uint64_t offset, uint64_t length) const;
  // Stores data[0, length); bytes past data.size() are written as zeros.
  void Write(uint64_t offset, const std::vector<uint8_t>& data, uint64_t length);
  std::vector<uint8_t> Read(uint64_t offset, uint64_t length) const;

  uint64_t capacity() const { return capacity_; }
  // Pages written at least once (never-written pages read as zero).
  uint64_t resident_pages() const { return resident_; }
  uint64_t resident_bytes() const { return resident_ * page_size_; }

 private:
  static constexpr uint64_t kChunkBytes = 16 * 1024;

  struct Slot {
    uint64_t chunk_no = 0;
    uint64_t written = 0;              // bit p: page p of the chunk written
    std::unique_ptr<uint8_t[]> bytes;  // null: empty slot
  };

  size_t Home(uint64_t chunk_no) const {
    return static_cast<size_t>((chunk_no * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  const Slot* Find(uint64_t chunk_no) const;
  Slot& FindOrInsert(uint64_t chunk_no);  // a new chunk is uninitialized
  void Grow();

  uint64_t capacity_;
  uint32_t page_size_;
  uint32_t chunk_pages_;     // pages per chunk, 1..64
  uint64_t chunk_bytes_;     // chunk_pages_ * page_size_
  std::vector<Slot> slots_;  // empty until the first write
  uint32_t shift_ = 64;      // 64 - log2(slots_.size())
  uint64_t chunks_ = 0;
  uint64_t resident_ = 0;
};

// Zero-latency synchronous-completion device for unit tests of the log and
// store logic: Submit() schedules the completion at Now() (still async in
// program order, so state machines are exercised, but no modeled delay).
class MemBlockDevice : public BlockDevice {
 public:
  MemBlockDevice(Simulator& simulator, uint64_t capacity_bytes,
                 uint32_t block_size = 4096)
      : sim_(simulator), store_(capacity_bytes, block_size),
        block_size_(block_size) {}

  Status Submit(IoRequest request, IoCallback callback) override;
  uint64_t capacity_bytes() const override { return store_.capacity(); }
  uint32_t block_size() const override { return block_size_; }
  uint32_t inflight() const override { return inflight_; }

 private:
  Simulator& sim_;
  PageStore store_;
  uint32_t block_size_;
  uint32_t inflight_ = 0;
};

}  // namespace leed::sim
