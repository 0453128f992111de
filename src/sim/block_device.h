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
// written page exist. It keeps only bytes that are neither zero padding nor
// reclaimed. A write may carry a shared tail (a replicated PUT's value, one
// buffer for every replica), or less data than its length (a key-log
// bucket's used prefix, zero padded); the store keeps either by reference,
// as an extent, instead of copying its bytes into pages. Discard (NVMe
// deallocate) drops a range's bytes, and the range reads back as zeros.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/shared_bytes.h"
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
  uint64_t length = 0;  // bytes; for writes, data.size() + tail.size() if 0
  // For writes: bytes to persist. Bytes past `data` (up to `length`) are
  // zeros, and the device keeps them implicitly: a key-log bucket is sent
  // as its used prefix, and timing-only traffic (device-level
  // microbenchmarks) as no data at all.
  std::vector<uint8_t> data;
  // For writes: bytes persisted right after `data`, kept by reference
  // (PageStore::WriteExtent). A write with a tail carries no zero padding:
  // its length is at most data.size() + tail.size().
  SharedBytes tail;
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

  // Deallocate [offset, offset + length) (NVMe deallocate / trim): the
  // device may drop the range's bytes, and reads of it return zeros. It
  // takes no simulated time, issues no IO and completes at once; the range
  // must lie inside the device. A crashed device hears nothing, and a
  // simulated one keeps whatever an outstanding read still has to return.
  virtual void Discard(uint64_t offset, uint64_t length) = 0;

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
// in fixed-size chunks (16 KiB, at most 64 pages), found through a flat
// open-addressing table (linear probing, power-of-two size, multiplicative
// hash, at most half full; chunks are never removed from it, so no
// tombstones, though a discarded chunk frees what it held).
//
// A chunk holds two kinds of bytes:
//   * Pages: one heap allocation per chunk, made by the first plain Write
//     into it, with a bitmap of the pages whose bytes it stores. A page
//     without bytes reads as zero, a page's first write zero-fills only
//     the bytes of the page it does not cover, and a read copies each run
//     of stored pages once.
//   * Extents: writes kept by reference (WriteExtent). Each extent is a
//     byte range of the chunk whose contents are a head, followed by a
//     slice of a shared tail buffer or, without one, by zeros. A write is
//     split at chunk boundaries, one extent per chunk it touches, each
//     holding the part of the head that falls in its chunk. A chunk's
//     extents are sorted and disjoint, and always newer than the page
//     bytes under them: a later write trims (or splits) every extent it
//     overlaps, in place, and a read takes the extents' bytes over the
//     pages'. A page whose bytes extents shadow whole drops them, and a
//     chunk whose pages all did frees its allocation. The extents are a
//     short sorted vector per chunk, not one ordered map per device: a
//     map node per write cost a prototype 28% more host CPU per op on a
//     write-heavy run.
// An extent without a tail keeps a head of up to 72 bytes (a one-item
// key-log bucket's used prefix) inside itself, so a PUT's bucket costs its
// extent alone. An extent with a tail keeps a head of up to 32 bytes (a
// value entry's header and a short key) inside itself. A longer head (a
// bigger bucket's used prefix, a long key's entry header) keeps a buffer of
// its own, exactly its size: the write request's, moved in, when one chunk
// holds the whole head.
// A piece of a write that holds only zeros (past its data, with no tail)
// is stored as no bytes at all, as Discard leaves a range.
// A chunk's extent array is cut to its size when a write reaches the
// chunk's end, which a log's last append into a chunk does: a chunk the
// log has moved past carries no spare capacity.
// A chunk is small enough that the unwritten tail of a partly written
// chunk (one at each log's write frontier) costs little memory, and large
// enough that a sequential log append touches one table slot per 4 pages.
// Its bounds fit 16 bits, so pages are at most 32 KiB.
class PageStore {
 public:
  PageStore(uint64_t capacity_bytes, uint32_t page_size = 4096);

  Status CheckRange(uint64_t offset, uint64_t length) const;
  // CheckRange for a request covering `length` bytes, which a write with
  // a shared tail must also hold in data ++ tail.
  Status CheckRequest(const IoRequest& request, uint64_t length) const;
  // Stores data[0, length) in pages; bytes past data.size() are written
  // as zeros.
  void Write(uint64_t offset, const std::vector<uint8_t>& data, uint64_t length);
  // Stores the first `length` bytes of head ++ tail ++ zeros as extents:
  // the head is kept (see above), the tail referenced, the zeros implicit
  // (a chunk's piece of zeros alone is discarded). A write with a tail
  // must have `length` bytes in head ++ tail.
  void WriteExtent(uint64_t offset, std::vector<uint8_t> head,
                   const SharedBytes& tail, uint64_t length);
  // Stores the first `length` bytes of a write request (data ++ tail ++
  // zeros): WriteExtent, which takes the request's data, when it carries a
  // tail or less data than that; Write otherwise.
  void Persist(IoRequest& request, uint64_t length);
  // Drops the bytes of [offset, offset + length), which then read as
  // zeros: extents are cut, pages inside the range freed, and the bytes of
  // the pages at its ends that it covers only in part zeroed in place.
  void Discard(uint64_t offset, uint64_t length);
  std::vector<uint8_t> Read(uint64_t offset, uint64_t length) const;

  uint64_t capacity() const { return capacity_; }
  // Pages whose bytes are stored (never-written pages, discarded pages,
  // and pages extents shadow whole, are not).
  uint64_t resident_pages() const { return resident_; }
  uint64_t resident_bytes() const { return resident_ * page_size_; }
  // Extents currently kept, over all chunks.
  uint64_t extents() const { return extents_; }
  // Room for extents in the chunks' arrays, over all chunks (a walk of
  // the chunk table).
  uint64_t extent_capacity() const;

  // The longest head an extent without a tail keeps inside itself: a
  // one-item key-log bucket's used prefix (36-byte header, 13-byte item
  // and a 16-byte key is 65).
  static constexpr uint32_t kInlineHead = 72;

 private:
  static constexpr uint64_t kChunkBytes = 16 * 1024;
  static constexpr uint64_t kNoChunk = ~uint64_t{0};

  // A byte range of a chunk: its head's bytes, then a tail's or zeros.
  // Without a tail, a head that fits lives in `near_`, from `begin` on;
  // otherwise the extent is far, and `far_` holds the tail and the head.
  class Extent {
   public:
    static constexpr uint32_t kFarInlineHead = 32;  // with a tail

    Extent(uint32_t from, uint32_t to)
        : begin(static_cast<uint16_t>(from)), end(static_cast<uint16_t>(to)) {}
    Extent(Extent&& other) noexcept;
    Extent& operator=(Extent&& other) noexcept;
    ~Extent();

    // The extent holds, after its head, `tail` from byte `pos` on. Set
    // before the head.
    void SetTail(const SharedBytes& tail, uint32_t pos);
    // The bytes the extent starts with.
    void SetHead(std::span<const uint8_t> bytes);
    void SetHead(std::vector<uint8_t>&& bytes);
    // Appends the extent's bytes [from, to) (chunk-relative) to `out`.
    void AppendTo(uint32_t from, uint32_t to, std::vector<uint8_t>& out) const;
    // Moves the start to `at`, releasing the head once it is passed.
    void DropFront(uint32_t at);
    // The part of this extent from `at` on, as an extent of its own.
    Extent Suffix(uint32_t at) const;

    uint16_t begin;  // chunk-relative byte range [begin, end)
    uint16_t end;

   private:
    struct Far {
      uint32_t pos = 0;  // where `begin` lies in head ++ tail ++ zeros
      SharedBytes tail;  // none: zeros follow the head
      // tail.bytes().data(), cached: a read need not touch the tail's
      // control block, a cache miss of its own. Null without a tail.
      const uint8_t* tail_data = nullptr;
      std::variant<std::array<uint8_t, kFarInlineHead>, std::vector<uint8_t>> head;
    };

    void MakeFar();
    const uint8_t* head() const {
      if (!far) return near_.data();
      return std::visit([](const auto& h) { return h.data(); }, far_.head);
    }

    uint16_t head_len = 0;  // near: from `begin` on; far: all of it
    bool far = false;
    union {
      std::array<uint8_t, kInlineHead> near_{};
      Far far_;
    };
  };
  // One extent per replica of every value a log holds: keep it small.
  static_assert(sizeof(Extent) <= 80);

  struct Slot {
    uint64_t chunk_no = kNoChunk;      // kNoChunk: empty slot
    uint64_t written = 0;              // bit p: page p's bytes are stored
    std::unique_ptr<uint8_t[]> bytes;  // null while no page stores bytes
    std::vector<Extent> extents;       // sorted by begin, disjoint
  };

  size_t Home(uint64_t chunk_no) const {
    return static_cast<size_t>((chunk_no * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  const Slot* Find(uint64_t chunk_no) const;
  Slot* Find(uint64_t chunk_no) {
    return const_cast<Slot*>(std::as_const(*this).Find(chunk_no));
  }
  Slot& FindOrInsert(uint64_t chunk_no);
  void Grow();
  // Removes [begin, end) from the chunk's extents (trimming or splitting
  // the ones it cuts), then puts `fill`, if any, in its place: into the
  // entry of an extent the range covered whole when there is one, so a log
  // overwriting its previous lap moves no other extent.
  void CutExtents(Slot& slot, uint32_t begin, uint32_t end, Extent* fill);
  // Appends the page bytes (zeros where none are stored) of the chunk's
  // range [begin, end) to `out`; `slot` may be null.
  void AppendPages(const Slot* slot, uint64_t begin, uint64_t end,
                   std::vector<uint8_t>& out) const;
  // Drops the bytes of pages [first, last] that extents shadow whole.
  void DropShadowedPages(Slot& slot, uint64_t first, uint64_t last);

  uint64_t capacity_;
  uint32_t page_size_;
  uint32_t chunk_pages_;     // pages per chunk, 1..64
  uint64_t chunk_bytes_;     // chunk_pages_ * page_size_
  std::vector<Slot> slots_;  // empty until the first write
  uint32_t shift_ = 64;      // 64 - log2(slots_.size())
  uint64_t chunks_ = 0;
  uint64_t resident_ = 0;
  uint64_t extents_ = 0;
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
  // Reads take their bytes at submission here, so nothing is kept back.
  void Discard(uint64_t offset, uint64_t length) override;

  // The byte store, for tests that check what the device keeps.
  const PageStore& store() const { return store_; }

 private:
  Simulator& sim_;
  PageStore store_;
  uint32_t block_size_;
  uint32_t inflight_ = 0;
};

}  // namespace leed::sim
