// KVell baseline (Lepers et al., SOSP'19) — the paper's server-JBOF
// comparator, also ported to the SmartNIC JBOF for Table 3.
//
// Faithful properties:
//   * shared-nothing: one KvellStore per core, no cross-partition
//     synchronization;
//   * in-memory sorted B+-tree index (store/range_index.h) mapping key ->
//     fixed-size slot; the per-op index cost in cycles is the calibration
//     constant that makes KVell CPU-bound on ARM (Table 3) while the wide
//     Xeon divides it by its ipc factor;
//   * no log, no GC: items live in size-class slots updated IN PLACE —
//     1 SSD access per op, but writes are *random* (the device model's
//     page-program penalty is exactly why KVell-JBOF writes cap near the
//     drive's random-write IOPS, Table 3's 156-160 KQPS);
//   * batched asynchronous device access: up to kKvellMaxIoqd outstanding
//     IOs per partition, excess queued FIFO.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "store/range_index.h"

namespace leed::baselines {

struct KvellCosts {
  uint64_t index_op = 78'000;  // B-tree traverse+update on the reference core
  uint64_t complete = 1'500;
  uint64_t enqueue = 800;
};

inline constexpr uint32_t kKvellMaxIoqd = 64;  // outstanding IOs per partition
// Requests a partition queues; past this it rejects with kOverloaded.
inline constexpr size_t kKvellQueueCapacity = 8192;
// KVell trades latency for throughput by accumulating device-access
// batches before submitting (its "efficient device access batching");
// requests sit in the accumulation window even at low load — this is why
// the paper's Table 3 shows 445us/810us read/write latency despite a
// single SSD access. Writes wait longer (commit batch).
inline constexpr SimTime kKvellReadBatchWait = 340 * kMicrosecond;
inline constexpr SimTime kKvellWriteBatchWait = 700 * kMicrosecond;

struct KvellConfig {
  uint32_t slot_bytes = 0;      // 0 => derived from value size at first PUT
  KvellCosts costs;
  double ipc_factor = 1.0;
};

struct KvellStats {
  uint64_t gets = 0, puts = 0, dels = 0, not_found = 0;
  uint64_t ssd_reads = 0, ssd_writes = 0;
  uint64_t slots_allocated = 0, slots_recycled = 0;
  uint64_t rejected_full = 0;
};

class KvellStore {
 public:
  using GetCallback = std::function<void(Status, std::vector<uint8_t>)>;
  using OpCallback = std::function<void(Status)>;

  // Owns the device range [region_base, region_base + region_size).
  KvellStore(sim::Simulator& simulator, sim::CpuCore& core,
             sim::BlockDevice& device, uint64_t region_base,
             uint64_t region_size, KvellConfig config);

  void Get(std::string key, GetCallback callback);
  void Put(std::string key, std::vector<uint8_t> value, OpCallback callback);
  void Del(std::string key, OpCallback callback);

  const KvellStats& stats() const { return stats_; }
  const store::RangeIndex& index() const { return index_; }
  size_t queue_depth() const { return queue_.size(); }
  uint64_t slots_in_use() const { return next_slot_ - free_slots_.size(); }

 private:
  struct Pending {
    enum class Kind : uint8_t { kGet, kPut, kDel } kind;
    std::string key;
    std::vector<uint8_t> value;
    GetCallback get_cb;
    OpCallback op_cb;
  };

  uint64_t Cycles(uint64_t c) const {
    double scaled = static_cast<double>(c) / config_.ipc_factor;
    return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
  }

  void Enqueue(Pending p);
  void Pump();
  void Execute(Pending p);
  void ExecuteNow(std::shared_ptr<Pending> p);
  void Finish();

  uint64_t SlotOffset(uint64_t slot) const {
    return region_base_ + slot * slot_bytes_;
  }

  sim::Simulator& sim_;
  sim::CpuCore& core_;
  sim::BlockDevice& device_;
  uint64_t region_base_;
  uint64_t region_size_;
  KvellConfig config_;
  uint32_t slot_bytes_;

  store::RangeIndex index_;  // slot number in ValueLoc::offset
  std::vector<uint64_t> free_slots_;
  uint64_t next_slot_ = 0;

  std::deque<Pending> queue_;
  uint32_t inflight_ = 0;
  KvellStats stats_;
};

}  // namespace leed::baselines
