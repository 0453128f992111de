// FAWN-KV data store baseline (Andersen et al., SOSP'09) — the paper's
// embedded-node comparator, also "ported" onto the SmartNIC JBOF for
// Table 3 exactly as §4.2 does.
//
// Faithful properties:
//   * log-structured: one append-only data log per store; PUT appends, GET
//     is a single SSD read (FAWN's signature 1-IO-per-request path — that
//     is why FAWN-JBOF has the *lowest latency* row in Table 3);
//   * 6 B/object in-DRAM hash index (15-bit key fragment + valid bit +
//     4 B offset). The C++ map underneath holds real keys for functional
//     correctness; the 6 B/object figure is what the capacity analysis
//     charges (analysis/index_memory.h) — and it is exactly what caps
//     FAWN-JBOF at 7.7% / 24.1% of the flash for 256 B / 1 KB objects;
//   * semi-synchronous execution: FAWN's per-store event loop keeps at
//     most `max_inflight` IOs outstanding (1 reproduces the original
//     single-threaded datastore; the port to the JBOF gets one store per
//     SSD). Excess requests queue FIFO;
//   * log cleaning: sequential single-threaded compaction — the design
//     LEED's Fig. 13 parallel sub-compactions improve upon.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "log/circular_log.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"

namespace leed::baselines {

struct FawnCosts {
  uint64_t lookup = 700;        // hash + index probe + request parse
  uint64_t append = 900;        // entry format + index update
  uint64_t complete = 400;      // response path
  uint64_t clean_per_entry = 50;
};

// Requests a store queues behind its in-flight ones; past this it rejects
// with kOverloaded.
inline constexpr size_t kFawnQueueCapacity = 4096;

struct FawnConfig {
  uint32_t max_inflight = 1;           // FAWN's synchronous store path
  double compaction_threshold = 0.80;
  uint64_t compaction_chunk = 256 * 1024;
  FawnCosts costs;
  double ipc_factor = 1.0;
};

struct FawnStats {
  uint64_t gets = 0, puts = 0, dels = 0, not_found = 0;
  uint64_t ssd_reads = 0, ssd_writes = 0;
  uint64_t cleanings = 0, entries_moved = 0, entries_dropped = 0;
  uint64_t rejected_full = 0;
};

class FawnStore {
 public:
  using GetCallback = std::function<void(Status, std::vector<uint8_t>)>;
  using OpCallback = std::function<void(Status)>;

  FawnStore(sim::Simulator& simulator, sim::CpuCore& core,
            sim::BlockDevice& device, uint64_t log_base, uint64_t log_size,
            FawnConfig config);

  void Get(std::string key, GetCallback callback);
  void Put(std::string key, std::vector<uint8_t> value, OpCallback callback);
  void Del(std::string key, OpCallback callback);

  const FawnStats& stats() const { return stats_; }
  size_t index_size() const { return index_.size(); }
  const log::CircularLog& data_log() const { return log_; }
  size_t queue_depth() const { return queue_.size(); }

  // The paper's 6 B/object in-memory index footprint.
  static constexpr double kIndexBytesPerObject = 6.0;

 private:
  struct IndexEntry {
    uint64_t offset = 0;
    uint32_t entry_bytes = 0;
  };
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
  void PumpQueue();
  void Execute(Pending p);
  void Finish();

  void MaybeClean();
  void CleanStep(uint64_t region_end);

  sim::Simulator& sim_;
  sim::CpuCore& core_;
  FawnConfig config_;
  log::CircularLog log_;
  // leed-lint: allow(unordered-iter): point lookups only; the semantic
  // log scan during cleaning iterates the log, not this index
  std::unordered_map<std::string, IndexEntry> index_;
  std::deque<Pending> queue_;
  uint32_t inflight_ = 0;
  bool cleaning_ = false;
  FawnStats stats_;
};

}  // namespace leed::baselines
