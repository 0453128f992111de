// Queueing model of an NVMe SSD (and of the Raspberry Pi's SD card).
//
// The model captures the three device properties LEED's design leans on
// (paper §2.3, §3.2.1, §3.4):
//   1. fast random reads with high internal parallelism — modeled as
//      `read_channels` parallel servers fed by one FIFO;
//   2. high *sequential* write bandwidth but much lower random-write
//      throughput — modeled as a single write "program pipe" that
//      serializes bytes at the sequential bandwidth, with a configurable
//      occupancy penalty for random writes (page-program amplification);
//   3. unpredictable per-IO cost variation (flash GC, internal state) —
//      modeled as multiplicative jitter plus a small probability of a
//      slow outlier IO. This is what makes static IO budgeting wrong and
//      the paper's measured-latency token scheme (§3.4) necessary.
//
// Bytes are really stored (PageStore), so all stores built on top are
// functionally correct, not timing mockups.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/rand.h"
#include "obs/metrics.h"
#include "sim/block_device.h"
#include "sim/simulator.h"

namespace leed::sim {

struct SsdSpec {
  std::string name = "ssd";
  uint64_t capacity_bytes = 960ull * 1000 * 1000 * 1000;
  uint32_t block_size = 4096;

  // Read path: parallel servers (flash channels / dies visible to reads).
  uint32_t read_channels = 16;
  SimTime read_base_ns = 40 * kMicrosecond;   // 4KB-granule service time
  double read_bandwidth_bpns = 3.0;           // bytes/ns == GB/s streaming

  // Write path: one serialized program pipe.
  SimTime write_base_ns = 25 * kMicrosecond;  // ack latency on top of pipe
  double write_bandwidth_bpns = 1.05;         // sequential program bandwidth
  double random_write_penalty = 6.5;          // occupancy multiplier (4KB granule)
  // Floor on pipe occupancy per write: even a tiny sequential append costs
  // one submission/program slot, bounding small-write IOPS (~1/this).
  SimTime write_min_occupancy_ns = 2 * kMicrosecond;

  // Variability.
  double latency_jitter = 0.08;   // +-8% uniform on service time
  double slow_io_prob = 0.002;    // GC-interference outliers
  double slow_io_factor = 8.0;

  // Derived: nominal 4KB random-read IOPS = read_channels / read_base.
  double NominalReadIops() const {
    return static_cast<double>(read_channels) /
           (static_cast<double>(read_base_ns) / 1e9);
  }
  double NominalRandomWriteIops() const {
    double occupancy_ns =
        static_cast<double>(block_size) * random_write_penalty / write_bandwidth_bpns;
    return 1e9 / occupancy_ns;
  }
};

// Samsung DCT983 960GB — the paper's drive (calibration in DESIGN.md §4).
SsdSpec Dct983Spec();

// Raspberry Pi 3B+ SanDisk SD card: 32 GB, 60-80 MB/s, high latency, no
// internal parallelism worth speaking of.
SsdSpec PiSdCardSpec();

// A device's counts, in a registry-owned struct (SimSsd::AttachMetrics).
// reads, writes and their bytes are published as read_ops, write_ops,
// read_bytes and write_bytes; the busy times are private.
struct SsdStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  SimTime read_busy_ns = 0;   // summed over channels
  SimTime write_busy_ns = 0;  // pipe occupancy
};

class SimSsd : public BlockDevice {
 public:
  SimSsd(Simulator& simulator, SsdSpec spec, uint64_t seed);

  Status Submit(IoRequest request, IoCallback callback) override;
  uint64_t capacity_bytes() const override { return spec_.capacity_bytes; }
  uint32_t block_size() const override { return spec_.block_size; }
  uint32_t inflight() const override { return inflight_; }
  // A read takes its bytes when it completes, so the bytes a queued or
  // in-service read covers are kept until the next write replaces them:
  // it returns what it would have without the discard.
  void Discard(uint64_t offset, uint64_t length) override;

  const SsdSpec& spec() const { return spec_; }
  const SsdStats& stats() const { return *stats_; }

  // Count into the SsdStats at `scope` (e.g. "node3.engine.ssd0"), which
  // publishes reads, writes and their bytes, and record the latency
  // histograms there. The stats and every instrument under the scope are
  // zeroed, so a re-attached or replacement device starts fresh. Until
  // then the device counts into a struct of its own.
  void AttachMetrics(const obs::Scope& scope);

  // Instantaneous queue occupancies — the paper's intra-JBOF engine sizes
  // its token pool from observed device behaviour; tests use these too.
  size_t read_queue_depth() const { return read_queue_.size(); }
  SimTime write_pipe_backlog() const;

 private:
  struct Pending {
    IoRequest request;
    IoCallback callback;
    SimTime submitted_at;
    double latency_factor = 1.0;  // injected spike multiplier (sim/fault.h)
  };

  void TryStartReads();
  void StartRead(Pending p);
  double JitterFactor();

  Simulator& sim_;
  SsdSpec spec_;
  PageStore store_;
  Rng rng_;
  obs::Scope scope_;
  SsdStats* stats_;  // registry-owned
  // Null until AttachMetrics.
  Histogram* read_us_ = nullptr;   // submit -> completion (incl. queueing)
  Histogram* write_us_ = nullptr;  // submit -> ack

  std::deque<Pending> read_queue_;
  uint32_t reads_in_service_ = 0;
  // Device ranges [begin, end) of the reads in service, in no order.
  std::vector<std::pair<uint64_t, uint64_t>> serving_;
  SimTime write_pipe_free_at_ = 0;
  uint32_t inflight_ = 0;
};

}  // namespace leed::sim
