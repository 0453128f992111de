// Simulated CPU cores.
//
// "Computing density" is the paper's Challenge C2: a Stingray core must
// drive ~12.5 GbE + 500K IOPS, leaving ~0.96 us per MTU packet. We model a
// core as a FIFO serial resource: a task charges a cycle cost, the core is
// busy for cycles/frequency, and the continuation fires when the work
// retires. Per-op cycle costs for each store are the calibration constants
// listed in DESIGN.md §4; everything downstream (who saturates first, where
// KVell's B-tree becomes the bottleneck on ARM) emerges from these charges.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace leed::sim {

class CpuCore {
 public:
  CpuCore(Simulator& simulator, double freq_ghz)
      : sim_(simulator), freq_ghz_(freq_ghz) {}

  // Execute work costing `cycles`, then run fn. Work queues FIFO behind
  // whatever the core is already committed to.
  void Run(uint64_t cycles, EventFn fn);

  // Account for work with no continuation (e.g. bookkeeping folded into a
  // larger operation).
  void Charge(uint64_t cycles);

  SimTime CyclesToNs(uint64_t cycles) const {
    return static_cast<SimTime>(static_cast<double>(cycles) / freq_ghz_);
  }

  SimTime busy_until() const { return busy_until_; }
  SimTime total_busy_ns() const { return total_busy_ns_; }

  // Fraction of [0, window] the core spent executing.
  double Utilization(SimTime window_ns) const;

  double freq_ghz() const { return freq_ghz_; }

 private:
  Simulator& sim_;
  double freq_ghz_;
  SimTime busy_until_ = 0;
  SimTime total_busy_ns_ = 0;
};

// A node's cores. Static partitioning (paper §3.4: cores 0-3 drive NVMe
// 0-3, cores 4-6 poll the NIC, core 7 does control plane) is expressed by
// the caller picking which core a task runs on.
class CpuModel {
 public:
  CpuModel(Simulator& simulator, uint32_t num_cores, double freq_ghz);

  CpuCore& core(uint32_t i) { return cores_.at(i); }
  const CpuCore& core(uint32_t i) const { return cores_.at(i); }
  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }

  // Mean utilization across cores over [0, window].
  double MeanUtilization(SimTime window_ns) const;

 private:
  std::vector<CpuCore> cores_;
};

}  // namespace leed::sim
