// The benchmark's workloads and its load driver.
//
// The driver builds the SmartNIC-LEED cluster itself and issues load over
// the public Client::Get/Put/Scan API from its own closed and open loops.
// It does not call ClusterSim::Run: that loop's open-loop arm is dead and
// it issues YCSB-F's read-modify-write as a plain PUT, so a later repair of
// it must not move this benchmark's baseline.
//
// Two clocks: "sim" numbers are what the modelled LEED achieves (simulated
// nanoseconds, deterministic for a seed); "host" numbers are what running
// the simulator costs (process CPU time and memory of this process).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "workload/ycsb.h"

namespace leedbench {

using leed::SimTime;

struct WorkloadSpec {
  std::string name;
  std::string why;
  leed::workload::Mix mix;
  uint64_t keys;                // preloaded population
  uint32_t max_scan_len = 16;   // YCSB-E only
  double open_rate_qps = 0;     // > 0: Poisson open loop at this rate
  // Closed loop: ops each client keeps in flight. Open loop: the in-flight
  // cap past which an arrival is shed.
  uint32_t window_per_client = 64;
  // Measured window in simulated ms per host second of --seconds; sized so
  // a run takes about --seconds of host time on a 2020s x86 core.
  double sim_ms_per_host_s;
  uint64_t partition_bytes = 0;  // per-store log space; 0 = engine default
  // Simulated warmup before the window: long enough for the logs to fill
  // and compaction to reach its steady rate where the workload compacts.
  SimTime warmup = 50 * leed::kMillisecond;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct DriveOptions {
  SimTime warmup = 50 * leed::kMillisecond;  // main() takes it from the workload
  SimTime window = 500 * leed::kMillisecond;
  bool trace = false;
  // Trace mode: where the benchmark's own spans are written ("" = nowhere).
  std::string span_prefix;
};

// Exact latency summary over every sample (simulated ns).
struct Latency {
  uint64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t beyond_p999 = 0;  // samples strictly above p999
};

struct DriveResult {
  // End-to-end, simulated clock.
  double sim_kqps = 0;
  double sim_goodput_kqps = 0;
  double sim_kq_per_joule = 0;
  double offered_kqps = 0;  // open loop: arrivals per simulated second
  uint64_t shed = 0;        // open loop: arrivals in the window never issued
  Latency get, put, scan;
  // Outcome accounting over ops issued in the measured window.
  uint64_t attempted = 0;
  uint64_t failed = 0;          // error status or retries exhausted
  uint64_t wrong_results = 0;   // checker misses, read-back included
  uint64_t readback_keys = 0;
  std::map<std::string, uint64_t> failures_by_status;
  std::vector<std::string> wrong_examples;  // the first few, explained
  // End-to-end, host clock.
  double host_cpu_us_per_op = 0;      // median over window slices, scaled
  double host_cpu_us_per_op_raw = 0;  // the same, unscaled
  // Per-layer metrics by name (trace runs report them; guards use them on
  // every run).
  std::map<std::string, double> layer;
  // Every registry counter after the window, for the determinism check.
  std::map<std::string, uint64_t> counters;
  uint64_t trace_dropped = 0;
  std::vector<std::string> guard_failures;
};

// One cluster for one workload and seed.
class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Build the cluster, Bootstrap and Preload. Returns host CPU seconds,
  // scaled by HostSpeedFactor.
  double Setup();
  DriveResult Drive(const DriveOptions& options);

  // The model configuration this workload runs with, one "field=value" per
  // line, and its 64-bit FNV-1a hash.
  std::string ConfigText() const;
  uint64_t Fingerprint() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

double ProcessCpuSeconds();

// Host CPU time is scaled to a reference host. Other tenants of a shared
// machine slow every cache-missing step of the simulator by tens of
// percent; a fixed pointer-chasing probe run before and after each
// measured span slows with them, and span x (reference probe time / probe
// time) cancels most of that. The probe is the benchmark's own code, so a
// faster simulator still shows in full. Returns the factor for "now".
double HostSpeedFactor();
double PeakRssMb();

}  // namespace leedbench
