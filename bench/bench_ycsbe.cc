// YCSB-E — the scan-heavy mix (95% SCAN over uniform lengths in
// [1, max_scan_len], 5% INSERT) on SmartNIC-LEED(3), exercising the DRAM
// range index end-to-end: ordered snapshot, budgeted value fetches, CRRS
// dirty-window parking, and scan-shaped flow-control charges
// (ScanTokenCost). Baselines are absent by design: their hash stacks
// expose no ordered view and reject SCAN outright (docs/BENCHMARKS.md).
//
// Reported per scan length: closed-loop throughput, mean/p99 op latency,
// and items returned per completed op (the effective scan yield, < length
// when the ordered run is shorter than the cap). With $LEED_BENCH_JSON_DIR
// set, the default-length run writes BENCH_ycsbe.json for CI.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace leed;

namespace {

struct Point {
  uint32_t scan_len;
  RunResult result;
};

Point RunE(uint32_t max_scan_len, bool json) {
  ClusterConfig cfg = bench::LeedCluster(3);
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  const uint64_t keys = 6000;
  cluster.Preload(keys, 1024);

  bench::YcsbRun run;
  run.mix = workload::Mix::kE;
  run.value_size = 1024;
  run.preload_keys = keys;
  run.concurrency = 32;
  if (json) run.label = "ycsbe";

  workload::YcsbConfig wc;
  wc.mix = run.mix;
  wc.num_keys = keys;
  wc.value_size = run.value_size;
  wc.max_scan_len = max_scan_len;
  wc.seed = cluster.config().seed ^ 0x5eed;
  workload::YcsbGenerator gen(wc);

  ClusterSim::DriveOptions opt;
  opt.concurrency_per_client = run.concurrency;
  opt.warmup = run.warmup;
  opt.duration = run.duration;
  RunResult result = cluster.Run(gen, opt);
  bench::MaybeWriteBenchJson(run.label, result, {}, cluster.registry());
  return Point{max_scan_len, std::move(result)};
}

}  // namespace

int main() {
  bench::PrintHeader("YCSB-E: scan-heavy mix on SmartNIC-LEED(3), 1KB");

  // 16 is the headline configuration (and the one CI archives as JSON);
  // the sweep shows throughput falling as scans lengthen while per-op
  // token charges keep admission stable.
  const uint32_t lengths[] = {4, 16, 64};
  bench::PrintRow({"max scan len", "KQPS", "mean ms", "p99 ms",
                   "items/op"},
                  14);
  for (uint32_t len : lengths) {
    Point p = RunE(len, /*json=*/len == 16);
    const double per_op =
        p.result.completed
            ? static_cast<double>(p.result.scan_items) / p.result.completed
            : 0.0;
    bench::PrintRow({std::to_string(len),
                     bench::Fmt("%.1f", p.result.throughput_qps / 1e3),
                     bench::Fmt("%.2f", p.result.latency_us.Mean() / 1e3),
                     bench::Fmt("%.2f", p.result.latency_us.Percentile(0.99) /
                                            1e3),
                     bench::Fmt("%.2f", per_op)},
                    14);
  }
  return 0;
}
