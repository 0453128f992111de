// Figure 9 — throughput timeline during a node join followed by a node
// leave, 3-node LEED cluster (R=3), YCSB-A and YCSB-B at 1KB.
//
// Paper shape: throughput drops 49.1%/15.9% (A/B) after the join starts and
// 66.0%/43.9% after the leave starts (COPY writes compete with foreground
// traffic; the leaving path also serves ongoing requests), recovering after
// each transition completes; brief extra dips from cross-view NACK
// rejections near the end of the join.

#include <cstdio>

#include "bench/bench_util.h"

using namespace leed;

int main() {
  bench::PrintHeader("Figure 9: throughput during node join/leave (1KB)");
  for (auto mix : {workload::Mix::kA, workload::Mix::kB}) {
    ClusterConfig cfg = bench::LeedCluster(3);
    ClusterSim cluster(std::move(cfg));
    cluster.Bootstrap();
    const uint64_t keys = 20'000;
    cluster.Preload(keys, 1024);

    workload::YcsbConfig wc;
    wc.mix = mix;
    wc.num_keys = keys;
    wc.value_size = 1024;
    wc.seed = 0xf19;
    workload::YcsbGenerator gen(wc);

    // Timeline: steady (1s) -> join a 4th node -> steady -> leave it ->
    // steady. Scaled from the paper's 250s wall-clock to simulated seconds.
    ClusterSim::DriveOptions opt;
    opt.concurrency_per_client = 64;
    opt.warmup = 100 * kMillisecond;
    opt.duration = 6 * kSecond;
    opt.timeline_bucket = 250 * kMillisecond;
    uint32_t joined = UINT32_MAX;
    opt.at_measure_start = [&cluster, &joined] {
      auto& simulator = cluster.simulator();
      simulator.Schedule(1 * kSecond, [&cluster, &joined] {
        std::printf("  [t=+1.0s] join started\n");
        joined = cluster.JoinNode();
      });
      simulator.Schedule(4 * kSecond, [&cluster, &joined] {
        if (joined == UINT32_MAX) return;
        std::printf("  [t=+4.0s] leave started\n");
        cluster.LeaveNode(joined);
      });
    };
    std::printf("\n%s-1KB timeline:\n", workload::MixName(mix));
    RunResult r = cluster.Run(gen, opt);

    bench::PrintRow({"t(s)", "KQPS"}, 10);
    double baseline_kqps = 0;
    double min_join = 1e18, min_leave = 1e18;
    for (auto& [t, qps] : r.timeline) {
      bench::PrintRow({bench::Fmt("%.2f", t), bench::Fmt("%.1f", qps / 1e3)}, 10);
      if (t < 1.0) baseline_kqps = std::max(baseline_kqps, qps / 1e3);
      if (t >= 1.0 && t < 4.0) min_join = std::min(min_join, qps / 1e3);
      if (t >= 4.0) min_leave = std::min(min_leave, qps / 1e3);
    }
    if (baseline_kqps > 0) {
      std::printf("max drop during join: %.1f%% (paper %s), during leave: "
                  "%.1f%% (paper %s)\n",
                  100.0 * (1.0 - min_join / baseline_kqps),
                  mix == workload::Mix::kA ? "49.1%" : "15.9%",
                  100.0 * (1.0 - min_leave / baseline_kqps),
                  mix == workload::Mix::kA ? "66.0%" : "43.9%");
    }
  }
  return 0;
}
