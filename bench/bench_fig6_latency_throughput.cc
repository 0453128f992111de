// Figure 6 — average latency vs. throughput for the six YCSB workloads at
// 1KB object size, comparing Embedded-FAWN(10), Server-KVell(3), and
// SmartNIC-LEED(3). Open-loop Poisson arrivals swept over issue rates.
//
// Paper shape: Server-KVell reaches the highest absolute throughput (beefy
// cores + 8 SSDs/node), ~2.9x LEED on average; FAWN(10) saturates earliest
// (22x under KVell); near its own saturation point LEED delivers the
// lowest average latency of the three (flow control throttles before
// queues build).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace leed;

namespace {

struct SweepPoint {
  double offered_kqps;
  double achieved_kqps;
  double avg_latency_ms;
};

std::vector<SweepPoint> Sweep(const char* name, ClusterConfig cfg,
                              workload::Mix mix, uint32_t value_size,
                              const std::vector<double>& rates_kqps) {
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  const uint64_t keys = 6000;
  cluster.Preload(keys, value_size);

  std::vector<SweepPoint> points;
  for (double rate : rates_kqps) {
    workload::YcsbConfig wc;
    wc.mix = mix;
    wc.num_keys = keys;
    wc.value_size = value_size;
    wc.seed = 0x6a1 + static_cast<uint64_t>(rate);
    workload::YcsbGenerator gen(wc);

    ClusterSim::DriveOptions opt;
    opt.open_loop_qps = rate * 1e3;
    opt.warmup = 30 * kMillisecond;
    opt.duration = 150 * kMillisecond;
    RunResult r = cluster.Run(gen, opt);
    points.push_back(SweepPoint{rate, r.throughput_qps / 1e3,
                                r.latency_us.Mean() / 1e3});
    // Stop sweeping once badly saturated (latency > 50ms or achieving <60%).
    if (r.latency_us.Mean() > 50'000 ||
        r.throughput_qps < rate * 1e3 * 0.6) {
      break;
    }
  }
  std::printf("\n%s:\n", name);
  bench::PrintRow({"offered KQPS", "achieved KQPS", "avg latency ms"}, 16);
  for (auto& p : points) {
    bench::PrintRow({bench::Fmt("%.0f", p.offered_kqps),
                     bench::Fmt("%.1f", p.achieved_kqps),
                     bench::Fmt("%.2f", p.avg_latency_ms)},
                    16);
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  // 256B companion figure (Fig. 14) runs the same harness via a flag.
  uint32_t value_size = 1024;
  if (argc > 1 && std::string(argv[1]) == "--256") value_size = 256;
  bench::PrintHeader(value_size == 1024
                         ? "Figure 6: latency vs throughput, 6 YCSB mixes, 1KB"
                         : "Figure 14: latency vs throughput, 6 YCSB mixes, 256B");

  const workload::Mix mixes[] = {workload::Mix::kA, workload::Mix::kB,
                                 workload::Mix::kC, workload::Mix::kD,
                                 workload::Mix::kF, workload::Mix::kWriteOnly};
  for (auto mix : mixes) {
    std::printf("\n=== %s (%uB) ===\n", workload::MixName(mix), value_size);
    Sweep("Embedded-FAWN(10)", bench::FawnCluster(10), mix,
          value_size, {2, 12, 30});
    Sweep("Server-KVell(3)", bench::KvellCluster(3), mix,
          value_size, {300, 1500, 3500});
    Sweep("SmartNIC-LEED(3)", bench::LeedCluster(3), mix,
          value_size, {300, 1000, 1700});
  }
  return 0;
}
