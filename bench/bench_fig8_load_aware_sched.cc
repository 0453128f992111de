// Figure 8 — load-aware scheduling ("LS": the token-based intra-JBOF engine
// + flow-control-based inter-JBOF scheduler) on/off, YCSB-B and YCSB-C,
// Zipf skew sweep.
//
// "Off" disables both halves: the client scheduler fires requests without
// consulting tokens (pure load-agnostic issue) and the engine executes FCFS
// without token admission.
//
// Paper shape (YCSB-B): +52.2% throughput, -34.4%/-33.7% avg/99.9p latency
// with LS on; at extreme skew (0.95/0.99 YCSB-C incast) queues still build
// because the token round-trip lags the burst.

#include <cstdio>

#include "bench/bench_util.h"

using namespace leed;

namespace {

struct Point {
  double kqps;
  double avg_ms;
  double p999_ms;
};

Point RunOne(workload::Mix mix, double skew, bool ls) {
  ClusterConfig cfg = bench::LeedCluster(3);
  cfg.client.flow_control = ls;
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  if (!ls) {
    for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      cluster.node(n).leed_engine()->set_admission_control(false);
    }
  }
  const uint64_t keys = 10'000;
  cluster.Preload(keys, 1024);

  bench::YcsbRun run;
  run.mix = mix;
  run.value_size = 1024;
  run.zipf_theta = skew;
  run.preload_keys = keys;
  run.concurrency = 320;
  run.duration = 200 * kMillisecond;
  RunResult r = bench::DriveYcsb(cluster, run);
  return {r.throughput_qps / 1e3, r.latency_us.Mean() / 1e3,
          r.latency_us.P999() / 1e3};
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 8: load-aware scheduling (LS) on/off vs Zipf skewness");
  const double skews[] = {0.1, 0.5, 0.9, 0.95, 0.99};
  for (auto mix : {workload::Mix::kB, workload::Mix::kC}) {
    std::printf("\n%s:\n", workload::MixName(mix));
    bench::PrintRow({"skew", "thr w/LS", "thr w/o", "avg w/LS ms", "avg w/o",
                     "p999 w/LS", "p999 w/o"},
                    13);
    for (double skew : skews) {
      Point with = RunOne(mix, skew, true);
      Point without = RunOne(mix, skew, false);
      bench::PrintRow({bench::Fmt("%.2f", skew), bench::Fmt("%.1f", with.kqps),
                       bench::Fmt("%.1f", without.kqps),
                       bench::Fmt("%.2f", with.avg_ms),
                       bench::Fmt("%.2f", without.avg_ms),
                       bench::Fmt("%.2f", with.p999_ms),
                       bench::Fmt("%.2f", without.p999_ms)},
                      13);
    }
  }
  std::printf(
      "\nShape check (paper, YCSB-B): LS improves throughput ~52%% and cuts\n"
      "avg/tail latency ~34%%; benefits shrink under extreme incast skew.\n");
  return 0;
}
