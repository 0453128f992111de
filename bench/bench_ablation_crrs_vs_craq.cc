// Ablation (paper §3.7) — CRRS request shipping vs the rejected CRAQ-style
// version-query alternative vs plain tail-only chain replication, under a
// write-heavy hot-key mix where dirty reads are frequent.
//
// Paper's claim for rejecting version queries: "this approach generates
// more internal traffic across JBOFs and perturbs the traffic pattern."
// We report throughput, latency, and cross-JBOF internal messages per
// client operation for all three designs.

#include <cstdio>

#include "bench/bench_util.h"

using namespace leed;

namespace {

struct Point {
  double kqps;
  double avg_ms;
  double p999_ms;
  double internal_msgs_per_op;
};

Point RunOne(bool crrs, bool craq, double skew) {
  ClusterConfig cfg = bench::LeedCluster(3);
  cfg.node.crrs = crrs;
  cfg.node.craq_version_query = craq;
  cfg.client.crrs_reads = crrs;
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  const uint64_t keys = 10'000;
  cluster.Preload(keys, 1024);

  bench::YcsbRun run;
  run.mix = workload::Mix::kA;  // 50/50: plenty of dirty keys
  run.value_size = 1024;
  run.zipf_theta = skew;
  run.preload_keys = keys;
  run.concurrency = 96;
  run.duration = 200 * kMillisecond;

  // Count cross-node messages before/after (shipped reads, chain traffic,
  // craq queries all ride the same fabric).
  uint64_t msgs0 = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    msgs0 += cluster.network().stats(cluster.node(n).endpoint()).messages_sent;
  }
  RunResult r = bench::DriveYcsb(cluster, run);
  uint64_t msgs1 = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    msgs1 += cluster.network().stats(cluster.node(n).endpoint()).messages_sent;
  }
  Point p;
  p.kqps = r.throughput_qps / 1e3;
  p.avg_ms = r.latency_us.Mean() / 1e3;
  p.p999_ms = r.latency_us.P999() / 1e3;
  p.internal_msgs_per_op =
      r.completed ? static_cast<double>(msgs1 - msgs0) / r.completed : 0;
  return p;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation (3.7): CRRS shipping vs CRAQ version query vs tail-only");
  for (double skew : {0.9, 0.99}) {
    std::printf("\nYCSB-A, Zipf %.2f:\n", skew);
    bench::PrintRow({"design", "KQPS", "avg ms", "p999 ms", "node msgs/op"}, 14);
    struct Case {
      const char* name;
      bool crrs, craq;
    } cases[] = {{"CRRS-ship", true, false},
                 {"CRAQ-query", true, true},
                 {"tail-only", false, false}};
    for (const auto& c : cases) {
      Point p = RunOne(c.crrs, c.craq, skew);
      bench::PrintRow({c.name, bench::Fmt("%.1f", p.kqps),
                       bench::Fmt("%.2f", p.avg_ms),
                       bench::Fmt("%.2f", p.p999_ms),
                       bench::Fmt("%.2f", p.internal_msgs_per_op)},
                      14);
    }
  }
  std::printf(
      "\nShape check: CRAQ resolves dirty reads but adds an extra internal\n"
      "round trip per dirty read (higher msgs/op), which is why the paper\n"
      "chose request shipping.\n");
  return 0;
}
