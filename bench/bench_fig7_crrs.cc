// Figure 7 — CRRS (Chain Replication with Request Shipping) on/off under
// Zipf skew sweep, YCSB-B and YCSB-C, 3-node LEED cluster, R=3.
//
// Paper shape: with low skew CRRS has little effect; at 0.9/0.95/0.99 skew
// on YCSB-C it improves throughput by 7.3x/5.1x/4.2x and cuts avg/99.9p
// latency by up to ~87%/96% — one hot tail no longer bottlenecks reads,
// since clean replicas serve them and the client picks the replica with the
// most tokens.
//
// The grid's 20 cluster runs are independent, so they fan out across
// $LEED_BENCH_JOBS sweep workers (docs/PARALLEL_SIM.md) with a per-run
// metrics registry each; cells are index-addressed and printed afterwards,
// so the table and the per-run JSON are identical for any jobs value.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "sim/sweep.h"

using namespace leed;

namespace {

struct Point {
  double kqps;
  double avg_ms;
  double p999_ms;
};

Point RunOne(workload::Mix mix, double skew, bool crrs,
             obs::Registry* registry) {
  ClusterConfig cfg = bench::LeedCluster(3);
  cfg.node.metrics_registry = registry;
  cfg.node.crrs = crrs;
  cfg.client.crrs_reads = crrs;
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  const uint64_t keys = 10'000;
  cluster.Preload(keys, 1024);

  bench::YcsbRun run;
  run.mix = mix;
  run.value_size = 1024;
  run.zipf_theta = skew;
  run.preload_keys = keys;
  run.concurrency = 96;
  run.duration = 200 * kMillisecond;
  run.label = std::string("fig7_") + workload::MixName(mix) + "_skew" +
              bench::Fmt("%.2f", skew) + (crrs ? "_crrs" : "_nocrrs");
  RunResult r = bench::DriveYcsb(cluster, run);
  return {r.throughput_qps / 1e3, r.latency_us.Mean() / 1e3,
          r.latency_us.P999() / 1e3};
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 7: CRRS on/off vs Zipf skewness (YCSB-B, YCSB-C)");
  const double skews[] = {0.1, 0.5, 0.9, 0.95, 0.99};
  const workload::Mix mixes[] = {workload::Mix::kB, workload::Mix::kC};

  struct Cell {
    workload::Mix mix;
    double skew;
    bool crrs;
    Point p{};
  };
  std::vector<Cell> grid;
  for (auto mix : mixes) {
    for (double skew : skews) {
      for (bool crrs : {true, false}) grid.push_back({mix, skew, crrs});
    }
  }

  sim::ParallelFor(static_cast<uint32_t>(grid.size()), bench::BenchJobs(),
                   [&](uint32_t i) {
                     obs::Registry registry;
                     grid[i].p =
                         RunOne(grid[i].mix, grid[i].skew, grid[i].crrs,
                                &registry);
                   });

  size_t idx = 0;
  for (auto mix : mixes) {
    std::printf("\n%s:\n", workload::MixName(mix));
    bench::PrintRow({"skew", "thr w/ KQPS", "thr w/o", "avg w/ ms", "avg w/o",
                     "p999 w/ ms", "p999 w/o"},
                    13);
    for (double skew : skews) {
      const Point with = grid[idx++].p;
      const Point without = grid[idx++].p;
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
      "\nShape check: gains grow with skew (paper: up to 4.2-7.3x throughput\n"
      "and 63-96%% tail-latency reduction on YCSB-C at 0.9-0.99 skew).\n");
  return 0;
}
