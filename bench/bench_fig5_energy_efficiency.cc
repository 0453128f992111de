// Figure 5 — energy efficiency (KQueries per Joule) of the three systems
// (Embedded-FAWN, Server-KVell, SmartNIC-LEED) across six YCSB workloads,
// for 256B and 1KB objects. Replication factor 3; default YCSB skew 0.99.
//
// Paper shape (1KB): LEED ~5-8 KQ/J, KVell ~1.4-2 KQ/J, FAWN ~0.2-0.4 KQ/J;
// LEED beats KVell by 4.2x/3.8x (256B/1KB) and FAWN by 17.5x/19.1x on
// average; exception: read-only YCSB-C where KVell's in-memory sorted index
// wins on throughput (7 vs 5 KQ/J at 1KB).

#include <cstdio>

#include "bench/bench_util.h"

using namespace leed;

namespace {

double RunSystem(const char* name, ClusterConfig cfg, workload::Mix mix,
                 uint32_t value_size, uint64_t keys, uint32_t concurrency) {
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  cluster.Preload(keys, value_size);
  bench::YcsbRun run;
  run.mix = mix;
  run.value_size = value_size;
  run.preload_keys = keys;
  run.concurrency = concurrency;
  run.duration = 200 * kMillisecond;
  run.label = std::string("fig5_") + name + "_" + workload::MixName(mix) + "_" +
              std::to_string(value_size);
  RunResult r = bench::DriveYcsb(cluster, run);
  return r.queries_per_joule / 1e3;  // KQueries/J
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 5: energy efficiency (KQueries/Joule), 3 systems x 6 workloads");

  const workload::Mix mixes[] = {workload::Mix::kA, workload::Mix::kB,
                                 workload::Mix::kC, workload::Mix::kD,
                                 workload::Mix::kF, workload::Mix::kWriteOnly};

  for (uint32_t value_size : {256u, 1024u}) {
    std::printf("\n--- %uB objects ---\n", value_size);
    bench::PrintRow({"workload", "FAWN(10) KQ/J", "KVell(3) KQ/J",
                     "LEED(3) KQ/J", "LEED/KVell", "LEED/FAWN"},
                    15);
    double sum_ratio_kvell = 0, sum_ratio_fawn = 0;
    for (auto mix : mixes) {
      const uint64_t keys = 12'000;
      double fawn = RunSystem("fawn", bench::FawnCluster(10), mix,
                              value_size, keys, 8);
      double kvell = RunSystem("kvell", bench::KvellCluster(3), mix,
                               value_size, keys, 96);
      double leed_eff = RunSystem("leed", bench::LeedCluster(3),
                                  mix, value_size, keys, 96);
      sum_ratio_kvell += kvell > 0 ? leed_eff / kvell : 0;
      sum_ratio_fawn += fawn > 0 ? leed_eff / fawn : 0;
      bench::PrintRow({workload::MixName(mix), bench::Fmt("%.2f", fawn),
                       bench::Fmt("%.2f", kvell), bench::Fmt("%.2f", leed_eff),
                       bench::Fmt("%.1fx", kvell > 0 ? leed_eff / kvell : 0),
                       bench::Fmt("%.1fx", fawn > 0 ? leed_eff / fawn : 0)},
                      15);
    }
    std::printf("mean ratios: LEED/KVell %.1fx (paper %s), LEED/FAWN %.1fx "
                "(paper %s)\n",
                sum_ratio_kvell / 6, value_size == 256 ? "4.2x" : "3.8x",
                sum_ratio_fawn / 6, value_size == 256 ? "17.5x" : "19.1x");
  }
  return 0;
}
