// Figure 10 — intra-JBOF data swapping on/off under an imbalanced
// write-only workload, skew sweep, 256B and 1KB objects.
//
// Workload construction note: the paper drives Zipf over 1.6 B keys, which
// produces *per-SSD aggregate imbalance* (some partitions carry 2-3x the
// write load) while no individual key is hot enough to serialize a
// segment. At our scaled key count, a plain key-level Zipf concentrates
// ~10% of traffic on one key and the hot segment lock binds first — a
// regime swapping cannot help (and the real system could not either). We
// therefore generate the paper's regime directly: the *partition* is drawn
// Zipf(θ), the key uniformly within it.
//
// Paper shape: the higher the skew, the bigger the win — +15.4%/+17.2%
// throughput at 0.99 skew (256B/1KB) and ~29-32% avg/99.9p latency savings
// across skewed runs.

#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "bench/bench_util.h"

using namespace leed;

namespace {

struct Point {
  double kqps;
  double avg_ms;
  double p999_ms;
  uint64_t activations;
  uint64_t swapped_puts;
};

Point RunOne(uint32_t value_size, double skew, bool swap_enabled) {
  ClusterConfig cfg = bench::LeedCluster(3);
  cfg.node.engine.swap_gap_threshold = 16;
  cfg.node.engine.swap_check_period = 200 * kMicrosecond;
  cfg.node.engine.enable_data_swap = swap_enabled;
  // Slow the program pipe so per-SSD write bandwidth (not CPU) binds.
  cfg.node.engine.ssd.write_min_occupancy_ns = 8 * kMicrosecond;
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  const uint64_t keys = 12'000;
  cluster.Preload(keys, value_size);

  // Group keys by the chain head's (node, ssd) — the write-landing SSD.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<uint64_t>> by_ssd;
  const auto& view = cluster.control_plane().view();
  for (uint64_t i = 0; i < keys; ++i) {
    auto chain = view.ChainForKey(workload::YcsbGenerator::KeyName(i));
    const auto* info = view.Find(chain[0]);
    by_ssd[{info->owner_node, info->local_store / 4}].push_back(i);
  }
  std::vector<std::vector<uint64_t>> groups;
  for (auto& [ssd, ids] : by_ssd) {
    (void)ssd;
    groups.push_back(std::move(ids));
  }

  workload::YcsbConfig wc;
  wc.num_keys = keys;
  wc.value_size = value_size;
  workload::YcsbGenerator gen(wc);
  ZipfGenerator hot_partition(groups.size(), skew, /*scramble=*/false);
  Rng rng(0xd5 + static_cast<uint64_t>(skew * 100) + (swap_enabled ? 1 : 0));

  auto& simulator = cluster.simulator();
  const SimTime warmup_end = simulator.Now() + 50 * kMillisecond;
  const SimTime end = warmup_end + 200 * kMillisecond;
  uint64_t completed = 0;
  Histogram lat;
  auto measuring = std::make_shared<bool>(false);
  std::function<void(uint32_t)> issue = [&, measuring](uint32_t c) {
    if (simulator.Now() >= end) return;
    auto& group = groups[hot_partition.Next(rng)];
    uint64_t id = group[rng.NextBounded(group.size())];
    cluster.client(c).Put(
        workload::YcsbGenerator::KeyName(id), gen.MakeValue(id, 1),
        [&, measuring, c](Status st, SimTime l) {
          if (*measuring && st.ok()) {
            ++completed;
            lat.Record(ToMicros(l));
          }
          issue(c);
        });
  };
  for (uint32_t c = 0; c < cluster.num_clients(); ++c) {
    for (int s = 0; s < 48; ++s) issue(c);
  }
  simulator.At(warmup_end, [measuring] { *measuring = true; });
  simulator.RunUntil(end);
  *measuring = false;
  simulator.RunUntil(end + 100 * kMillisecond);

  Point p;
  p.kqps = completed / ToSeconds(end - warmup_end) / 1e3;
  p.avg_ms = lat.Mean() / 1e3;
  p.p999_ms = lat.P999() / 1e3;
  p.activations = 0;
  p.swapped_puts = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    auto* eng = cluster.node(n).leed_engine();
    p.activations += eng->stats().swap_activations;
    for (uint32_t s = 0; s < eng->num_stores(); ++s) {
      p.swapped_puts += eng->data_store(s).stats().swap_puts;
    }
  }
  return p;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 10: data swapping on/off, write-only partition-skew sweep");
  const double skews[] = {0.1, 0.5, 0.9, 0.95, 0.99};
  for (uint32_t value_size : {1024u, 256u}) {
    std::printf("\n%uB objects:\n", value_size);
    bench::PrintRow({"skew", "thr w/DS", "thr w/o", "avg w/DS ms", "avg w/o",
                     "p999 w/DS", "p999 w/o", "swapped PUTs"},
                    13);
    for (double skew : skews) {
      Point with = RunOne(value_size, skew, true);
      Point without = RunOne(value_size, skew, false);
      bench::PrintRow(
          {bench::Fmt("%.2f", skew), bench::Fmt("%.1f", with.kqps),
           bench::Fmt("%.1f", without.kqps), bench::Fmt("%.2f", with.avg_ms),
           bench::Fmt("%.2f", without.avg_ms), bench::Fmt("%.2f", with.p999_ms),
           bench::Fmt("%.2f", without.p999_ms),
           bench::Fmt("%.0f", static_cast<double>(with.swapped_puts))},
          13);
    }
  }
  std::printf(
      "\nShape check (paper): gains grow with skew, ~15-17%% throughput at\n"
      "0.99 and ~29-32%% avg/tail latency savings across skewed runs.\n");
  return 0;
}
