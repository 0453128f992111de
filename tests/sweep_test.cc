// Tests for parallel simulation (docs/PARALLEL_SIM.md) and replay:
//
//   * the seed-parallel sweep driver (sim/sweep.h) — index coverage, pool
//     reuse, and the jobs=1 serial-oracle contract;
//   * end to end: nemesis sweeps must produce identical verdicts and
//     histories for every --jobs value, and a full ClusterSim run must
//     replay byte for byte from its seed — the unit-level form of CI's
//     replay gate.
//
// Wall-clock speedup is deliberately NOT asserted here: these tests run on
// arbitrary (possibly single-core) machines. The speedup gates live in CI,
// which pins its runner shape.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/nemesis.h"
#include "leed/cluster_sim.h"
#include "obs/metrics.h"
#include "sim/sweep.h"
#include "workload/ycsb.h"

namespace leed {
namespace {

// ---------------------------------------------------------------------------
// Sweep driver.
// ---------------------------------------------------------------------------

TEST(SweepTest, ResolveJobs) {
  EXPECT_EQ(sim::ResolveJobs(1), 1u);
  EXPECT_EQ(sim::ResolveJobs(3), 3u);
  EXPECT_EQ(sim::ResolveJobs(17), 17u);
  // 0 = "all host cores": whatever that resolves to, it is never zero.
  EXPECT_GE(sim::ResolveJobs(0), 1u);
}

TEST(SweepTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (uint32_t jobs : {1u, 2u, 4u}) {
    for (uint32_t count : {0u, 1u, 7u, 64u}) {
      std::vector<std::atomic<uint32_t>> hits(count);
      sim::ParallelFor(count, jobs, [&hits](uint32_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1u)
            << "jobs=" << jobs << " count=" << count << " index=" << i;
      }
    }
  }
}

TEST(SweepTest, SerialJobsRunInOrderOnCallingThread) {
  // jobs=1 is the replay/debug oracle: a plain loop, no threads, index
  // order. The trace vector is unsynchronized on purpose — TSan would
  // flag any worker thread touching it.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint32_t> order;
  sim::ParallelFor(16, 1, [&](uint32_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(SweepTest, TaskPoolIsReusableAcrossRounds) {
  sim::TaskPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  for (int round = 0; round < 20; ++round) {
    // Vary the count across rounds, including counts below the pool size
    // and empty rounds — workers must park and re-wake cleanly.
    const uint32_t count = static_cast<uint32_t>(round % 5) * 7;
    std::atomic<uint64_t> sum{0};
    pool.Run(count, [&sum](uint32_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<uint64_t>(count) * (count + 1) / 2)
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// End to end: the replay-gate property at unit-test scale.
// ---------------------------------------------------------------------------

std::string Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing " << path;
  if (!f) return {};
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Nemesis sweeps must produce identical per-seed results and identical
// history bytes for every jobs value. "crash" covers crash/restart faults;
// "churn" covers join/leave membership churn (vnode moves cancel and
// re-arm timers).
TEST(NemesisParallelTest, JobsValuesAreByteIdentical) {
  for (const std::string& plan : {std::string("crash"), std::string("churn")}) {
    std::vector<check::NemesisResult> results;
    std::vector<std::string> histories;
    for (const uint32_t jobs : {1u, 2u}) {
      check::NemesisOptions opt;
      opt.base_seed = 7;
      opt.seeds = 2;
      opt.plan = plan;
      opt.num_keys = 8;
      opt.num_clients = 2;
      opt.ops_per_client = 60;
      opt.run_for = 120 * kMillisecond;
      opt.jobs = jobs;
      opt.history_out = std::string(testing::TempDir()) + "/nemesis_" + plan +
                        "_j" + std::to_string(jobs) + ".history";
      results.push_back(check::RunNemesisSweep(opt));
      histories.push_back(Slurp(opt.history_out));
      ASSERT_FALSE(histories.back().empty());
    }

    const check::NemesisResult& base = results[0];
    ASSERT_EQ(base.seeds.size(), 2u);
    for (size_t v = 1; v < results.size(); ++v) {
      const check::NemesisResult& r = results[v];
      ASSERT_EQ(r.seeds.size(), base.seeds.size()) << "variant " << v;
      for (size_t i = 0; i < base.seeds.size(); ++i) {
        EXPECT_EQ(r.seeds[i].seed, base.seeds[i].seed);
        EXPECT_EQ(r.seeds[i].verdict, base.seeds[i].verdict)
            << "plan=" << plan << " variant=" << v << " seed index " << i;
        EXPECT_EQ(r.seeds[i].ops, base.seeds[i].ops);
        EXPECT_EQ(r.seeds[i].completed, base.seeds[i].completed);
        EXPECT_EQ(r.seeds[i].steps, base.seeds[i].steps);
        EXPECT_EQ(r.seeds[i].violations.size(), base.seeds[i].violations.size());
      }
      EXPECT_EQ(r.violating_seeds, base.violating_seeds);
      EXPECT_EQ(r.inconclusive_seeds, base.inconclusive_seeds);
      EXPECT_EQ(histories[v], histories[0])
          << "plan=" << plan << " variant " << v
          << ": history bytes diverged from the serial oracle";
    }
  }
}

// A full ClusterSim run replays from its seed: two runs with the same seed
// agree on completion counts, simulator event count, and the metrics
// snapshot of an injected per-run registry; a different seed diverges.
TEST(ClusterReplayTest, SameSeedRunsAreByteIdentical) {
  struct Outcome {
    uint64_t completed;
    uint64_t errors;
    uint64_t events;
    std::string metrics;
  };
  auto run = [](uint64_t seed) {
    obs::Registry registry;
    ClusterConfig cfg;
    cfg.num_nodes = 3;
    cfg.num_clients = 2;
    cfg.seed = seed;
    cfg.node.platform = sim::StingrayJbof();
    cfg.node.stack = StackKind::kLeed;
    cfg.node.crrs = true;
    cfg.node.metrics_registry = &registry;
    cfg.node.engine.ssd_count = 2;
    cfg.node.engine.stores_per_ssd = 2;
    cfg.node.engine.ssd = sim::Dct983Spec();
    cfg.node.engine.ssd.capacity_bytes = 1ull << 30;
    cfg.node.engine.store_template.num_segments = 512;
    cfg.node.engine.store_template.bucket_size = 512;
    cfg.client.crrs_reads = true;
    cfg.client.stores_per_ssd = 2;
    cfg.control_plane.replication_factor = 3;

    ClusterSim cluster(std::move(cfg));
    cluster.Bootstrap();
    cluster.Preload(64, 64);

    workload::YcsbConfig wc;
    wc.mix = workload::Mix::kB;
    wc.num_keys = 64;
    wc.value_size = 64;
    wc.zipf_theta = 0.9;
    wc.seed = seed ^ 0x5eed;
    workload::YcsbGenerator gen(wc);

    ClusterSim::DriveOptions opt;
    opt.concurrency_per_client = 8;
    opt.warmup = 10 * kMillisecond;
    opt.duration = 60 * kMillisecond;
    RunResult r = cluster.Run(gen, opt);
    return Outcome{r.completed, r.errors,
                   cluster.simulator().events_executed(),
                   registry.SnapshotJson()};
  };

  const Outcome first = run(0xabc);
  const Outcome second = run(0xabc);
  ASSERT_GT(first.completed, 0u);
  EXPECT_EQ(second.completed, first.completed);
  EXPECT_EQ(second.errors, first.errors);
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.metrics, first.metrics);

  // The oracle must be able to fail: a different seed changes the run.
  const Outcome other = run(0xabd);
  EXPECT_NE(other.metrics, first.metrics);
}

}  // namespace
}  // namespace leed
