// leedsim — command-line driver for the LEED cluster simulator.
//
// Lets a user run a configurable experiment without writing C++:
//
//   leedsim --system=leed --nodes=3 --mix=B --value-size=1024
//           --keys=20000 --skew=0.99 --concurrency=64 --duration-ms=500
//
//   leedsim --system=fawn --nodes=10 --mix=C --rate-kqps=20   (open loop)
//
// Prints throughput, latency percentiles, power, and requests/Joule in the
// paper's units, plus per-node counters with --verbose.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "check/nemesis.h"
#include "leed/cluster_sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"

using namespace leed;

namespace {

struct Options {
  std::string system = "leed";  // leed | kvell | fawn
  uint32_t nodes = 3;
  std::string mix = "B";        // A B C D E F WR
  // Named workload preset. "ycsbe" = the ordered-keys mix (docs/BENCHMARKS.md):
  // bench mode drives Mix::kE (95% SCAN / 5% insert); check mode arms a
  // scan-heavy nemesis mix so SCANs race writes across dirty windows.
  std::string workload;
  uint32_t value_size = 1024;
  uint64_t keys = 20'000;
  double skew = 0.99;
  uint32_t concurrency = 64;    // closed loop (per client)
  double rate_kqps = 0;         // >0: open loop instead
  uint64_t duration_ms = 500;
  uint64_t seed = 0x1eed;
  bool crrs = true;
  bool flow_control = true;
  bool data_swap = true;
  bool offload = false;  // host-bypass GET offload (Scalio-style ablation)
  bool verbose = false;
  std::string metrics_out;  // write a registry snapshot (JSON) here
  std::string trace_out;    // enable the event trace and write it here
  std::string fault_plan;   // sim::ParseFaultPlan grammar (docs/FAULTS.md)

  // Parallel execution (docs/PARALLEL_SIM.md). jobs drives the seed sweep
  // in check mode (0 = one per host core); byte-identical to the serial
  // default — CI's replay gate diffs them every push.
  uint32_t jobs = 1;

  // Consistency-checking mode (docs/CHECKING.md): --check=linearizability
  // switches leedsim from benchmarking to a nemesis seed sweep.
  std::string check;
  uint32_t seeds = 8;           // sweep width (seed, seed+1, ...)
  std::string check_plan;       // named plan, raw grammar, or "all"
  std::string check_dump_dir;   // violating histories land here
  std::string history_out;      // full history of the first seed
  bool unsafe_dirty_reads = false;  // TEST-ONLY mutation switch
  bool unsafe_torn_scans = false;   // TEST-ONLY scan mutation switch
  // Check-mode data-loss gate: by default any seed whose recovery abandoned
  // copies (cluster.copies_abandoned > 0) fails the run with exit 1.
  bool allow_data_loss = false;
};

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --system=leed|kvell|fawn   storage stack + platform (default leed)\n"
      "  --nodes=N                  back-end node count (default 3)\n"
      "  --mix=A|B|C|D|E|F|WR       YCSB mix (default B)\n"
      "  --workload=ycsbe           ordered-keys preset: bench mode = --mix=E;\n"
      "                             check mode = scan-heavy nemesis mix\n"
      "  --value-size=BYTES         object size (default 1024)\n"
      "  --keys=N                   preloaded key count (default 20000)\n"
      "  --skew=THETA               Zipf skewness, 0=uniform (default 0.99)\n"
      "  --concurrency=N            closed-loop window per client (default 64)\n"
      "  --rate-kqps=R              open-loop Poisson rate (overrides closed loop)\n"
      "  --duration-ms=MS           measured window (default 500)\n"
      "  --seed=N                   RNG seed (default 0x1eed)\n"
      "  --no-crrs                  disable CRRS read shipping\n"
      "  --no-flow-control          disable Algorithm-1 client scheduling\n"
      "  --no-data-swap             disable intra-JBOF write swapping\n"
      "  --offload                  enable host-bypass GET offload\n"
      "  --verbose                  per-node counters\n"
      "  --metrics-out=FILE         write the metrics-registry snapshot (JSON)\n"
      "  --trace-out=FILE           record the sim event trace and write it (JSON)\n"
      "  --fault-plan=PLAN          arm a fault schedule, e.g.\n"
      "                             'dev:read_err=0.01;net:drop=0.001;"
      "crash:node=2,at_ms=50,restart_ms=120'\n"
      "                             (see docs/FAULTS.md for the grammar)\n"
      "parallel execution (docs/PARALLEL_SIM.md):\n"
      "  --jobs=N                   seed-sweep worker threads in check mode\n"
      "                             (default 1 = serial; 0 = all host cores)\n"
      "consistency checking (docs/CHECKING.md):\n"
      "  --check=linearizability    run a nemesis seed sweep + checker instead\n"
      "                             of a benchmark; exit 0 = all seeds\n"
      "                             linearizable, 1 = violation, 4 = inconclusive\n"
      "  --seeds=N                  sweep width: seeds seed..seed+N-1 (default 8)\n"
      "  --check-plan=P             nemesis plan: crash|partition|churn|ssdkill|\n"
      "                             none|all, or a raw fault-plan grammar\n"
      "                             (default: the --fault-plan value, else\n"
      "                             'partition')\n"
      "  --allow-data-loss          accept seeds with copies_abandoned > 0\n"
      "                             (default: data loss exits 1)\n"
      "  --check-dump-dir=DIR       write violating (minimized) histories here\n"
      "  --history-out=FILE         write the first seed's full history dump\n"
      "  --unsafe-dirty-reads       TEST-ONLY: disable CRRS dirty-bit handling;\n"
      "                             the sweep is expected to FAIL (self-test)\n"
      "  --unsafe-torn-scans        TEST-ONLY: serve SCANs without parking on\n"
      "                             dirty keys; with a scan workload the sweep\n"
      "                             is expected to FAIL (self-test)\n",
      argv0);
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

workload::Mix ParseMix(const std::string& m) {
  if (m == "A") return workload::Mix::kA;
  if (m == "B") return workload::Mix::kB;
  if (m == "C") return workload::Mix::kC;
  if (m == "D") return workload::Mix::kD;
  if (m == "E") return workload::Mix::kE;
  if (m == "F") return workload::Mix::kF;
  if (m == "WR") return workload::Mix::kWriteOnly;
  std::fprintf(stderr, "unknown mix '%s'\n", m.c_str());
  std::exit(2);
}

// --check=linearizability: run the nemesis seed sweep instead of a bench.
// Exit codes: 0 all seeds linearizable, 1 violation(s), 4 inconclusive.
int RunCheckMode(const Options& opt) {
  if (opt.check != "linearizability") {
    std::fprintf(stderr, "unknown --check mode '%s' (try linearizability)\n",
                 opt.check.c_str());
    return 2;
  }
  std::string spec = opt.check_plan;
  if (spec.empty()) spec = opt.fault_plan.empty() ? "partition" : opt.fault_plan;
  std::vector<std::string> plans;
  if (spec == "all") {
    plans = check::NamedNemesisPlans();
  } else {
    plans.push_back(spec);
  }

  bool violation = false;
  bool inconclusive = false;
  bool data_loss = false;
  for (size_t p = 0; p < plans.size(); ++p) {
    check::NemesisOptions no;
    no.base_seed = opt.seed;
    no.seeds = opt.seeds;
    no.plan = plans[p];
    no.offload = opt.offload;
    no.unsafe_dirty_reads = opt.unsafe_dirty_reads;
    no.unsafe_torn_scans = opt.unsafe_torn_scans;
    if (opt.workload == "ycsbe") {
      // Scan-heavy consistency mix: SCANs dominate reads but writes stay
      // frequent enough that scans keep racing dirty windows (a pure
      // 95/5 E mix would barely exercise the parking path).
      no.put_permille = 250;
      no.del_permille = 50;
      no.scan_permille = 500;
      no.scan_limit = 8;
    } else if (!opt.workload.empty()) {
      std::fprintf(stderr, "unknown --workload '%s' (try ycsbe)\n",
                   opt.workload.c_str());
      return 2;
    }
    no.dump_dir = opt.check_dump_dir;
    no.verbose = opt.verbose;
    no.jobs = opt.jobs;
    no.allow_data_loss = opt.allow_data_loss;
    if (!opt.history_out.empty()) {
      no.history_out = plans.size() == 1 ? opt.history_out
                                         : opt.history_out + "." + plans[p];
    }
    std::printf("checking plan '%s': %u seeds from %llu%s%s%s\n",
                plans[p].c_str(), no.seeds,
                static_cast<unsigned long long>(no.base_seed),
                no.scan_permille > 0 ? "  [scan mix]" : "",
                opt.unsafe_dirty_reads ? "  [UNSAFE DIRTY READS]" : "",
                opt.unsafe_torn_scans ? "  [UNSAFE TORN SCANS]" : "");
    check::NemesisResult res = check::RunNemesisSweep(no);
    uint32_t clean = 0;
    for (const check::SeedResult& sr : res.seeds) {
      if (sr.verdict == check::Verdict::kLinearizable) ++clean;
      for (const std::string& path : sr.dump_paths) {
        std::printf("  dump: %s\n", path.c_str());
      }
    }
    std::printf("  plan %-9s: %u/%zu seeds linearizable, %u violating, "
                "%u inconclusive, %u with data loss\n",
                plans[p].c_str(), clean, res.seeds.size(),
                res.violating_seeds, res.inconclusive_seeds,
                res.data_loss_seeds);

    // Availability aggregate (docs/FAULTS.md): the worst seed defines the
    // plan's availability and recovery numbers.
    double min_avail = 1.0;
    double max_outage_ms = 0.0, max_recovery_ms = 0.0;
    uint32_t unrecovered = 0;
    for (const check::SeedResult& sr : res.seeds) {
      const check::AvailabilityReport& a = sr.availability;
      min_avail = std::min(min_avail, a.availability);
      max_outage_ms =
          std::max(max_outage_ms, static_cast<double>(a.max_outage) / 1e6);
      if (a.Recovered()) {
        max_recovery_ms =
            std::max(max_recovery_ms, static_cast<double>(a.recovery) / 1e6);
      } else {
        ++unrecovered;
      }
    }
    std::printf("  availability   : min=%.3f  max_outage=%.1fms  "
                "max_recovery=%.1fms  unrecovered_seeds=%u\n",
                min_avail, max_outage_ms, max_recovery_ms, unrecovered);

    // BENCH_availability.json when $LEED_BENCH_JSON_DIR points somewhere —
    // same contract as the bench harnesses' MaybeWriteBenchJson.
    if (const char* dir = std::getenv("LEED_BENCH_JSON_DIR");
        dir && *dir != '\0') {
      const std::string label =
          plans.size() == 1 ? "availability" : "availability_" + plans[p];
      std::string body = "{\n  \"label\": \"" + label + "\",\n  \"plan\": \"" +
                         plans[p] + "\",\n";
      char num[256];
      std::snprintf(num, sizeof(num),
                    "  \"seeds\": %zu,\n  \"min_availability\": %.6f,\n"
                    "  \"max_outage_ms\": %.3f,\n  \"max_recovery_ms\": %.3f,\n"
                    "  \"unrecovered_seeds\": %u,\n  \"data_loss_seeds\": %u,\n"
                    "  \"per_seed\": [\n",
                    res.seeds.size(), min_avail, max_outage_ms, max_recovery_ms,
                    unrecovered, res.data_loss_seeds);
      body += num;
      for (size_t i = 0; i < res.seeds.size(); ++i) {
        const check::SeedResult& sr = res.seeds[i];
        const check::AvailabilityReport& a = sr.availability;
        std::snprintf(
            num, sizeof(num),
            "    {\"seed\": %llu, \"availability\": %.6f, \"probes\": %llu, "
            "\"ok\": %llu, \"errors\": %llu, \"open\": %llu, "
            "\"max_outage_ms\": %.3f, \"recovery_ms\": %.3f, "
            "\"copies_abandoned\": %llu}%s\n",
            static_cast<unsigned long long>(sr.seed), a.availability,
            static_cast<unsigned long long>(a.probes),
            static_cast<unsigned long long>(a.ok),
            static_cast<unsigned long long>(a.errors),
            static_cast<unsigned long long>(a.open),
            static_cast<double>(a.max_outage) / 1e6,
            a.Recovered() ? static_cast<double>(a.recovery) / 1e6 : -1.0,
            static_cast<unsigned long long>(sr.copies_abandoned),
            i + 1 < res.seeds.size() ? "," : "");
        body += num;
      }
      body += "  ]\n}\n";
      const std::string path =
          std::string(dir) + "/BENCH_" + label + ".json";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::printf("[bench json: %s]\n", path.c_str());
      } else {
        std::fprintf(stderr, "could not write bench json '%s'\n", path.c_str());
      }
    }

    violation |= res.violating_seeds > 0;
    inconclusive |= res.inconclusive_seeds > 0;
    data_loss |= res.data_loss_seeds > 0;
  }
  if (violation) {
    std::printf("VERDICT: NOT linearizable\n");
    return 1;
  }
  if (data_loss && !opt.allow_data_loss) {
    std::printf("VERDICT: DATA LOSS (copies abandoned; pass "
                "--allow-data-loss to accept)\n");
    return 1;
  }
  if (inconclusive) {
    std::printf("VERDICT: inconclusive (budget or truncated history)\n");
    return 4;
  }
  std::printf("VERDICT: linearizable\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--system", &v)) opt.system = v;
    else if (ParseFlag(argv[i], "--nodes", &v)) opt.nodes = std::stoul(v);
    else if (ParseFlag(argv[i], "--mix", &v)) opt.mix = v;
    else if (ParseFlag(argv[i], "--workload", &v)) opt.workload = v;
    else if (ParseFlag(argv[i], "--value-size", &v)) opt.value_size = std::stoul(v);
    else if (ParseFlag(argv[i], "--keys", &v)) opt.keys = std::stoull(v);
    else if (ParseFlag(argv[i], "--skew", &v)) opt.skew = std::stod(v);
    else if (ParseFlag(argv[i], "--concurrency", &v)) opt.concurrency = std::stoul(v);
    else if (ParseFlag(argv[i], "--rate-kqps", &v)) opt.rate_kqps = std::stod(v);
    else if (ParseFlag(argv[i], "--duration-ms", &v)) opt.duration_ms = std::stoull(v);
    else if (ParseFlag(argv[i], "--seed", &v)) opt.seed = std::stoull(v, nullptr, 0);
    else if (std::strcmp(argv[i], "--no-crrs") == 0) opt.crrs = false;
    else if (std::strcmp(argv[i], "--no-flow-control") == 0) opt.flow_control = false;
    else if (std::strcmp(argv[i], "--no-data-swap") == 0) opt.data_swap = false;
    else if (std::strcmp(argv[i], "--offload") == 0) opt.offload = true;
    else if (ParseFlag(argv[i], "--metrics-out", &v)) opt.metrics_out = v;
    else if (ParseFlag(argv[i], "--trace-out", &v)) opt.trace_out = v;
    else if (ParseFlag(argv[i], "--fault-plan", &v)) opt.fault_plan = v;
    else if (ParseFlag(argv[i], "--jobs", &v)) opt.jobs = std::stoul(v);
    else if (ParseFlag(argv[i], "--check", &v)) opt.check = v;
    else if (ParseFlag(argv[i], "--seeds", &v)) opt.seeds = std::stoul(v);
    else if (ParseFlag(argv[i], "--check-plan", &v)) opt.check_plan = v;
    else if (ParseFlag(argv[i], "--check-dump-dir", &v)) opt.check_dump_dir = v;
    else if (ParseFlag(argv[i], "--history-out", &v)) opt.history_out = v;
    else if (std::strcmp(argv[i], "--allow-data-loss") == 0)
      opt.allow_data_loss = true;
    else if (std::strcmp(argv[i], "--unsafe-dirty-reads") == 0)
      opt.unsafe_dirty_reads = true;
    else if (std::strcmp(argv[i], "--unsafe-torn-scans") == 0)
      opt.unsafe_torn_scans = true;
    else if (std::strcmp(argv[i], "--verbose") == 0) opt.verbose = true;
    else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      Usage(argv[0]);
      return 2;
    }
  }

  if (!opt.check.empty()) return RunCheckMode(opt);

  if (opt.workload == "ycsbe") {
    opt.mix = "E";
  } else if (!opt.workload.empty()) {
    std::fprintf(stderr, "unknown --workload '%s' (try ycsbe)\n",
                 opt.workload.c_str());
    return 2;
  }

  ClusterConfig cfg;
  if (opt.system == "leed") {
    cfg = bench::LeedCluster(opt.nodes, opt.seed);
    cfg.node.crrs = opt.crrs;
    cfg.client.crrs_reads = opt.crrs;
    cfg.node.engine.enable_data_swap = opt.data_swap;
    cfg.node.engine.offload_enabled = opt.offload;
  } else if (opt.system == "kvell") {
    cfg = bench::KvellCluster(opt.nodes, opt.seed);
  } else if (opt.system == "fawn") {
    cfg = bench::FawnCluster(opt.nodes, opt.seed);
  } else {
    std::fprintf(stderr, "unknown system '%s'\n", opt.system.c_str());
    return 2;
  }
  if (opt.mix == "E" && opt.system != "leed") {
    std::fprintf(stderr,
                 "--mix=E needs --system=leed (the baselines have no range "
                 "index; their executors reject SCAN)\n");
    return 2;
  }
  cfg.client.flow_control = opt.flow_control;

  std::printf("leedsim: %s x%u, %s, %uB values, %llu keys, skew %.2f, %s\n",
              opt.system.c_str(), opt.nodes, ("YCSB-" + opt.mix).c_str(),
              opt.value_size, static_cast<unsigned long long>(opt.keys),
              opt.skew,
              opt.rate_kqps > 0
                  ? (std::to_string(opt.rate_kqps) + " KQPS open loop").c_str()
                  : (std::to_string(opt.concurrency) + "-deep closed loop").c_str());

  if (!opt.trace_out.empty()) obs::TraceRing::Default().set_enabled(true);

  sim::FaultPlan plan;
  if (!opt.fault_plan.empty()) {
    auto parsed = sim::ParseFaultPlan(opt.fault_plan);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --fault-plan: %s\n",
                   parsed.status().message().c_str());
      return 2;
    }
    plan = std::move(parsed).value();
    if (!plan.crashes.empty() && opt.system != "leed") {
      std::fprintf(stderr,
                   "crash clauses require --system=leed (crash-restart "
                   "recovery is a LEED-stack feature)\n");
      return 2;
    }
  }

  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  std::printf("preloading...\n");
  cluster.Preload(opt.keys, opt.value_size);
  if (!plan.Empty()) {
    cluster.ArmFaultPlan(plan);
    std::printf("fault plan armed: %s\n", opt.fault_plan.c_str());
  }

  workload::YcsbConfig wc;
  wc.mix = ParseMix(opt.mix);
  wc.num_keys = opt.keys;
  wc.value_size = opt.value_size;
  wc.zipf_theta = opt.skew;
  wc.seed = opt.seed ^ 0x5eed;
  workload::YcsbGenerator gen(wc);

  ClusterSim::DriveOptions drive;
  drive.concurrency_per_client = opt.concurrency;
  drive.open_loop_qps = opt.rate_kqps * 1e3;
  drive.warmup = 50 * kMillisecond;
  drive.duration = static_cast<SimTime>(opt.duration_ms) * kMillisecond;
  RunResult r = cluster.Run(gen, drive);

  std::printf("\nresults (%.0f ms measured):\n", opt.duration_ms * 1.0);
  std::printf("  throughput      : %.1f KQPS (%llu ops, %llu errors)\n",
              r.throughput_qps / 1e3,
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.errors));
  std::printf("  latency         : %s\n", r.latency_us.Summary("us").c_str());
  if (r.scan_items > 0) {
    std::printf("  scan items      : %llu (%.1f per completed op)\n",
                static_cast<unsigned long long>(r.scan_items),
                r.completed > 0 ? static_cast<double>(r.scan_items) /
                                      static_cast<double>(r.completed)
                                : 0.0);
  }
  std::printf("  cluster power   : %.1f W\n", r.cluster_power_w);
  std::printf("  energy efficiency: %.2f KQueries/Joule\n",
              r.queries_per_joule / 1e3);

  if (opt.verbose) {
    std::printf("\nper-node counters:\n");
    for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      const NodeStats& s = cluster.node(n).stats();
      std::printf(
          "  node %u: reqs=%llu gets=%llu shipped=%llu chain_writes=%llu "
          "commits=%llu nacks=%llu\n",
          n, static_cast<unsigned long long>(s.client_requests),
          static_cast<unsigned long long>(s.gets_served),
          static_cast<unsigned long long>(s.reads_shipped),
          static_cast<unsigned long long>(s.chain_writes),
          static_cast<unsigned long long>(s.commits_as_tail),
          static_cast<unsigned long long>(s.nacks_sent));
      if (auto* eng = cluster.node(n).leed_engine()) {
        std::printf(
          "          engine: executed=%llu waited=%llu rejected=%llu "
          "swaps=%llu queue=%s\n",
          static_cast<unsigned long long>(eng->stats().executed),
          static_cast<unsigned long long>(eng->stats().waited),
          static_cast<unsigned long long>(eng->stats().rejected_overloaded),
          static_cast<unsigned long long>(eng->stats().swap_activations),
          eng->stats().queue_us.Summary("us").c_str());
      }
    }
  }

  if (!opt.metrics_out.empty()) {
    if (!cluster.registry().WriteJsonFile(opt.metrics_out)) {
      std::fprintf(stderr, "failed to write metrics to '%s'\n",
                   opt.metrics_out.c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", opt.metrics_out.c_str());
  }
  if (!opt.trace_out.empty()) {
    auto& ring = obs::TraceRing::Default();
    if (!ring.WriteJsonFile(opt.trace_out)) {
      std::fprintf(stderr, "failed to write trace to '%s'\n",
                   opt.trace_out.c_str());
      return 1;
    }
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                opt.trace_out.c_str(),
                static_cast<unsigned long long>(ring.size()),
                static_cast<unsigned long long>(ring.dropped()));
  }
  return 0;
}
