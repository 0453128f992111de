// leedbench: one workload on a 3-node SmartNIC-LEED cluster.
//
//   leedbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--span-dir=DIR]
//
// --trace=0 sets the cluster up several times (setup_s is the median),
// drives the workload once and prints the end-to-end metrics. --trace=1
// drives it twice on fresh clusters, untraced then traced: the traced run
// gives the per-layer metrics, the difference in host CPU per op is the
// tracing overhead, and the two runs must agree on every simulated metric
// and registry counter. Human-readable lines come first; the last line of
// stdout is one JSON object. Exit status 1 means a result check, a
// layer-exercise guard or the determinism check failed (no JSON printed).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

using leedbench::DriveResult;
using leedbench::Latency;

constexpr int kSetups = 5;

struct Metric {
  const char* name;
  const char* unit;
};

// Order and units must match BENCHMARK.json (run.py checks the names).
const std::vector<Metric> kLayerMetrics = {
    {"sim.events_per_op", "count"},
    {"sim.host_dispatch_ns_per_event", "ns"},
    {"ssd.read_util", "fraction"},
    {"ssd.write_util", "fraction"},
    {"ssd.read_us_p99", "us"},
    {"ssd.write_us_p99", "us"},
    {"net.msgs_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"cpu.store_core_util", "fraction"},
    {"cpu.nic_core_util", "fraction"},
    {"power.cluster_w", "W"},
    {"workload.host_ns_per_op", "ns"},
    {"client.host_ns_per_call", "ns"},
    {"client.retries_per_op", "count"},
    {"client.timeouts", "count"},
    {"client.overloads", "count"},
    {"client.nacks", "count"},
    {"client.backoff_ms", "ms"},
    {"flowctl.deferrals_per_op", "count"},
    {"flowctl.probe_share", "fraction"},
    {"node.requests_per_op", "count"},
    {"node.nacks_sent", "count"},
    {"node.scans_parked", "count"},
    {"repl.chain_writes_per_put", "count"},
    {"repl.reads_shipped_share", "fraction"},
    {"repl.obligation_retries", "count"},
    {"engine.queue_us_p50", "us"},
    {"engine.queue_us_p99", "us"},
    {"engine.waited_share", "fraction"},
    {"engine.service_us_p50", "us"},
    {"engine.service_us_p99", "us"},
    {"engine.rejected_overloaded", "count"},
    {"engine.swap_activations", "count"},
    {"store.ssd_reads_per_op", "count"},
    {"store.ssd_writes_per_op", "count"},
    {"store.chain_extra_reads_per_get", "count"},
    {"store.get_retries", "count"},
    {"store.lock_waits_per_op", "count"},
    {"store.write_amp", "ratio"},
    {"store.compactions", "count"},
    {"store.compactions_min_per_store", "count"},
    {"store.compaction_live_ratio", "fraction"},
    {"store.prefetch_hit_ratio", "fraction"},
    {"store.scan_items_per_scan", "count"},
    {"store.scan_stale_share", "fraction"},
    {"log.wraps", "count"},
    {"log.used_fraction_max", "fraction"},
    {"trace.overhead_cpu_us_per_op", "us"},
    {"trace.dropped", "count"},
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Json(const DriveResult& r, const std::vector<std::pair<Metric, double>>& metrics) {
  std::string out = "{\"correct\": " + std::string(r.wrong_results == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [m, v] = metrics[i];
    out += (i ? ", \"" : "\"") + std::string(m.name) + "\": {\"value\": " + Num(v) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

void PrintLatency(const char* op, const Latency& l) {
  if (l.count == 0) return;
  std::printf("  sim_%s_p50_us            %12.3f us    (sim clock, n=%llu)\n", op, l.p50_us,
              static_cast<unsigned long long>(l.count));
  std::printf("  sim_%s_p999_us           %12.3f us    (sim clock, n=%llu, %llu beyond)\n", op,
              l.p999_us, static_cast<unsigned long long>(l.count),
              static_cast<unsigned long long>(l.beyond_p999));
}

void PrintOutcome(const DriveResult& r) {
  std::printf("  attempted %llu, failed %llu, wrong_results %llu (read-back of %llu keys "
              "included), failed_ratio %.6g\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong_results),
              static_cast<unsigned long long>(r.readback_keys),
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                          : 0.0);
  for (const auto& [code, n] : r.failures_by_status) {
    std::printf("  failed with %s: %llu\n", code.c_str(), static_cast<unsigned long long>(n));
  }
  for (const auto& w : r.wrong_examples) std::printf("  wrong: %s\n", w.c_str());
}

// False (with reasons printed) when a result check or guard failed.
bool Verdict(const DriveResult& r) {
  for (const auto& g : r.guard_failures) std::printf("GUARD FAILED: %s\n", g.c_str());
  if (r.wrong_results > 0) std::printf("RESULT CHECK FAILED: %llu wrong results\n",
                                       static_cast<unsigned long long>(r.wrong_results));
  return r.guard_failures.empty() && r.wrong_results == 0;
}

// Simulated metrics and per-layer counts that two runs of one seed must
// reproduce exactly.
bool SameSimulation(const DriveResult& a, const DriveResult& b) {
  bool same = a.sim_kqps == b.sim_kqps && a.sim_goodput_kqps == b.sim_goodput_kqps &&
              a.sim_kq_per_joule == b.sim_kq_per_joule && a.put.p50_us == b.put.p50_us &&
              a.put.p999_us == b.put.p999_us && a.get.p50_us == b.get.p50_us &&
              a.get.p999_us == b.get.p999_us && a.scan.p50_us == b.scan.p50_us &&
              a.scan.p999_us == b.scan.p999_us && a.attempted == b.attempted &&
              a.failed == b.failed && a.counters == b.counters;
  if (!same) std::printf("DETERMINISM CHECK FAILED: runs of one seed differ\n");
  return same;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string a(arg), prefix = std::string("--") + name + "=";
  if (a.rfind(prefix, 0) != 0) return false;
  *out = a.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, seed = "1", seconds = "10", trace = "0", span_dir;
  for (int i = 1; i < argc; ++i) {
    if (!ParseFlag(argv[i], "workload", &workload) && !ParseFlag(argv[i], "seed", &seed) &&
        !ParseFlag(argv[i], "seconds", &seconds) && !ParseFlag(argv[i], "trace", &trace) &&
        !ParseFlag(argv[i], "span-dir", &span_dir)) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  const leedbench::WorkloadSpec* spec = leedbench::FindWorkload(workload);
  const double secs = std::atof(seconds.c_str());
  if (!spec || !(secs > 0) || (trace != "0" && trace != "1")) {
    std::fprintf(stderr, "usage: leedbench --workload=NAME --seed=N --seconds=S --trace=0|1\n");
    return 2;
  }
  const uint64_t seed_value = std::strtoull(seed.c_str(), nullptr, 10);

  leedbench::DriveOptions opt;
  opt.warmup = spec->warmup;
  opt.window = static_cast<leed::SimTime>(std::max(20.0, std::round(secs * spec->sim_ms_per_host_s))) *
               leed::kMillisecond;
  leedbench::Bench bench(*spec, seed_value);
  std::printf("leedbench %s seed %s: %s\n", spec->name.c_str(), seed.c_str(), spec->why.c_str());
  std::printf("window %.0f ms simulated after %.0f ms warmup; %s\n",
              leed::ToMicros(opt.window) / 1e3, leed::ToMicros(opt.warmup) / 1e3,
              spec->open_rate_qps > 0
                  ? ("open loop, Poisson " + Num(spec->open_rate_qps / 1e3) + " KQPS offered").c_str()
                  : ("closed loop, 2 clients x " + std::to_string(spec->window_per_client)).c_str());
  std::printf("model configuration:\n%s", bench.ConfigText().c_str());
  std::printf("fingerprint: %016llx\n", static_cast<unsigned long long>(bench.Fingerprint()));

  if (trace == "0") {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) setups.push_back(bench.Setup());
    std::sort(setups.begin(), setups.end());
    const DriveResult r = bench.Drive(opt);
    const double setup_s = setups[setups.size() / 2];
    const double rss = leedbench::PeakRssMb();
    std::printf("end-to-end (sim = simulated clock, host = this process):\n");
    std::printf("  sim_kqps                  %12.4f KQPS  (sim clock)\n", r.sim_kqps);
    std::printf("  sim_goodput_kqps          %12.4f KQPS  (sim clock, latency <= 10 ms)\n",
                r.sim_goodput_kqps);
    if (spec->open_rate_qps > 0) {
      std::printf("  offered                   %12.4f KQPS  (sim clock; gap to achieved "
                  "%.4f KQPS; %llu arrivals shed; generator lateness 0 by construction)\n",
                  r.offered_kqps, r.offered_kqps - r.sim_kqps,
                  static_cast<unsigned long long>(r.shed));
    }
    PrintLatency("get", r.get);
    PrintLatency("put", r.put);
    PrintLatency("scan", r.scan);
    std::printf("  sim_kq_per_joule          %12.6f KQ/J  (sim clock)\n", r.sim_kq_per_joule);
    std::printf("  host_cpu_us_per_op        %12.4f us    (host CPU, median of window slices, "
                "scaled to the reference host; unscaled %.4f)\n",
                r.host_cpu_us_per_op, r.host_cpu_us_per_op_raw);
    std::printf("  setup_s                   %12.4f s     (host CPU, scaled, median of %d setups)\n",
                setup_s, kSetups);
    std::printf("  host_peak_rss_mb          %12.2f MB\n", rss);
    PrintOutcome(r);
    if (!Verdict(r)) return 1;
    std::printf("%s\n", Json(r, {{{"sim_kqps", "KQPS"}, r.sim_kqps},
                                 {{"sim_goodput_kqps", "KQPS"}, r.sim_goodput_kqps},
                                 {{"sim_put_p50_us", "us"}, r.put.p50_us},
                                 {{"sim_put_p999_us", "us"}, r.put.p999_us},
                                 {{"sim_kq_per_joule", "KQ/J"}, r.sim_kq_per_joule},
                                 {{"host_cpu_us_per_op", "us"}, r.host_cpu_us_per_op},
                                 {{"setup_s", "s"}, setup_s},
                                 {{"host_peak_rss_mb", "MB"}, rss}})
                            .c_str());
    return 0;
  }

  bench.Setup();
  const DriveResult plain = bench.Drive(opt);
  opt.trace = true;
  if (!span_dir.empty()) opt.span_prefix = span_dir + "/" + spec->name;
  bench.Setup();
  DriveResult r = bench.Drive(opt);
  r.layer["trace.overhead_cpu_us_per_op"] = r.host_cpu_us_per_op - plain.host_cpu_us_per_op;
  r.layer["trace.dropped"] = static_cast<double>(r.trace_dropped);
  std::printf("per-layer (traced run; untraced host_cpu_us_per_op %.4f, traced %.4f):\n",
              plain.host_cpu_us_per_op, r.host_cpu_us_per_op);
  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& m : kLayerMetrics) {
    metrics.emplace_back(m, r.layer[m.name]);
    std::printf("  %-34s %16.6f %s\n", m.name, r.layer[m.name], m.unit);
  }
  if (!opt.span_prefix.empty()) std::printf("spans: %s.{ops,slices}.csv\n", opt.span_prefix.c_str());
  PrintOutcome(r);
  const bool ok = Verdict(plain) && Verdict(r) && SameSimulation(plain, r);
  if (!ok) return 1;
  std::printf("%s\n", Json(r, metrics).c_str());
  return 0;
}
