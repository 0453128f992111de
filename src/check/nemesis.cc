#include "check/nemesis.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "leed/cluster_sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sweep.h"

namespace leed::check {

namespace {

// A deterministic value unique to (seed, client, op index): digests are
// unique per key, which is what arms the cheap read-semantics pass.
std::vector<uint8_t> NemesisValue(uint64_t seed, uint32_t client,
                                  uint32_t idx, uint32_t size) {
  SplitMix64 sm(Mix64(seed) ^ (static_cast<uint64_t>(client) << 48) ^ idx);
  std::vector<uint8_t> v(size);
  uint64_t w = 0;
  for (uint32_t i = 0; i < size; ++i) {
    if (i % 8 == 0) w = sm.Next();
    v[i] = static_cast<uint8_t>(w >> ((i % 8) * 8));
  }
  return v;
}

std::string NemesisKey(uint32_t i) { return "nk" + std::to_string(i); }

ClusterConfig NemesisCluster(const NemesisOptions& opt, uint64_t seed,
                             obs::Registry* registry, obs::TraceRing* trace) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.num_clients = opt.num_clients;
  cfg.seed = seed;
  // Never the process-wide trace ring: seeds may run on parallel sweep
  // workers, so all observability state must be per-seed.
  cfg.node.metrics_registry = registry;
  cfg.node.trace = trace;

  cfg.node.platform = sim::StingrayJbof();
  cfg.node.stack = StackKind::kLeed;
  cfg.node.engine.ssd_count = 2;
  cfg.node.engine.stores_per_ssd = 2;
  cfg.node.engine.ssd = sim::Dct983Spec();
  cfg.node.engine.ssd.capacity_bytes = 1ull << 30;
  cfg.node.engine.store_template.num_segments = 512;
  cfg.node.engine.store_template.bucket_size = 512;
  cfg.node.engine.checkpoint_period = 5 * kMillisecond;
  cfg.node.engine.offload_enabled = opt.offload;
  cfg.node.test_only_serve_dirty_reads = opt.unsafe_dirty_reads;
  cfg.node.test_only_serve_torn_scans = opt.unsafe_torn_scans;

  cfg.client.stores_per_ssd = 2;
  cfg.client.request_timeout = 10 * kMillisecond;

  cfg.control_plane.replication_factor = 3;
  cfg.control_plane.heartbeat_period = 5 * kMillisecond;
  cfg.control_plane.failure_timeout = 25 * kMillisecond;

  cfg.record_history = true;
  return cfg;
}

// Run the simulator until `done`, stopping when only daemon events remain.
void PumpUntil(sim::Simulator& sim, const bool& done) {
  while (!done) {
    if (sim.events_pending() == 0) break;
    if (!sim.Step()) break;
  }
}

std::string SanitizeForFilename(const std::string& s) {
  std::string out;
  for (char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

std::vector<std::string> WriteViolationDumps(const std::string& stem,
                                             const std::vector<Violation>& violations) {
  std::vector<std::string> paths;
  std::map<std::string, uint32_t> seen;  // name without suffix -> count
  for (const Violation& v : violations) {
    std::string name =
        stem + "-" + SanitizeForFilename(v.key) + "-" + SanitizeForFilename(v.kind);
    if (const uint32_t n = ++seen[name]; n > 1) {
      name += '-';
      name += std::to_string(n);
    }
    const std::string path = name + ".history";
    if (WriteTextFile(path, FormatDump(v.sub_history, 0))) paths.push_back(path);
  }
  return paths;
}

namespace {

SeedResult RunNemesisSeed(const NemesisOptions& opt, const NemesisPlan& plan,
                          uint64_t seed, bool first_seed) {
  SeedResult result;
  result.seed = seed;

  obs::Registry registry;
  obs::TraceRing trace(0);  // disabled: nemesis never dumps traces
  ClusterSim cluster(NemesisCluster(opt, seed, &registry, &trace));
  cluster.Bootstrap();
  sim::Simulator& sim = cluster.simulator();

  // Phase 1 — populate through the normal client path (fault-free), so the
  // history is self-contained: every digest a later GET can observe has a
  // recorded PUT.
  for (uint32_t k = 0; k < opt.num_keys; ++k) {
    bool done = false;
    cluster.client(0).Put(NemesisKey(k),
                          NemesisValue(seed, 0, 1'000'000 + k, opt.value_size),
                          [&done](Status, SimTime) { done = true; });
    PumpUntil(sim, done);
  }

  // Phase 2 — arm the nemesis: fault plan plus scripted membership churn.
  const SimTime start = sim.Now();
  if (!plan.faults.Empty()) cluster.ArmFaultPlan(plan.faults);
  if (plan.join_at >= 0) {
    sim.At(start + plan.join_at, [&cluster] { cluster.JoinNode(); });
  }
  if (plan.leave_at >= 0) {
    sim.At(start + plan.leave_at,
           [&cluster, n = plan.leave_node] { cluster.LeaveNode(n); });
  }
  if (plan.kill_ssd_at >= 0) {
    sim.At(start + plan.kill_ssd_at,
           [&cluster, n = plan.kill_node, s = plan.kill_ssd] {
             cluster.KillSsd(n, s);
           });
  }
  if (plan.crash_at >= 0) {
    sim.At(start + plan.crash_at,
           [&cluster, n = plan.kill_node] { cluster.CrashNode(n); });
  }
  if (plan.replace_at >= 0) {
    sim.At(start + plan.replace_at,
           [&cluster, n = plan.kill_node, s = plan.kill_ssd] {
             cluster.ReplaceSsd(n, s);
             cluster.RestartNode(n);
           });
  }

  // Phase 3 — drive: every client runs a 1-deep closed loop of mixed ops
  // over the hot keyspace. One outstanding op per client keeps each client
  // a well-formed sequential process; concurrency comes from the fleet.
  struct Driver {
    uint32_t remaining = 0;
    uint32_t issued = 0;
    Rng rng{0};
  };
  std::vector<Driver> drivers(opt.num_clients);
  for (uint32_t c = 0; c < opt.num_clients; ++c) {
    drivers[c].remaining = opt.ops_per_client;
    drivers[c].rng.Seed(Mix64(seed ^ 0xce11) + c);
  }
  bool stopped = false;
  uint32_t active = opt.num_clients;
  std::function<void(uint32_t)> issue = [&](uint32_t c) {
    Driver& d = drivers[c];
    if (stopped || d.remaining == 0) {
      --active;
      return;
    }
    --d.remaining;
    const uint32_t idx = d.issued++;
    const std::string key = NemesisKey(
        static_cast<uint32_t>(d.rng.NextBounded(opt.num_keys)));
    const uint64_t roll = d.rng.NextBounded(1000);
    if (roll < opt.put_permille) {
      cluster.client(c).Put(key, NemesisValue(seed, c + 1, idx, opt.value_size),
                            [&issue, c](Status, SimTime) { issue(c); });
    } else if (roll < opt.put_permille + opt.del_permille) {
      cluster.client(c).Del(key, [&issue, c](Status, SimTime) { issue(c); });
    } else if (roll < opt.put_permille + opt.del_permille + opt.scan_permille) {
      cluster.client(c).Scan(
          key, opt.scan_limit,
          [&issue, c](Status, std::vector<store::ScanItem>, SimTime) {
            issue(c);
          });
    } else {
      cluster.client(c).Get(key, [&issue, c](Status, std::vector<uint8_t>,
                                             SimTime) { issue(c); });
    }
  };
  for (uint32_t c = 0; c < opt.num_clients; ++c) issue(c);

  const SimTime deadline = start + opt.run_for;
  while (active > 0 && sim.Now() < deadline) {
    if (sim.events_pending() == 0) break;
    if (!sim.Step()) break;
  }
  // Stop issuing and let in-flight operations drain; whatever never
  // completes stays an open (indeterminate) op in the history.
  stopped = true;
  sim.RunUntil(sim.Now() + 50 * kMillisecond);

  const HistoryLog* log = cluster.history();
  result.ops = log->size();
  for (const HistoryOp& op : log->ops()) {
    if (op.outcome == Outcome::kOk || op.outcome == Outcome::kNotFound) {
      ++result.completed;
    }
  }

  // Partial-failure robustness accounting: data loss from the control
  // plane, availability from the clients' own history (docs/FAULTS.md).
  result.copies_abandoned = cluster.control_plane().stats().copies_abandoned;
  result.availability = ExtractAvailability(log->ops(), start, sim.Now());
  obs::Scope avail = obs::Scope(&registry, "cluster").Sub("availability");
  avail.GetCounter("probes")->Add(result.availability.probes);
  avail.GetCounter("ok")->Add(result.availability.ok);
  avail.GetCounter("errors")->Add(result.availability.errors);
  avail.GetGauge("fraction")->Set(result.availability.availability);
  avail.GetGauge("max_outage_us")->Set(
      static_cast<double>(result.availability.max_outage) / kMicrosecond);
  avail.GetGauge("recovery_us")
      ->Set(result.availability.Recovered()
                ? static_cast<double>(result.availability.recovery) /
                      kMicrosecond
                : -1.0);

  if (!opt.history_out.empty() && first_seed) {
    if (!log->WriteFile(opt.history_out)) {
      std::fprintf(stderr, "nemesis: cannot write history to %s\n",
                   opt.history_out.c_str());
    }
  }

  if (log->truncated()) {
    // Missing invokes can hide violations; never call this clean.
    result.verdict = Verdict::kInconclusive;
    return result;
  }

  CheckReport report = CheckHistory(log->ops());
  result.verdict = report.verdict;
  result.steps = report.steps_used;
  result.violations = std::move(report.violations);

  if (!result.violations.empty() && !opt.dump_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.dump_dir, ec);
    const std::string stem =
        opt.dump_dir + "/seed" + std::to_string(seed) + "-" + plan.name;
    const std::string full = stem + "-full.history";
    if (WriteTextFile(full, log->Dump())) result.dump_paths.push_back(full);
    for (std::string& path : WriteViolationDumps(stem, result.violations)) {
      result.dump_paths.push_back(std::move(path));
    }
  }
  return result;
}

}  // namespace

Result<NemesisPlan> ResolveNemesisPlan(const std::string& spec) {
  NemesisPlan plan;
  plan.name = spec;
  if (spec == "none") return plan;
  if (spec == "crash") {
    // Tail-side power loss with recovery; mild fabric delay widens the
    // commit/ack windows the checker wants to race through.
    auto faults = sim::ParseFaultPlan(
        "crash:node=2,at_ms=25,restart_ms=85;net:delay_p=0.05,delay_us=150");
    plan.faults = std::move(faults).value();
    return plan;
  }
  if (spec == "partition") {
    auto faults = sim::ParseFaultPlan(
        "part:a=0,b=1,at_ms=15,heal_ms=60;net:delay_p=0.10,delay_us=200");
    plan.faults = std::move(faults).value();
    return plan;
  }
  if (spec == "churn") {
    auto faults = sim::ParseFaultPlan("net:delay_p=0.05,delay_us=150");
    plan.faults = std::move(faults).value();
    plan.join_at = 15 * kMillisecond;
    plan.leave_at = 50 * kMillisecond;
    plan.leave_node = 1;
    return plan;
  }
  if (spec == "ssdkill") {
    // Permanent SSD death mid-traffic: the engine latches the backing
    // stores failed, the node serves its healthy stores degraded, and the
    // control plane fails over only the dead store's vnodes (FailStore).
    // Then the operator path — crash, swap in a blank device, restart — so
    // the node rejoins through the normal join/backfill. Mild fabric delay
    // widens the race windows the checker wants.
    auto faults = sim::ParseFaultPlan("net:delay_p=0.05,delay_us=150");
    plan.faults = std::move(faults).value();
    plan.kill_ssd_at = 15 * kMillisecond;
    plan.kill_node = 2;
    plan.kill_ssd = 0;
    plan.crash_at = 70 * kMillisecond;
    plan.replace_at = 90 * kMillisecond;
    return plan;
  }
  auto parsed = sim::ParseFaultPlan(spec);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        "not a named plan (crash|partition|churn|none) and not a valid "
        "fault-plan grammar: " +
        parsed.status().message());
  }
  plan.name = "custom";
  plan.faults = std::move(parsed).value();
  return plan;
}

std::vector<std::string> NamedNemesisPlans() {
  return {"crash", "partition", "churn", "ssdkill"};
}

NemesisResult RunNemesisSweep(const NemesisOptions& options) {
  NemesisResult result;
  auto plan = ResolveNemesisPlan(options.plan);
  if (!plan.ok()) {
    std::fprintf(stderr, "nemesis: %s\n", plan.status().message().c_str());
    SeedResult bad;
    bad.seed = options.base_seed;
    bad.verdict = Verdict::kInconclusive;
    result.seeds.push_back(bad);
    result.inconclusive_seeds = 1;
    return result;
  }
  // Seeds are independent simulations (per-seed registry/ring, seed-named
  // dump files), so the sweep runs on the seed-parallel pool. Every worker
  // writes only its own index-addressed slot — result.seeds[i] is owned by
  // the worker holding index i for the round (ownership, not locks), with
  // TaskPool's round barrier as the happens-before edge back to this
  // thread. Aggregation and verbose reporting happen afterwards in seed
  // order, so any --jobs value yields byte-identical output
  // (docs/PARALLEL_SIM.md).
  result.seeds.resize(options.seeds);
  sim::ParallelFor(options.seeds, options.jobs, [&](uint32_t i) {
    result.seeds[i] =
        RunNemesisSeed(options, plan.value(), options.base_seed + i, i == 0);
  });
  for (const SeedResult& sr : result.seeds) {
    if (sr.verdict == Verdict::kViolation) ++result.violating_seeds;
    if (sr.verdict == Verdict::kInconclusive) ++result.inconclusive_seeds;
    if (sr.copies_abandoned > 0) ++result.data_loss_seeds;
    if (options.verbose) {
      std::printf("  seed %llu [%s]: %s (%llu ops, %llu determinate, %llu "
                  "steps, %zu violations)\n",
                  static_cast<unsigned long long>(sr.seed),
                  plan.value().name.c_str(),
                  std::string(VerdictName(sr.verdict)).c_str(),
                  static_cast<unsigned long long>(sr.ops),
                  static_cast<unsigned long long>(sr.completed),
                  static_cast<unsigned long long>(sr.steps),
                  sr.violations.size());
      std::printf("    %s%s\n", FormatAvailability(sr.availability).c_str(),
                  sr.copies_abandoned > 0 ? "  [DATA LOSS]" : "");
      for (const Violation& v : sr.violations) {
        std::printf("    %s key '%s': %s\n", v.kind.c_str(), v.key.c_str(),
                    v.detail.c_str());
      }
    }
  }
  return result;
}

}  // namespace leed::check
