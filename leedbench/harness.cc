#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "checker.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "leed/cluster_sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/platform.h"

namespace leedbench {

using leed::ClusterConfig;
using leed::ClusterSim;
using leed::Histogram;
using leed::kMillisecond;
using leed::Status;
using leed::workload::Mix;
using leed::workload::OpKind;

namespace {

constexpr uint32_t kValueSize = 1024;
// Latency limit for goodput: half the client's 20 ms request timeout.
constexpr SimTime kLatencyLimit = 10 * kMillisecond;
// Benchmark tick: drains the trace ring (trace runs) and samples log use.
// At read-hot's ~3 M trace events per simulated second a 1 ms tick keeps
// the 64 Ki-entry ring far from wrapping.
constexpr SimTime kTick = 1 * kMillisecond;
// The measured window is cut into this many slices; host CPU per op is the
// median over slices, which shrugs off a burst of host noise.
constexpr int kSlices = 20;
// Bound on the post-window drain: the client's retry budget (10 retries,
// backoff capped at 10 ms, 20 ms timeouts) ends well inside it.
constexpr SimTime kDrainLimit = 2000 * kMillisecond;

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ClusterConfig LeedConfig(const WorkloadSpec& spec, uint64_t seed) {
  // The LeedCluster preset of the paper-figure benches: Stingray JBOFs,
  // 4 DCT983 SSDs x 4 stores per node, replication 3, CRRS on, offload off.
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.num_clients = 2;
  cfg.seed = seed;
  cfg.node.platform = leed::sim::StingrayJbof();
  cfg.node.stack = leed::StackKind::kLeed;
  cfg.node.crrs = true;
  cfg.node.engine.ssd_count = 4;
  cfg.node.engine.stores_per_ssd = 4;
  cfg.node.engine.ssd = leed::sim::Dct983Spec();
  cfg.node.engine.ssd.capacity_bytes = 2ull << 30;
  cfg.node.engine.store_template.num_segments = 2048;
  cfg.node.engine.store_template.bucket_size = 512;
  cfg.node.engine.tokens.base_tokens = 128;
  cfg.node.engine.partition_bytes = spec.partition_bytes;
  cfg.client.crrs_reads = true;
  cfg.client.stores_per_ssd = 4;
  cfg.control_plane.replication_factor = 3;
  return cfg;
}

// Seeds of the cluster, the YCSB generator and the arrival process all
// derive from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag) { return leed::Mix64(seed ^ tag); }

// Nearest-rank percentiles over exact samples.
Latency Summarize(std::vector<SimTime> ns) {
  Latency out;
  out.count = ns.size();
  if (ns.empty()) return out;
  std::sort(ns.begin(), ns.end());
  auto at = [&](double q) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(ns.size()) + 0.999999);
    rank = std::clamp<size_t>(rank, 1, ns.size());
    return ns[rank - 1];
  };
  const SimTime p999 = at(0.999);
  out.p50_us = leed::ToMicros(at(0.50));
  out.p99_us = leed::ToMicros(at(0.99));
  out.p999_us = leed::ToMicros(p999);
  out.beyond_p999 = static_cast<uint64_t>(
      ns.end() - std::upper_bound(ns.begin(), ns.end(), p999));
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

enum class OpType : uint8_t { kGet, kPut, kScan };

// One client operation in flight.
struct Pending {
  uint64_t id = 0;
  OpType type = OpType::kGet;
  uint32_t client = 0;
  uint64_t key = 0;
  uint32_t version = 0;   // PUT
  uint32_t scan_len = 0;  // SCAN
  SimTime issued = 0;
  SimTime floor = 0;      // GET: checker floor at issue
  bool readback = false;
};

// The benchmark's own spans (trace runs), kept in memory until the end.
struct OpSpan {
  OpType type;
  uint32_t client;
  int status = -1;  // 0 ok, 1 not found, 2 error, 3 wrong result
  SimTime issued = 0, completed = 0;
  int64_t gen_ns = 0, call_ns = 0, callback_ns = 0;
};
struct SliceSpan {
  SimTime sim_from, sim_to;
  int64_t host_ns, callback_ns;
  uint64_t events;
};

// Counters that live outside the registry, snapshotted at window edges.
struct Snapshot {
  uint64_t events = 0;
  std::vector<std::vector<SimTime>> busy;  // [node][core]
  std::vector<leed::sim::SsdStats> ssd;     // [node * ssd_count + i]
  std::vector<leed::ClientStats> client;
  std::vector<leed::flowctl::SchedulerStats> sched;
  std::vector<uint64_t> key_tail, value_tail;  // per store, home logs
};

class Driver {
 public:
  Driver(ClusterSim& cluster, leed::obs::Registry& registry,
         const WorkloadSpec& spec, uint64_t seed, const DriveOptions& options)
      : cluster_(cluster),
        sim_(cluster.simulator()),
        registry_(registry),
        spec_(spec),
        options_(options),
        gen_(GeneratorConfig(spec, seed)),
        arrivals_(DeriveSeed(seed, 0xa441)),
        checker_(spec.keys, kValueSize) {}

  DriveResult Run();

 private:
  static leed::workload::YcsbConfig GeneratorConfig(const WorkloadSpec& spec,
                                                    uint64_t seed) {
    leed::workload::YcsbConfig wc;
    wc.mix = spec.mix;
    wc.num_keys = spec.keys;
    wc.value_size = kValueSize;
    wc.zipf_theta = 0.99;
    wc.max_scan_len = spec.max_scan_len;
    wc.seed = DeriveSeed(seed, 0x6e4e);
    return wc;
  }

  bool InWindow(SimTime t) const { return t > measure_start_ && t <= end_; }
  void Issue(uint32_t client);
  void Arrive();
  void Tick();
  void Complete(const Pending& p, const Status& status, bool wrong);
  // Checks a GET result; records an explained example when it is wrong.
  bool WrongGet(const Pending& p, const Status& s, const std::vector<uint8_t>& v);
  void ReadBack(uint32_t client);
  void RunSlice(SimTime deadline);
  Snapshot Snap() const;
  void DrainTrace();
  void ComputeLayers(const Snapshot& a, const Snapshot& b, DriveResult* r);
  void EngineFromTrace(DriveResult* r);
  void WriteSpans() const;

  // Host-time span around the benchmark's own callbacks.
  // `op` names the op whose completion this is; its span records the time.
  class CallbackSpan {
   public:
    explicit CallbackSpan(Driver& d, const Pending* op = nullptr)
        : d_(d),
          op_(op && !op->readback ? static_cast<int64_t>(op->id) : -1),
          start_(d.options_.trace ? HostNs() : 0) {}
    ~CallbackSpan() {
      if (!d_.options_.trace) return;
      const int64_t ns = HostNs() - start_;
      d_.callback_ns_ += ns;
      if (op_ >= 0) d_.op_spans_[static_cast<size_t>(op_)].callback_ns = ns;
    }
    CallbackSpan(const CallbackSpan&) = delete;
    CallbackSpan& operator=(const CallbackSpan&) = delete;

   private:
    Driver& d_;
    int64_t op_;
    int64_t start_;
  };

  ClusterSim& cluster_;
  leed::sim::Simulator& sim_;
  leed::obs::Registry& registry_;
  const WorkloadSpec& spec_;
  const DriveOptions& options_;
  leed::workload::YcsbGenerator gen_;
  leed::Rng arrivals_;
  ResultChecker checker_;

  SimTime measure_start_ = 0, end_ = 0;
  bool finished_ = false;
  uint64_t next_id_ = 0;
  uint64_t outstanding_ = 0;
  uint32_t rr_ = 0;

  // Window accounting.
  uint64_t arrivals_in_window_ = 0;
  uint64_t shed_in_window_ = 0;
  uint64_t completed_in_window_ = 0;  // ok + not_found
  uint64_t good_in_window_ = 0;
  uint64_t puts_acked_in_window_ = 0;
  uint64_t attempted_ = 0, failed_ = 0, wrong_ = 0;
  std::map<std::string, uint64_t> failures_by_status_;
  std::vector<std::string> wrong_examples_;
  std::vector<SimTime> latency_[3];
  uint64_t ticks_in_window_ = 0;
  double log_used_max_ = 0;

  // Read-back after the window.
  std::vector<uint64_t> readback_keys_;
  size_t readback_next_ = 0;

  // Host spans (trace runs).
  int64_t callback_ns_ = 0;
  int64_t gen_ns_ = 0, call_ns_ = 0;
  uint64_t traced_issues_ = 0;
  std::vector<OpSpan> op_spans_;
  std::vector<SliceSpan> slices_;

  // Engine waiting-queue and service samples from trace pairs.
  struct EngineOpen {
    SimTime begin = 0;
    SimTime leave = -1;
    bool queued = false;
    bool offload = false;
  };
  std::unordered_map<uint64_t, EngineOpen> engine_open_;
  std::vector<SimTime> queue_ns_, service_ns_;  // every executed op
  std::vector<SimTime> waited_ns_;               // ops that sat in the queue
  // Registry histograms as of window end; EngineFromTrace checks the trace
  // pairs against them.
  Histogram registry_queue_us_, registry_service_us_;
  uint64_t trace_dropped_ = 0;
};

void Driver::Issue(uint32_t client) {
  const SimTime now = sim_.Now();
  const int64_t g0 = options_.trace ? HostNs() : 0;
  const leed::workload::Op op = gen_.Next();
  Pending p;
  p.id = next_id_++;
  p.client = client;
  p.key = op.key_id;
  p.issued = now;
  std::vector<uint8_t> value;
  switch (op.kind) {
    case OpKind::kRead:
      p.type = OpType::kGet;
      break;
    case OpKind::kScan:
      p.type = OpType::kScan;
      p.scan_len = op.scan_len;
      break;
    case OpKind::kUpdate:
    case OpKind::kInsert:
    case OpKind::kReadModifyWrite:  // no workload here draws it
      p.type = OpType::kPut;
      p.version = checker_.BeginPut(p.key, now);
      value = gen_.MakeValue(p.key, p.version);
      break;
  }
  const int64_t g1 = options_.trace ? HostNs() : 0;
  if (p.type == OpType::kPut) checker_.RecordValue(p.key, p.version, value);
  if (p.type == OpType::kGet) p.floor = checker_.ReadFloor(p.key);
  if (InWindow(now)) ++attempted_;
  ++outstanding_;
  std::string key = leed::workload::YcsbGenerator::KeyName(p.key);
  leed::Client& cl = cluster_.client(client);

  if (options_.trace) {
    op_spans_.push_back(OpSpan{p.type, client, -1, now, 0, g1 - g0, 0, 0});
  }
  const int64_t c0 = options_.trace ? HostNs() : 0;
  switch (p.type) {
    case OpType::kGet:
      cl.Get(std::move(key), [this, p](Status s, std::vector<uint8_t> v, SimTime) {
        CallbackSpan span(*this, &p);
        Complete(p, s, WrongGet(p, s, v));
      });
      break;
    case OpType::kPut:
      cl.Put(std::move(key), std::move(value), [this, p](Status s, SimTime) {
        CallbackSpan span(*this, &p);
        checker_.EndPut(p.key, p.version, s.ok(), sim_.Now());
        Complete(p, s, false);
      });
      break;
    case OpType::kScan:
      cl.Scan(std::move(key), p.scan_len,
              [this, p](Status s, std::vector<leed::store::ScanItem> items, SimTime) {
                CallbackSpan span(*this, &p);
                Complete(p, s,
                         s.ok() && !checker_.CheckScan(p.key, p.scan_len, p.issued, items));
              });
      break;
  }
  if (options_.trace) {
    const int64_t c1 = HostNs();
    gen_ns_ += g1 - g0;
    call_ns_ += c1 - c0;
    ++traced_issues_;
    op_spans_[p.id].call_ns = c1 - c0;
  }
}

bool Driver::WrongGet(const Pending& p, const Status& s, const std::vector<uint8_t>& v) {
  if (!(s.ok() || s.IsNotFound()) || checker_.CheckGet(p.key, p.floor, s.ok(), v)) {
    return false;
  }
  if (wrong_examples_.size() < 5) {
    wrong_examples_.push_back(std::string(p.readback ? "read-back " : "") + "GET issued " +
                              std::to_string(p.issued) + " done " +
                              std::to_string(sim_.Now()) + " floor " +
                              std::to_string(p.floor) + ": " + checker_.Explain(p.key, v));
  }
  return true;
}

void Driver::Complete(const Pending& p, const Status& status, bool wrong) {
  const SimTime now = sim_.Now();
  --outstanding_;
  const bool ok = status.ok() || status.IsNotFound();
  if (wrong) ++wrong_;
  if (!ok) ++failures_by_status_[std::string(leed::StatusCodeName(status.code()))];
  if (p.readback) {
    if (!ok || wrong) ++failed_;
    return;
  }
  if (InWindow(p.issued) && (!ok || wrong)) ++failed_;
  const SimTime latency = now - p.issued;
  if (InWindow(now) && ok) {
    ++completed_in_window_;
    latency_[static_cast<int>(p.type)].push_back(latency);
    if (latency <= kLatencyLimit && !wrong) ++good_in_window_;
    if (p.type == OpType::kPut && status.ok()) ++puts_acked_in_window_;
  }
  if (options_.trace) {
    OpSpan& s = op_spans_[p.id];
    s.status = wrong ? 3 : status.ok() ? 0 : status.IsNotFound() ? 1 : 2;
    s.completed = now;
  }
  if (spec_.open_rate_qps <= 0 && now < end_) Issue(p.client);
}

void Driver::Arrive() {
  CallbackSpan span(*this);
  const SimTime now = sim_.Now();
  const uint32_t client = rr_++ % cluster_.num_clients();
  if (InWindow(now)) ++arrivals_in_window_;
  // An arrival that finds its client at the in-flight cap is shed: it
  // counts against goodput (the offered/achieved gap) but is never issued,
  // so overload shows as latency and shedding rather than as a backlog
  // that outgrows the client's request timeout.
  if (cluster_.client(client).outstanding() >= spec_.window_per_client) {
    if (InWindow(now)) ++shed_in_window_;
  } else {
    Issue(client);
  }
  const auto gap = static_cast<SimTime>(
      arrivals_.NextExponential(1e9 / spec_.open_rate_qps));
  if (now + gap <= end_) sim_.Schedule(gap, [this] { Arrive(); });
}

void Driver::Tick() {
  CallbackSpan span(*this);
  const SimTime now = sim_.Now();
  if (InWindow(now)) {
    ++ticks_in_window_;
    for (uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
      auto* engine = cluster_.node(n).leed_engine();
      for (uint32_t s = 0; s < engine->num_stores(); ++s) {
        const auto& home = engine->data_store(s).home();
        log_used_max_ = std::max({log_used_max_, home.key_log->UsedFraction(),
                                  home.value_log->UsedFraction()});
      }
    }
  }
  if (options_.trace) DrainTrace();
  if (!finished_) sim_.ScheduleDaemon(kTick, [this] { Tick(); });
}

void Driver::DrainTrace() {
  auto& ring = leed::obs::TraceRing::Default();
  trace_dropped_ += ring.dropped();
  const std::vector<leed::obs::TraceEvent> events = ring.Events();
  ring.Clear();
  using leed::obs::TraceKind;
  for (const auto& e : events) {
    const uint64_t k = (static_cast<uint64_t>(e.node) << 40) ^ e.id;
    switch (e.kind) {
      case TraceKind::kOpBegin:
        engine_open_[k] = EngineOpen{e.t};
        break;
      case TraceKind::kOffloadGet:
        engine_open_[k] = EngineOpen{e.t, -1, false, true};
        break;
      case TraceKind::kQueueEnter:
        engine_open_[k].queued = true;
        break;
      case TraceKind::kQueueLeave: {
        EngineOpen& o = engine_open_[k];
        o.leave = e.t;
        if (InWindow(e.t)) {
          queue_ns_.push_back(e.t - o.begin);
          waited_ns_.push_back(e.t - o.begin);
        }
        break;
      }
      case TraceKind::kOpEnd: {
        auto it = engine_open_.find(k);
        if (it == engine_open_.end()) break;
        const EngineOpen o = it->second;
        engine_open_.erase(it);
        SimTime start = o.begin;
        if (o.queued) {
          start = o.leave;
        } else if (o.offload) {
          // Served by the offload engine: no waiting-queue sample.
        } else if (e.t == o.begin &&
                   e.arg == static_cast<int64_t>(leed::StatusCode::kOverloaded)) {
          break;  // rejected at admission, never executed
        } else if (InWindow(o.begin)) {
          queue_ns_.push_back(0);
        }
        if (InWindow(e.t)) service_ns_.push_back(e.t - start);
        break;
      }
      default:
        break;
    }
  }
}

void Driver::ReadBack(uint32_t client) {
  if (readback_next_ >= readback_keys_.size()) return;
  Pending p;
  p.id = next_id_++;
  p.key = readback_keys_[readback_next_++];
  p.client = client;
  p.issued = sim_.Now();
  p.floor = checker_.ReadFloor(p.key);
  p.readback = true;
  ++outstanding_;
  cluster_.client(client).Get(
      leed::workload::YcsbGenerator::KeyName(p.key),
      [this, p](Status s, std::vector<uint8_t> v, SimTime) {
        CallbackSpan span(*this, &p);
        Complete(p, s, WrongGet(p, s, v));
        ReadBack(p.client);
      });
}

void Driver::RunSlice(SimTime deadline) {
  const SimTime from = sim_.Now();
  const uint64_t events0 = sim_.events_executed();
  const int64_t cb0 = callback_ns_;
  const int64_t h0 = HostNs();
  sim_.RunUntil(deadline);
  const int64_t h1 = HostNs();
  if (options_.trace) {
    slices_.push_back(SliceSpan{from, deadline, h1 - h0, callback_ns_ - cb0,
                                sim_.events_executed() - events0});
  }
}

Snapshot Driver::Snap() const {
  Snapshot s;
  s.events = sim_.events_executed();
  for (uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    leed::Node& node = cluster_.node(n);
    std::vector<SimTime> cores;
    for (uint32_t c = 0; c < node.cpu().num_cores(); ++c) {
      cores.push_back(node.cpu().core(c).total_busy_ns());
    }
    s.busy.push_back(std::move(cores));
    auto* engine = node.leed_engine();
    for (uint32_t i = 0; i < engine->ssd_count(); ++i) s.ssd.push_back(engine->ssd(i).stats());
    for (uint32_t st = 0; st < engine->num_stores(); ++st) {
      const auto& home = engine->data_store(st).home();
      s.key_tail.push_back(home.key_log->tail());
      s.value_tail.push_back(home.value_log->tail());
    }
  }
  for (uint32_t c = 0; c < cluster_.num_clients(); ++c) {
    s.client.push_back(cluster_.client(c).stats());
    s.sched.push_back(cluster_.client(c).scheduler().stats());
  }
  return s;
}

void Driver::ComputeLayers(const Snapshot& a, const Snapshot& b, DriveResult* r) {
  auto& L = r->layer;
  const double window = static_cast<double>(options_.window);
  const double ops = static_cast<double>(completed_in_window_);

  L["sim.events_per_op"] =
      Ratio(static_cast<double>(b.events - a.events - ticks_in_window_), ops);

  // ssd_model: busy time over the window, and device latency tails.
  const uint32_t read_channels =
      cluster_.node(0).leed_engine()->ssd(0).spec().read_channels;
  double read_busy = 0, write_busy = 0, write_bytes = 0;
  Histogram ssd_read_us, ssd_write_us;
  for (size_t i = 0; i < b.ssd.size(); ++i) {
    read_busy += static_cast<double>(b.ssd[i].read_busy_ns - a.ssd[i].read_busy_ns);
    write_busy += static_cast<double>(b.ssd[i].write_busy_ns - a.ssd[i].write_busy_ns);
    write_bytes += static_cast<double>(b.ssd[i].write_bytes - a.ssd[i].write_bytes);
  }
  const uint32_t ssd_per_node = static_cast<uint32_t>(b.ssd.size() / cluster_.num_nodes());
  for (uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    for (uint32_t i = 0; i < ssd_per_node; ++i) {
      const std::string p = "node" + std::to_string(n) + ".engine.ssd" + std::to_string(i);
      if (auto* h = registry_.FindHistogram(p + ".read_us")) ssd_read_us.Merge(*h);
      if (auto* h = registry_.FindHistogram(p + ".write_us")) ssd_write_us.Merge(*h);
    }
  }
  const double nssd = static_cast<double>(b.ssd.size());
  L["ssd.read_util"] = read_busy / (window * read_channels * nssd);
  L["ssd.write_util"] = write_busy / (window * nssd);
  L["ssd.read_us_p99"] = ssd_read_us.count() ? ssd_read_us.P99() : 0.0;
  L["ssd.write_us_p99"] = ssd_write_us.count() ? ssd_write_us.P99() : 0.0;

  // network: fabric totals (registry, reset at window start).
  L["net.msgs_per_op"] =
      Ratio(static_cast<double>(registry_.CounterValue("net.msgs_sent")), ops);
  L["net.bytes_per_op"] =
      Ratio(static_cast<double>(registry_.CounterValue("net.bytes_sent")), ops);

  // cpu_model and power: store cores [0, ssd_count), polling cores up to
  // the last (control) core.
  double store_util = 0, nic_util = 0;
  uint32_t store_cores = 0, nic_cores = 0;
  for (size_t n = 0; n < b.busy.size(); ++n) {
    for (size_t c = 0; c < b.busy[n].size(); ++c) {
      const double u =
          std::clamp(static_cast<double>(b.busy[n][c] - a.busy[n][c]) / window, 0.0, 1.0);
      if (c < ssd_per_node) {
        store_util += u;
        ++store_cores;
      } else if (c + 1 < b.busy[n].size()) {
        nic_util += u;
        ++nic_cores;
      }
    }
  }
  L["cpu.store_core_util"] = Ratio(store_util, store_cores);
  L["cpu.nic_core_util"] = Ratio(nic_util, nic_cores);
  L["power.cluster_w"] = cluster_.ClusterPowerWatts(a.busy, options_.window);

  // workload and client host costs (trace runs only).
  L["workload.host_ns_per_op"] = Ratio(static_cast<double>(gen_ns_), traced_issues_);
  L["client.host_ns_per_call"] = Ratio(static_cast<double>(call_ns_), traced_issues_);
  int64_t dispatch_ns = 0;
  uint64_t dispatch_events = 0;
  for (const auto& s : slices_) {
    if (s.sim_from < measure_start_ || s.sim_to > end_) continue;
    dispatch_ns += s.host_ns - s.callback_ns;
    dispatch_events += s.events;
  }
  L["sim.host_dispatch_ns_per_event"] =
      Ratio(static_cast<double>(dispatch_ns), static_cast<double>(dispatch_events));

  // leed client and flowctl scheduler.
  double retries = 0, timeouts = 0, overloads = 0, nacks = 0, backoff_us = 0;
  double deferrals = 0, probes = 0, sent = 0;
  for (size_t c = 0; c < b.client.size(); ++c) {
    retries += static_cast<double>(b.client[c].retries - a.client[c].retries);
    timeouts += static_cast<double>(b.client[c].timeouts - a.client[c].timeouts);
    overloads += static_cast<double>(b.client[c].overloads - a.client[c].overloads);
    nacks += static_cast<double>(b.client[c].nacks - a.client[c].nacks);
    backoff_us += static_cast<double>(b.client[c].backoff_us - a.client[c].backoff_us);
    deferrals += static_cast<double>(b.sched[c].deferrals - a.sched[c].deferrals);
    probes += static_cast<double>(b.sched[c].sent_as_probe - a.sched[c].sent_as_probe);
    sent += static_cast<double>(b.sched[c].sent - a.sched[c].sent);
  }
  L["client.retries_per_op"] = Ratio(retries, ops);
  L["client.timeouts"] = timeouts;
  L["client.overloads"] = overloads;
  L["client.nacks"] = nacks;
  L["client.backoff_ms"] = backoff_us / 1000.0;
  L["flowctl.deferrals_per_op"] = Ratio(deferrals, ops);
  L["flowctl.probe_share"] = Ratio(probes, sent);

  // leed node and replication (registry, reset at window start).
  leed::NodeStats ns;
  leed::engine::EngineStats es;
  leed::store::StoreStats ss;
  uint64_t min_compactions = UINT64_MAX;
  double min_wraps = 1e300;
  size_t store_index = 0;
  for (uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    leed::Node& node = cluster_.node(n);
    const leed::NodeStats x = node.stats();
    ns.client_requests += x.client_requests;
    ns.nacks_sent += x.nacks_sent;
    ns.scans_parked += x.scans_parked;
    ns.reads_shipped += x.reads_shipped;
    ns.gets_served += x.gets_served;
    ns.writes_headed += x.writes_headed;
    ns.chain_writes += x.chain_writes;
    ns.obligation_retries += x.obligation_retries;
    auto* engine = node.leed_engine();
    const leed::engine::EngineStats e = engine->stats();
    es.executed += e.executed;
    es.waited += e.waited;
    es.rejected_overloaded += e.rejected_overloaded;
    es.swap_activations += e.swap_activations;
    registry_queue_us_.Merge(e.queue_us);
    registry_service_us_.Merge(e.service_us);
    for (uint32_t st = 0; st < engine->num_stores(); ++st, ++store_index) {
      const leed::store::StoreStats s = engine->data_store(st).stats();
      ss.gets += s.gets;
      ss.puts += s.puts;
      ss.dels += s.dels;
      ss.scans += s.scans;
      ss.ssd_reads += s.ssd_reads;
      ss.ssd_writes += s.ssd_writes;
      ss.get_chain_extra_reads += s.get_chain_extra_reads;
      ss.get_retries += s.get_retries;
      ss.lock_waits += s.lock_waits;
      ss.key_compactions += s.key_compactions;
      ss.value_compactions += s.value_compactions;
      ss.items_live_moved += s.items_live_moved;
      ss.items_dropped += s.items_dropped;
      ss.prefetch_hits += s.prefetch_hits;
      ss.prefetch_misses += s.prefetch_misses;
      ss.scan_items += s.scan_items;
      ss.scan_stale_locs += s.scan_stale_locs;
      min_compactions = std::min(min_compactions, s.key_compactions + s.value_compactions);
      const auto& home = engine->data_store(st).home();
      min_wraps = std::min(
          {min_wraps,
           static_cast<double>(b.key_tail[store_index] - a.key_tail[store_index]) /
               static_cast<double>(home.key_log->size()),
           static_cast<double>(b.value_tail[store_index] - a.value_tail[store_index]) /
               static_cast<double>(home.value_log->size())});
    }
  }
  L["node.requests_per_op"] = Ratio(static_cast<double>(ns.client_requests), ops);
  L["node.nacks_sent"] = static_cast<double>(ns.nacks_sent);
  L["node.scans_parked"] = static_cast<double>(ns.scans_parked);
  // Chain writes received (head included) per write entering a chain: 3
  // for a full chain.
  L["repl.chain_writes_per_put"] = Ratio(static_cast<double>(ns.chain_writes),
                                         static_cast<double>(ns.writes_headed));
  L["repl.reads_shipped_share"] = Ratio(static_cast<double>(ns.reads_shipped),
                                        static_cast<double>(ns.gets_served));
  L["repl.obligation_retries"] = static_cast<double>(ns.obligation_retries);

  L["engine.waited_share"] =
      Ratio(static_cast<double>(es.waited), static_cast<double>(es.executed));
  L["engine.rejected_overloaded"] = static_cast<double>(es.rejected_overloaded);
  L["engine.swap_activations"] = static_cast<double>(es.swap_activations);

  // store and log.
  const double store_ops = static_cast<double>(ss.gets + ss.puts + ss.dels + ss.scans);
  L["store.ssd_reads_per_op"] = Ratio(static_cast<double>(ss.ssd_reads), store_ops);
  L["store.ssd_writes_per_op"] = Ratio(static_cast<double>(ss.ssd_writes), store_ops);
  L["store.chain_extra_reads_per_get"] =
      Ratio(static_cast<double>(ss.get_chain_extra_reads), static_cast<double>(ss.gets));
  L["store.get_retries"] = static_cast<double>(ss.get_retries);
  L["store.lock_waits_per_op"] =
      Ratio(static_cast<double>(ss.lock_waits), static_cast<double>(ss.puts + ss.dels));
  L["store.write_amp"] = Ratio(write_bytes, static_cast<double>(puts_acked_in_window_) * kValueSize);
  L["store.compactions"] = static_cast<double>(ss.key_compactions + ss.value_compactions);
  L["store.compactions_min_per_store"] = static_cast<double>(min_compactions);
  L["store.compaction_live_ratio"] =
      Ratio(static_cast<double>(ss.items_live_moved),
            static_cast<double>(ss.items_live_moved + ss.items_dropped));
  L["store.prefetch_hit_ratio"] =
      Ratio(static_cast<double>(ss.prefetch_hits),
            static_cast<double>(ss.prefetch_hits + ss.prefetch_misses));
  L["store.scan_items_per_scan"] =
      Ratio(static_cast<double>(ss.scan_items), static_cast<double>(ss.scans));
  L["store.scan_stale_share"] =
      Ratio(static_cast<double>(ss.scan_stale_locs),
            static_cast<double>(ss.scan_items + ss.scan_stale_locs));
  L["log.wraps"] = min_wraps;
  L["log.used_fraction_max"] = log_used_max_;
}

void Driver::EngineFromTrace(DriveResult* r) {
  auto& L = r->layer;
  // Queue percentiles are over the ops that waited (waited_share says how
  // many did); over all ops they are 0 whenever fewer than half wait.
  const Latency q = Summarize(waited_ns_), s = Summarize(service_ns_);
  L["engine.queue_us_p50"] = q.p50_us;
  L["engine.queue_us_p99"] = q.p99_us;
  L["engine.service_us_p50"] = s.p50_us;
  L["engine.service_us_p99"] = s.p99_us;
  // The same samples through the registry's bucketing must reproduce the
  // registry's own histograms exactly.
  Histogram tq, ts;
  for (SimTime v : queue_ns_) tq.Record(leed::ToMicros(v));
  for (SimTime v : service_ns_) ts.Record(leed::ToMicros(v));
  const Histogram& rq = registry_queue_us_;
  const Histogram& rs = registry_service_us_;
  if (tq.count() != rq.count() || tq.P50() != rq.P50() || tq.P99() != rq.P99() ||
      ts.count() != rs.count() || ts.P50() != rs.P50() || ts.P99() != rs.P99()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "engine trace pairs disagree with registry: queue %llu vs %llu "
                  "samples, service %llu vs %llu samples",
                  static_cast<unsigned long long>(tq.count()),
                  static_cast<unsigned long long>(rq.count()),
                  static_cast<unsigned long long>(ts.count()),
                  static_cast<unsigned long long>(rs.count()));
    r->guard_failures.push_back(buf);
  }
}

void Driver::WriteSpans() const {
  if (options_.span_prefix.empty()) return;
  if (std::FILE* f = std::fopen((options_.span_prefix + ".ops.csv").c_str(), "w")) {
    std::fprintf(f, "op,type,client,status,sim_issued_ns,sim_completed_ns,"
                    "host_generator_ns,host_client_call_ns,host_callback_ns\n");
    static const char* kType[] = {"get", "put", "scan"};
    for (size_t i = 0; i < op_spans_.size(); ++i) {
      const OpSpan& s = op_spans_[i];
      std::fprintf(f, "%zu,%s,%u,%d,%lld,%lld,%lld,%lld,%lld\n", i,
                   kType[static_cast<int>(s.type)], s.client, s.status,
                   static_cast<long long>(s.issued), static_cast<long long>(s.completed),
                   static_cast<long long>(s.gen_ns), static_cast<long long>(s.call_ns),
                   static_cast<long long>(s.callback_ns));
    }
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen((options_.span_prefix + ".slices.csv").c_str(), "w")) {
    std::fprintf(f, "sim_from_ns,sim_to_ns,host_run_until_ns,host_callback_ns,events\n");
    for (const auto& s : slices_) {
      std::fprintf(f, "%lld,%lld,%lld,%lld,%llu\n", static_cast<long long>(s.sim_from),
                   static_cast<long long>(s.sim_to), static_cast<long long>(s.host_ns),
                   static_cast<long long>(s.callback_ns),
                   static_cast<unsigned long long>(s.events));
    }
    std::fclose(f);
  }
}

DriveResult Driver::Run() {
  DriveResult r;
  auto& ring = leed::obs::TraceRing::Default();
  ring.Clear();
  ring.set_enabled(options_.trace);

  const SimTime t0 = sim_.Now();
  measure_start_ = t0 + options_.warmup;
  end_ = measure_start_ + options_.window;
  sim_.ScheduleDaemon(0, [this] { Tick(); });
  if (spec_.open_rate_qps > 0) {
    sim_.Schedule(0, [this] { Arrive(); });
  } else {
    for (uint32_t c = 0; c < cluster_.num_clients(); ++c) {
      for (uint32_t s = 0; s < spec_.window_per_client; ++s) {
        sim_.Schedule(0, [this, c] {
          CallbackSpan span(*this);
          Issue(c);
        });
      }
    }
  }

  RunSlice(measure_start_);
  registry_.ResetAll();
  const Snapshot start = Snap();
  std::vector<double> us_per_op, raw_us_per_op;
  // Each slice is scaled by the mean of the probes that bracket it.
  double speed = HostSpeedFactor();
  double cpu = ProcessCpuSeconds();
  uint64_t done = completed_in_window_;
  for (int k = 1; k <= kSlices; ++k) {
    RunSlice(measure_start_ + options_.window * k / kSlices);
    const double cpu_now = ProcessCpuSeconds();
    const double speed_now = HostSpeedFactor();
    if (completed_in_window_ > done) {
      const double us = (cpu_now - cpu) * 1e6 / static_cast<double>(completed_in_window_ - done);
      raw_us_per_op.push_back(us);
      us_per_op.push_back(us * (speed + speed_now) / 2);
    }
    speed = speed_now;
    cpu = ProcessCpuSeconds();  // the probe's own time is not the slice's
    done = completed_in_window_;
  }
  const Snapshot stop = Snap();
  ComputeLayers(start, stop, &r);
  r.counters = leed::obs::ParseSnapshotCounters(registry_.SnapshotJson());

  // Drain: closed loops stop reissuing at end_, open-loop arrivals stop.
  while (outstanding_ > 0 && sim_.Now() < end_ + kDrainLimit) {
    RunSlice(sim_.Now() + 10 * kMillisecond);
  }
  if (outstanding_ > 0) r.guard_failures.push_back("ops still outstanding after drain");

  // Read back every written key and compare with its last acked version.
  readback_keys_ = checker_.WrittenKeys();
  for (uint32_t c = 0; c < cluster_.num_clients(); ++c) {
    for (uint32_t s = 0; s < 64; ++s) ReadBack(c);
  }
  const SimTime rb_start = sim_.Now();
  while (outstanding_ > 0 && sim_.Now() < rb_start + kDrainLimit) {
    RunSlice(sim_.Now() + 10 * kMillisecond);
  }
  if (outstanding_ > 0) r.guard_failures.push_back("read-back did not finish");
  finished_ = true;
  if (options_.trace) {
    DrainTrace();
    EngineFromTrace(&r);
  }
  ring.set_enabled(false);
  ring.Clear();

  const double window_s = leed::ToSeconds(options_.window);
  r.sim_kqps = static_cast<double>(completed_in_window_) / window_s / 1e3;
  r.sim_goodput_kqps = static_cast<double>(good_in_window_) / window_s / 1e3;
  r.offered_kqps = static_cast<double>(arrivals_in_window_) / window_s / 1e3;
  r.shed = shed_in_window_;
  r.sim_kq_per_joule = Ratio(r.sim_kqps, r.layer["power.cluster_w"]);
  r.get = Summarize(latency_[0]);
  r.put = Summarize(latency_[1]);
  r.scan = Summarize(latency_[2]);
  r.attempted = attempted_;
  r.failed = failed_;
  r.wrong_results = wrong_;
  r.readback_keys = readback_keys_.size();
  r.failures_by_status = failures_by_status_;
  r.wrong_examples = wrong_examples_;
  r.host_cpu_us_per_op = Median(us_per_op);
  r.host_cpu_us_per_op_raw = Median(raw_us_per_op);
  r.trace_dropped = trace_dropped_;
  if (options_.trace && trace_dropped_ > 0) {
    r.guard_failures.push_back("trace ring wrapped between drains");
  }
  WriteSpans();
  return r;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> w(4);
    w[0].name = "read-hot";
    w[0].why = "YCSB-B point reads: SegTbl probe, bucket+value reads, CRRS read "
               "shipping and token-aware replica choice carry the load";
    w[0].mix = Mix::kB;
    w[0].keys = 20000;
    w[0].sim_ms_per_host_s = 60;

    w[1].name = "write-churn";
    w[1].why = "YCSB-WR on small logs: chain replication, log append, compaction "
               "and log wraparound carry the load; the read path is idle";
    w[1].mix = Mix::kWriteOnly;
    w[1].keys = 8000;
    w[1].sim_ms_per_host_s = 75;
    w[1].partition_bytes = 4ull << 20;
    w[1].warmup = 500 * kMillisecond;

    w[2].name = "scan-range";
    w[2].why = "YCSB-E with scans of 1..16 items: range-index lookups, scan token "
               "pre-charge, batched value fetches and re-snapshots";
    w[2].mix = Mix::kE;
    w[2].keys = 20000;
    w[2].sim_ms_per_host_s = 200;

    w[3].name = "mixed-open";
    w[3].why = "YCSB-A with Poisson arrivals above closed-loop capacity: admission, "
               "deferral, rejection, timeout and retry carry the load";
    w[3].mix = Mix::kA;
    w[3].keys = 20000;
    w[3].window_per_client = 64;
    w[3].open_rate_qps = 320'000;
    w[3].sim_ms_per_host_s = 80;
    return w;
  }();
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double HostSpeedFactor() {
  // A fixed random cycle through 32 MiB: every step misses the caches, as
  // the simulator's event heap, maps and page store do.
  static const std::vector<uint32_t> next = [] {
    const uint32_t n = 1u << 23;
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    leed::Rng rng(0x5eed);
    for (uint32_t i = n - 1; i > 0; --i) std::swap(order[i], order[rng.NextBounded(i + 1)]);
    std::vector<uint32_t> link(n);
    for (uint32_t i = 0; i < n; ++i) link[order[i]] = order[(i + 1) % n];
    return link;
  }();
  // Probe time of 200k steps on a 2.1 GHz Xeon VM with no other load.
  constexpr double kReferenceProbeS = 0.028;
  const double t0 = ProcessCpuSeconds();
  uint32_t p = 0;
  for (int i = 0; i < 200'000; ++i) p = next[p];
  const double probe = ProcessCpuSeconds() - t0;
  volatile uint32_t sink = p;
  (void)sink;
  return probe > 0 ? kReferenceProbeS / probe : 1.0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Bench::Impl {
  WorkloadSpec spec;
  uint64_t seed;
  ClusterConfig config;
  std::unique_ptr<leed::obs::Registry> registry;
  std::unique_ptr<ClusterSim> cluster;
};

Bench::Bench(const WorkloadSpec& spec, uint64_t seed)
    : impl_(std::make_unique<Impl>()) {
  impl_->spec = spec;
  impl_->seed = seed;
  impl_->config = LeedConfig(spec, DeriveSeed(seed, 0xc105));
}

Bench::~Bench() = default;

double Bench::Setup() {
  const double speed = HostSpeedFactor();
  const double t0 = ProcessCpuSeconds();
  impl_->cluster.reset();
  impl_->registry = std::make_unique<leed::obs::Registry>();
  impl_->config.node.metrics_registry = impl_->registry.get();
  impl_->cluster = std::make_unique<ClusterSim>(impl_->config);
  impl_->cluster->Bootstrap();
  impl_->cluster->Preload(impl_->spec.keys, kValueSize);
  const double cpu = ProcessCpuSeconds() - t0;
  return cpu * (speed + HostSpeedFactor()) / 2;
}

DriveResult Bench::Drive(const DriveOptions& options) {
  Driver driver(*impl_->cluster, *impl_->registry, impl_->spec, impl_->seed, options);
  DriveResult r = driver.Run();
  const WorkloadSpec& w = impl_->spec;
  auto fail = [&](const std::string& why) { r.guard_failures.push_back(why); };
  // Layer-exercise guards: a workload that did not exercise the layer it
  // exists for fails instead of printing numbers.
  if (!(r.sim_kqps > 0)) fail("sim_kqps is 0");
  for (const auto* l : {&r.get, &r.put, &r.scan}) {
    if (l->count > 0 && l->beyond_p999 < 10) {
      fail("p999 rests on fewer than 10 samples beyond it");
    }
  }
  switch (w.mix) {
    case Mix::kB:
      if (!(r.layer["repl.reads_shipped_share"] > 0)) fail("no CRRS read was shipped");
      break;
    case Mix::kWriteOnly:
      if (r.layer["store.compactions_min_per_store"] < 2) {
        fail("a store compacted fewer than 2 times");
      }
      if (r.layer["log.wraps"] < 1) fail("a store's log did not wrap");
      break;
    case Mix::kE:
      if (!(r.layer["store.scan_items_per_scan"] >= 1 &&
            r.layer["store.scan_items_per_scan"] <= w.max_scan_len)) {
        fail("scan items per scan outside [1, max_scan_len]");
      }
      break;
    case Mix::kA:
      if (!(r.layer["flowctl.deferrals_per_op"] > 0)) fail("no flow-control deferral");
      break;
    default:
      break;
  }
  return r;
}

std::string Bench::ConfigText() const {
  const ClusterConfig& c = impl_->config;
  const auto& p = c.node.platform;
  const auto& e = c.node.engine;
  const auto& s = e.ssd;
  const auto& st = e.store_template;
  const auto& k = st.costs;
  const auto& t = e.tokens;
  std::ostringstream o;
  o << "nodes=" << c.num_nodes << "\nclients=" << c.num_clients
    << "\nreplication_factor=" << c.control_plane.replication_factor
    << "\ncrrs=" << c.node.crrs << "\noffload=" << e.offload_enabled
    << "\nplatform=" << p.name << "\nplatform.cores=" << p.cores
    << "\nplatform.freq_ghz=" << p.freq_ghz << "\nplatform.ipc_factor=" << p.ipc_factor
    << "\nplatform.power.idle_w=" << p.power.idle_w
    << "\nplatform.power.active_w=" << p.power.active_w
    << "\nplatform.power.polling=" << p.power.polling
    << "\nplatform.nic.bandwidth_bpns=" << p.nic.bandwidth_bpns
    << "\nplatform.nic.base_latency_ns=" << p.nic.base_latency_ns
    << "\nnode.net_rx_cycles=" << c.node.net_rx_cycles
    << "\nnode.net_tx_cycles=" << c.node.net_tx_cycles << "\nssd=" << s.name
    << "\nssd.capacity_bytes=" << s.capacity_bytes << "\nssd.block_size=" << s.block_size
    << "\nssd.read_channels=" << s.read_channels << "\nssd.read_base_ns=" << s.read_base_ns
    << "\nssd.read_bandwidth_bpns=" << s.read_bandwidth_bpns
    << "\nssd.write_base_ns=" << s.write_base_ns
    << "\nssd.write_bandwidth_bpns=" << s.write_bandwidth_bpns
    << "\nssd.random_write_penalty=" << s.random_write_penalty
    << "\nssd.write_min_occupancy_ns=" << s.write_min_occupancy_ns
    << "\nssd.latency_jitter=" << s.latency_jitter << "\nssd.slow_io_prob=" << s.slow_io_prob
    << "\nssd.slow_io_factor=" << s.slow_io_factor << "\nengine.ssd_count=" << e.ssd_count
    << "\nengine.stores_per_ssd=" << e.stores_per_ssd
    << "\nengine.wait_queue_capacity=" << e.wait_queue_capacity
    << "\nengine.partition_bytes=" << e.partition_bytes
    << "\nengine.key_log_fraction=" << e.key_log_fraction
    << "\nengine.swap_fraction=" << e.swap_fraction
    << "\nengine.enable_data_swap=" << e.enable_data_swap
    << "\nengine.swap_check_period=" << e.swap_check_period
    << "\nengine.swap_gap_threshold=" << e.swap_gap_threshold
    << "\ntokens.base_tokens=" << t.base_tokens
    << "\ntokens.reference_latency_ns=" << t.reference_latency_ns
    << "\ntokens.ewma_alpha=" << t.ewma_alpha << "\ntokens.min_tokens=" << t.min_tokens
    << "\ntokens.max_tokens=" << t.max_tokens << "\ntokens.get_cost=" << t.get_cost
    << "\ntokens.put_cost=" << t.put_cost << "\ntokens.del_cost=" << t.del_cost
    << "\ntokens.scan_items_per_token=" << t.scan_items_per_token
    << "\nstore.num_segments=" << st.num_segments << "\nstore.bucket_size=" << st.bucket_size
    << "\nstore.chain_bits=" << st.chain_bits
    << "\nstore.compaction_threshold=" << st.compaction_threshold
    << "\nstore.compaction_chunk=" << st.compaction_chunk
    << "\nstore.subcompactions=" << st.subcompactions << "\nstore.prefetch=" << st.prefetch
    << "\nstore.ipc_factor=" << st.ipc_factor
    << "\ncosts.op_dispatch=" << k.op_dispatch
    << "\ncosts.bucket_parse_per_item=" << k.bucket_parse_per_item
    << "\ncosts.bucket_build=" << k.bucket_build
    << "\ncosts.value_build_per_kib=" << k.value_build_per_kib
    << "\ncosts.op_complete=" << k.op_complete
    << "\ncosts.compaction_per_item=" << k.compaction_per_item
    << "\ncosts.compaction_setup=" << k.compaction_setup
    << "\ncosts.scan_index_per_item=" << k.scan_index_per_item
    << "\nclient.request_timeout=" << c.client.request_timeout
    << "\nclient.max_retries=" << c.client.max_retries
    << "\nclient.retry_delay=" << c.client.retry_delay
    << "\nclient.initial_tokens=" << c.client.initial_tokens << "\n";
  return o.str();
}

uint64_t Bench::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char ch : ConfigText()) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace leedbench
