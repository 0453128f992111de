#include "sim/fault.h"

#include <algorithm>
#include <cstdlib>

namespace leed::sim {

// ---- DeviceFaults ---------------------------------------------------------

DeviceFaults::DeviceFaults(Simulator& sim, DeviceFaultSpec spec, uint64_t seed,
                           uint32_t node, uint32_t unit,
                           FaultCounters* counters, obs::TraceRing* trace)
    : sim_(sim),
      spec_(spec),
      rng_(seed),
      node_(node),
      unit_(unit),
      counters_(counters),
      trace_(trace) {}

IoFault DeviceFaults::OnIo(bool is_write, uint64_t length,
                           double* latency_factor, uint64_t* keep_bytes) {
  *latency_factor = 1.0;
  *keep_bytes = 0;
  ++ios_;
  const uint64_t seq = is_write ? ++writes_ : ++reads_;
  if (crashed_ || (spec_.crash_at_io != 0 && ios_ >= spec_.crash_at_io)) {
    if (!crashed_) {
      // The crash-point IO itself: a write persists a random strict
      // prefix (what made it to the media before power cut), a read just
      // vanishes. Everything after is black-holed silently.
      crashed_ = true;
      if (is_write && length > 0) *keep_bytes = rng_.NextBounded(length);
      trace_->Record(sim_.Now(), obs::TraceKind::kDevFault, node_, unit_,
                     ios_, static_cast<int64_t>(IoFault::kCrash));
    }
    counters_->dev_crash_dropped->Inc();
    return IoFault::kCrash;
  }
  if (dead_ || (spec_.dead_at != 0 && ios_ >= spec_.dead_at)) {
    if (!dead_) {
      dead_ = true;
      counters_->dev_dead->Inc();
      trace_->Record(sim_.Now(), obs::TraceKind::kDevDead, node_, unit_, ios_);
    }
    // Unlike a crash, a dead device still answers — with an error. The
    // engine sees a hard IoError for every IO and can latch the store.
    if (is_write) counters_->dev_write_errors->Inc();
    else counters_->dev_read_errors->Inc();
    return IoFault::kError;
  }
  bool fail = false;
  if (is_write) {
    if (spec_.fail_write_at != 0 && seq == spec_.fail_write_at) {
      fail = true;
    } else if (spec_.write_error_rate > 0.0 &&
               rng_.NextBool(spec_.write_error_rate)) {
      fail = true;
    }
    if (fail) {
      counters_->dev_write_errors->Inc();
      if (spec_.torn_writes && length > 0) {
        *keep_bytes = rng_.NextBounded(length);
        counters_->dev_torn_writes->Inc();
        trace_->Record(sim_.Now(), obs::TraceKind::kDevFault, node_, unit_,
                       ios_, static_cast<int64_t>(IoFault::kTorn));
        return IoFault::kTorn;
      }
      trace_->Record(sim_.Now(), obs::TraceKind::kDevFault, node_, unit_,
                     ios_, static_cast<int64_t>(IoFault::kError));
      return IoFault::kError;
    }
  } else {
    if (spec_.fail_read_at != 0 && seq == spec_.fail_read_at) {
      fail = true;
    } else if (spec_.read_error_rate > 0.0 &&
               rng_.NextBool(spec_.read_error_rate)) {
      fail = true;
    }
    if (fail) {
      counters_->dev_read_errors->Inc();
      trace_->Record(sim_.Now(), obs::TraceKind::kDevFault, node_, unit_,
                     ios_, static_cast<int64_t>(IoFault::kError));
      return IoFault::kError;
    }
  }
  if (spec_.latency_spike_prob > 0.0 &&
      rng_.NextBool(spec_.latency_spike_prob)) {
    *latency_factor = std::max(1.0, spec_.latency_spike_factor);
    counters_->dev_latency_spikes->Inc();
  }
  return IoFault::kNone;
}

void DeviceFaults::Kill() {
  if (dead_) return;
  dead_ = true;
  counters_->dev_dead->Inc();
  trace_->Record(sim_.Now(), obs::TraceKind::kDevDead, node_, unit_, 0);
}

// ---- NetFaults ------------------------------------------------------------

NetFaults::NetFaults(uint64_t seed, FaultCounters* counters)
    : rng_(seed), counters_(counters) {}

bool NetFaults::Partitioned(EndpointId src, EndpointId dst,
                            SimTime now) const {
  for (const PartitionRule& r : partitions_) {
    if (now < r.start || (r.heal != 0 && now >= r.heal)) continue;
    if (src == r.a && dst == r.b) return true;
    if (r.bidirectional && src == r.b && dst == r.a) return true;
  }
  return false;
}

NetVerdict NetFaults::OnSend(EndpointId src, EndpointId dst, SimTime now,
                             SimTime* extra_delay) {
  *extra_delay = 0;
  if (Partitioned(src, dst, now)) {
    counters_->net_partition_drops->Inc();
    return NetVerdict::kDropPartition;
  }
  if (spec_.drop_prob > 0.0 && rng_.NextBool(spec_.drop_prob)) {
    counters_->net_drops_injected->Inc();
    return NetVerdict::kDropInjected;
  }
  if (spec_.dup_prob > 0.0 && rng_.NextBool(spec_.dup_prob)) {
    counters_->net_dups->Inc();
    return NetVerdict::kDuplicate;
  }
  if (spec_.delay_prob > 0.0 && rng_.NextBool(spec_.delay_prob)) {
    counters_->net_delays->Inc();
    *extra_delay = spec_.delay_ns;
  }
  return NetVerdict::kDeliver;
}

// ---- ParseFaultPlan -------------------------------------------------------

namespace {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    std::string piece = text.substr(start, end - start);
    // Trim surrounding whitespace.
    size_t a = piece.find_first_not_of(" \t");
    size_t b = piece.find_last_not_of(" \t");
    if (a != std::string::npos) out.push_back(piece.substr(a, b - a + 1));
    else if (!piece.empty() || end != text.size()) out.push_back("");
    start = end + 1;
    if (end == text.size()) break;
  }
  return out;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

}  // namespace

Result<FaultPlan> ParseFaultPlan(const std::string& text) {
  FaultPlan plan;
  for (const std::string& clause : Split(text, ';')) {
    if (clause.empty()) continue;
    size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("fault clause missing ':': " + clause);
    }
    const std::string kind = clause.substr(0, colon);
    std::map<std::string, std::string> kv;
    for (const std::string& pair : Split(clause.substr(colon + 1), ',')) {
      if (pair.empty()) continue;
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("fault key missing '=': " + pair);
      }
      kv[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
    auto num = [&kv](const std::string& key, double* out) {
      auto it = kv.find(key);
      if (it == kv.end()) return true;  // absent: keep default
      bool ok = ParseDouble(it->second, out);
      kv.erase(it);
      return ok;
    };
    auto integer = [&kv](const std::string& key, int64_t* out) {
      auto it = kv.find(key);
      if (it == kv.end()) return true;
      bool ok = ParseInt(it->second, out);
      kv.erase(it);
      return ok;
    };
    bool ok = true;
    if (kind == "dev") {
      FaultPlan::DevClause d;
      int64_t fail_read = 0, fail_write = 0, torn = 0, crash_at = 0;
      int64_t dead_at = 0;
      double dead_after_ms = 0.0;
      int64_t node = -1, ssd = -1;
      ok = num("read_err", &d.spec.read_error_rate) &&
           num("write_err", &d.spec.write_error_rate) &&
           integer("fail_read_at", &fail_read) &&
           integer("fail_write_at", &fail_write) &&
           num("spike_p", &d.spec.latency_spike_prob) &&
           num("spike_x", &d.spec.latency_spike_factor) &&
           integer("torn", &torn) && integer("crash_at_io", &crash_at) &&
           integer("dead_at", &dead_at) &&
           num("dead_after_ms", &dead_after_ms) &&
           integer("node", &node) && integer("ssd", &ssd);
      d.spec.fail_read_at = static_cast<uint64_t>(std::max<int64_t>(0, fail_read));
      d.spec.fail_write_at = static_cast<uint64_t>(std::max<int64_t>(0, fail_write));
      d.spec.torn_writes = torn != 0;
      d.spec.crash_at_io = static_cast<uint64_t>(std::max<int64_t>(0, crash_at));
      d.spec.dead_at = static_cast<uint64_t>(std::max<int64_t>(0, dead_at));
      d.dead_after = static_cast<SimTime>(dead_after_ms * 1e6);
      d.node = static_cast<int32_t>(node);
      d.ssd = static_cast<int32_t>(ssd);
      if (ok) plan.devices.push_back(d);
    } else if (kind == "net") {
      double delay_us = 0.0;
      ok = num("drop", &plan.net.drop_prob) &&
           num("dup", &plan.net.dup_prob) &&
           num("delay_p", &plan.net.delay_prob) && num("delay_us", &delay_us);
      plan.net.delay_ns = static_cast<SimTime>(delay_us * 1000.0);
      plan.has_net = true;
    } else if (kind == "part") {
      FaultPlan::PartitionClause p;
      int64_t a = 0, b = 0, oneway = 0;
      double at_ms = 0.0, heal_ms = 0.0;
      ok = integer("a", &a) && integer("b", &b) && num("at_ms", &at_ms) &&
           num("heal_ms", &heal_ms) && integer("oneway", &oneway);
      p.node_a = static_cast<uint32_t>(a);
      p.node_b = static_cast<uint32_t>(b);
      p.bidirectional = oneway == 0;
      p.start = static_cast<SimTime>(at_ms * 1e6);
      p.heal = static_cast<SimTime>(heal_ms * 1e6);
      if (ok) plan.partitions.push_back(p);
    } else if (kind == "crash") {
      FaultPlan::CrashClause c;
      int64_t node = 0;
      double at_ms = 0.0, restart_ms = 0.0;
      ok = integer("node", &node) && num("at_ms", &at_ms) &&
           num("restart_ms", &restart_ms);
      c.node = static_cast<uint32_t>(node);
      c.at = static_cast<SimTime>(at_ms * 1e6);
      c.restart = static_cast<SimTime>(restart_ms * 1e6);
      if (ok) plan.crashes.push_back(c);
    } else {
      return Status::InvalidArgument("unknown fault clause kind: " + kind);
    }
    if (!ok) {
      return Status::InvalidArgument("bad value in fault clause: " + clause);
    }
    if (!kv.empty()) {
      return Status::InvalidArgument("unknown fault key '" + kv.begin()->first +
                                     "' in clause: " + clause);
    }
  }
  return plan;
}

// ---- FaultInjector --------------------------------------------------------

FaultInjector::FaultInjector(Simulator& sim, uint64_t seed,
                             obs::Registry* registry, obs::TraceRing* trace)
    : sim_(sim),
      scope_(registry, "faults"),
      trace_(trace ? trace : &obs::TraceRing::Default()),
      net_(SplitMix64(seed ^ 0xfa017eedULL).Next(), &counters_) {
  scope_.ResetInstruments();
  counters_.dev_dead = scope_.GetCounter("dev.dead");
  counters_.dev_read_errors = scope_.GetCounter("dev_read_errors");
  counters_.dev_write_errors = scope_.GetCounter("dev_write_errors");
  counters_.dev_torn_writes = scope_.GetCounter("dev_torn_writes");
  counters_.dev_latency_spikes = scope_.GetCounter("dev_latency_spikes");
  counters_.dev_crash_dropped = scope_.GetCounter("dev_crash_dropped");
  counters_.net_drops_injected = scope_.GetCounter("net_drops_injected");
  counters_.net_dups = scope_.GetCounter("net_dups");
  counters_.net_delays = scope_.GetCounter("net_delays");
  counters_.net_partition_drops = scope_.GetCounter("net_partition_drops");
  counters_.node_crashes = scope_.GetCounter("node_crashes");
  counters_.node_restarts = scope_.GetCounter("node_restarts");
}

DeviceFaults* FaultInjector::AddDevice(const DeviceFaultSpec& spec,
                                       uint64_t seed, uint32_t node,
                                       uint32_t unit) {
  devices_.push_back(std::make_unique<DeviceFaults>(
      sim_, spec, seed, node, unit, &counters_, trace_));
  DeviceFaults* d = devices_.back().get();
  if (crashed_nodes_.contains(node)) d->Crash();
  return d;
}

void FaultInjector::SetDeviceSpec(const DeviceFaultSpec& spec, int32_t node,
                                  int32_t unit) {
  for (auto& d : devices_) {
    if (node >= 0 && d->node() != static_cast<uint32_t>(node)) continue;
    if (unit >= 0 && d->unit() != static_cast<uint32_t>(unit)) continue;
    d->set_spec(spec);
  }
}

void FaultInjector::KillDevice(int32_t node, int32_t unit) {
  for (auto& d : devices_) {
    if (node >= 0 && d->node() != static_cast<uint32_t>(node)) continue;
    if (unit >= 0 && d->unit() != static_cast<uint32_t>(unit)) continue;
    d->Kill();
  }
}

void FaultInjector::RetireDevice(uint32_t node, uint32_t unit) {
  for (auto it = devices_.begin(); it != devices_.end(); ++it) {
    if ((*it)->node() == node && (*it)->unit() == unit) {
      retired_devices_.push_back(std::move(*it));
      devices_.erase(it);
      return;
    }
  }
}

void FaultInjector::CrashNode(uint32_t node_id) {
  if (!crashed_nodes_.insert(node_id).second) return;
  for (auto& d : devices_) {
    if (d->node() == node_id) d->Crash();
  }
  counters_.node_crashes->Inc();
  trace_->Record(sim_.Now(), obs::TraceKind::kNodeCrash, node_id, 0, node_id);
}

void FaultInjector::ReviveNode(uint32_t node_id) {
  if (crashed_nodes_.erase(node_id) == 0) return;
  for (auto& d : devices_) {
    if (d->node() == node_id) d->Revive();
  }
  counters_.node_restarts->Inc();
  trace_->Record(sim_.Now(), obs::TraceKind::kNodeRestart, node_id, 0,
                 node_id);
}

}  // namespace leed::sim
