// Unified observability: the metrics registry (leed::obs).
//
// Every quantitative claim in the paper — NVMe accesses per op (§3.3),
// token-queue occupancy (§3.4/§3.5), CRRS shipping rates (§3.7), per-watt
// throughput (§4) — used to be measured through ad-hoc stat structs that
// every bench re-plumbed by hand. The registry replaces that with one
// uniform substrate:
//
//   * three instrument kinds: monotonic Counter, double-valued Gauge, and
//     latency Histogram (reusing common/histogram's HDR-style buckets);
//   * hierarchical dot-joined names ("node3.engine.ssd0.read_us") so one
//     snapshot covers every layer of a simulated cluster;
//   * handle-based recording: components resolve a name to a stable
//     pointer once at construction and record through it on the hot path
//     (one increment, no map lookup, no string formatting);
//   * a deterministic JSON snapshot (name-sorted) that leedsim and the
//     benches export, giving CI stable counter names to diff.
//
// Registration is idempotent: resolving the same (name, kind) twice
// returns the same handle. Resolving a name under a *different* kind is a
// programming error and throws std::logic_error — silently aliasing a
// counter as a gauge would corrupt both.
//
// A registry belongs to one simulation and, like it, to one thread: a
// ClusterSim owns one unless its caller supplies one, and seed sweeps give
// every seed its own.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/histogram.h"

namespace leed::obs {

class Counter {
 public:
  void Inc() { ++value_; }
  void Add(uint64_t n) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

enum class InstrumentKind : uint8_t { kCounter, kGauge, kHistogram };

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Resolve-or-create. Returned pointers stay valid for the registry's
  // lifetime (instruments are never deregistered, only Reset). Throws
  // std::logic_error if `name` is already registered under another kind.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Read-only lookup; nullptr when absent or of a different kind.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Convenience for tests/CI assertions: 0 / 0.0 when absent.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  size_t size() const { return instruments_.size(); }

  // Zero every instrument, keeping registrations (and handles) intact.
  void ResetAll();
  // Reset only instruments whose name starts with `prefix` — components
  // re-created under a previously used name start from zero without
  // disturbing the rest of the registry.
  void ResetPrefix(const std::string& prefix);

  // Deterministic snapshot: {"counters":{...},"gauges":{...},
  // "histograms":{name:{count,mean,min,max,p50,p99,p999}}}, keys sorted.
  std::string SnapshotJson() const;
  bool WriteJsonFile(const std::string& path) const;

 private:
  struct Instrument {
    InstrumentKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& Resolve(const std::string& name, InstrumentKind kind);
  const Instrument* Find(const std::string& name) const;

  std::map<std::string, Instrument> instruments_;
};

// Extract the "counters" section of a SnapshotJson() string. This is the
// inverse half of the snapshot round-trip that CI's regression gates rely
// on; it only understands the snapshot's own output, not arbitrary JSON.
std::map<std::string, uint64_t> ParseSnapshotCounters(const std::string& json);

// A registry handle plus a dot-joined name prefix, so a component can hand
// scoped sub-namespaces to its children: Scope(&reg, "node3").Sub("engine")
// names instruments "node3.engine.*". A scope made without a registry (a
// component built standalone, as in unit tests) owns a fresh one, which
// its Sub() scopes share.
class Scope {
 public:
  explicit Scope(Registry* registry, std::string prefix = "")
      : owned_(registry ? nullptr : std::make_shared<Registry>()),
        registry_(registry ? registry : owned_.get()),
        prefix_(std::move(prefix)) {}

  Scope Sub(const std::string& name) const {
    Scope sub = *this;
    sub.prefix_ = Join(name);
    return sub;
  }

  Counter* GetCounter(const std::string& name) const {
    return registry_->GetCounter(Join(name));
  }
  Gauge* GetGauge(const std::string& name) const {
    return registry_->GetGauge(Join(name));
  }
  Histogram* GetHistogram(const std::string& name) const {
    return registry_->GetHistogram(Join(name));
  }

  // Zero everything previously registered under this scope's prefix.
  void ResetInstruments() const { registry_->ResetPrefix(prefix_); }

  Registry& registry() const { return *registry_; }
  const std::string& prefix() const { return prefix_; }

 private:
  std::string Join(const std::string& name) const {
    return prefix_.empty() ? name : prefix_ + "." + name;
  }

  std::shared_ptr<Registry> owned_;
  Registry* registry_;
  std::string prefix_;
};

}  // namespace leed::obs
