// Unified observability: the metrics registry (leed::obs).
//
// Every quantitative claim in the paper — NVMe accesses per op (§3.3),
// token-queue occupancy (§3.4/§3.5), CRRS shipping rates (§3.7), per-watt
// throughput (§4) — is read from one registry per simulation:
//
//   * three instrument kinds: monotonic counter, double-valued Gauge, and
//     latency Histogram (reusing common/histogram's HDR-style buckets);
//   * hierarchical dot-joined names ("node3.engine.ssd0.read_us") so one
//     snapshot covers every layer of a simulated cluster;
//   * stats structs: a component keeps its counts in a plain struct
//     (StoreStats, NodeStats, ...) that the registry owns. Scope::Resolve
//     builds it from a table of {name, &S::field} rows: each uint64_t row
//     is a counter, each Histogram row a histogram, and a field left out
//     of the table is private to the component. The component records
//     with `++stats_->field`, and stats() returns the struct itself, so
//     every event is counted in exactly one place;
//   * handles for the rest: GetCounter/GetGauge/GetHistogram resolve a
//     single instrument to a stable pointer (gauges, fabric totals, fault
//     counters);
//   * a deterministic JSON snapshot (name-sorted) that leedsim and the
//     benches export, giving CI stable counter names to diff.
//
// Registration is idempotent: resolving the same (name, kind), or the same
// stats struct at the same prefix, twice returns the same storage — a
// restarted node and its crashed predecessor count into one struct.
// Resolving a name under a *different* kind, or publishing a name twice,
// is a programming error and throws std::logic_error — silently aliasing
// a counter as a gauge would corrupt both.
//
// A registry belongs to one simulation and, like it, to one thread: a
// ClusterSim owns one unless its caller supplies one, and seed sweeps give
// every seed its own.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <typeindex>
#include <utility>

#include "common/histogram.h"

namespace leed::obs {

class Counter {
 public:
  void Inc() { ++value_; }
  void Add(uint64_t n) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  friend class Registry;
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

// One row of a stats struct's table: field `S::*` published as
// "<prefix>.<name>".
template <typename S>
struct Field {
  constexpr Field(const char* n, uint64_t S::*c) : name(n), counter(c) {}
  constexpr Field(const char* n, Histogram S::*h) : name(n), histogram(h) {}

  const char* name;
  uint64_t S::*counter = nullptr;
  Histogram S::*histogram = nullptr;
};

inline std::string JoinName(const std::string& prefix, const std::string& name) {
  return prefix.empty() ? name : prefix + "." + name;
}

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Resolve-or-create. Returned pointers stay valid for the registry's
  // lifetime (instruments are never deregistered, only Reset). Throws
  // std::logic_error if `name` is already registered under another kind
  // or is a stats-struct field.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // The S at `prefix`, made and published on first use (rows as in
  // Field); later calls return the same struct. Fields start at zero.
  template <typename S>
  S* Resolve(const std::string& prefix, std::span<const Field<S>> fields) {
    std::shared_ptr<void>& slot = structs_[{prefix, std::type_index(typeid(S))}];
    if (!slot) {
      auto stats = std::make_shared<S>();
      slot = stats;
      for (const Field<S>& f : fields) {
        if (f.counter) {
          Publish(JoinName(prefix, f.name), &(stats.get()->*f.counter));
        } else {
          Publish(JoinName(prefix, f.name), &(stats.get()->*f.histogram));
        }
      }
    }
    return static_cast<S*>(slot.get());
  }

  // Read-only lookup; nullptr when absent or of a different kind.
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Convenience for tests/CI assertions: 0 / 0.0 when absent.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  size_t size() const { return instruments_.size(); }

  // Zero every instrument (a stats struct's published fields, not its
  // private ones), keeping registrations and pointers intact.
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
  // Where an instrument's value lives: in the Counter/Gauge/Histogram a
  // Get* call made (`owned`), or in a stats-struct field (`owned` null).
  struct Instrument {
    InstrumentKind kind;
    uint64_t* count = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
    std::shared_ptr<void> owned;
  };

  Instrument& Get(const std::string& name, InstrumentKind kind);
  Instrument& Add(const std::string& name, InstrumentKind kind);
  void Publish(const std::string& name, uint64_t* count);
  void Publish(const std::string& name, Histogram* histogram);
  const Instrument* Find(const std::string& name) const;

  std::map<std::string, Instrument> instruments_;
  std::map<std::pair<std::string, std::type_index>, std::shared_ptr<void>> structs_;
};

// Extract the "counters" section of a SnapshotJson() string. This is the
// inverse half of the snapshot round-trip that CI's regression gates rely
// on; it only understands the snapshot's own output, not arbitrary JSON.
std::map<std::string, uint64_t> ParseSnapshotCounters(const std::string& json);

// A registry handle plus a dot-joined name prefix, so a component can hand
// scoped sub-namespaces to its children: Scope(&reg, "node3").Sub("engine")
// names instruments "node3.engine.*". A scope made without a registry (a
// component built standalone, as in unit tests) owns a fresh one, which
// its Sub() scopes share; its stats structs still count, unseen.
class Scope {
 public:
  explicit Scope(Registry* registry, std::string prefix = "")
      : owned_(registry ? nullptr : std::make_shared<Registry>()),
        registry_(registry ? registry : owned_.get()),
        prefix_(std::move(prefix)) {}

  Scope Sub(const std::string& name) const {
    Scope sub = *this;
    sub.prefix_ = JoinName(prefix_, name);
    return sub;
  }

  Counter* GetCounter(const std::string& name) const {
    return registry_->GetCounter(JoinName(prefix_, name));
  }
  Gauge* GetGauge(const std::string& name) const {
    return registry_->GetGauge(JoinName(prefix_, name));
  }
  Histogram* GetHistogram(const std::string& name) const {
    return registry_->GetHistogram(JoinName(prefix_, name));
  }
  // This scope's S, published from `fields` (Registry::Resolve).
  template <typename S, size_t N>
  S* Resolve(const Field<S> (&fields)[N]) const {
    return registry_->Resolve<S>(prefix_, fields);
  }

  // Zero everything previously registered under this scope's prefix.
  void ResetInstruments() const { registry_->ResetPrefix(prefix_); }

  Registry& registry() const { return *registry_; }
  const std::string& prefix() const { return prefix_; }

 private:
  std::shared_ptr<Registry> owned_;
  Registry* registry_;
  std::string prefix_;
};

}  // namespace leed::obs
