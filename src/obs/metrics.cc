#include "obs/metrics.h"

#include <cstdio>
#include <stdexcept>

namespace leed::obs {

namespace {

const char* KindName(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

// JSON string escaping for metric names (names are dot-joined identifiers
// in practice, but a malformed snapshot must never be possible).
void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string FmtDouble(double v) {
  char buf[64];
  // %.17g round-trips doubles but prints noise; histogram values are
  // bucket midpoints, so 12 significant digits are already exact enough
  // to be stable across platforms.
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

Registry::Instrument& Registry::Add(const std::string& name,
                                    InstrumentKind kind) {
  auto [it, inserted] = instruments_.try_emplace(name);
  if (!inserted) {
    throw std::logic_error("obs: instrument '" + name + "' is a " +
                           KindName(it->second.kind) + ", published again as " +
                           KindName(kind));
  }
  it->second.kind = kind;
  return it->second;
}

Registry::Instrument& Registry::Get(const std::string& name,
                                    InstrumentKind kind) {
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    Instrument& inst = Add(name, kind);
    auto own = [&inst](auto made) {
      inst.owned = made;
      return made.get();
    };
    switch (kind) {
      case InstrumentKind::kCounter:
        inst.count = &own(std::make_shared<Counter>())->value_;
        break;
      case InstrumentKind::kGauge: inst.gauge = own(std::make_shared<Gauge>()); break;
      case InstrumentKind::kHistogram:
        inst.histogram = own(std::make_shared<Histogram>());
        break;
    }
    return inst;
  }
  if (it->second.kind != kind || !it->second.owned) {
    throw std::logic_error("obs: instrument '" + name + "' is a " +
                           (it->second.owned ? "" : "stats field ") +
                           KindName(it->second.kind) + ", requested as " +
                           KindName(kind));
  }
  return it->second;
}

void Registry::Publish(const std::string& name, uint64_t* count) {
  Add(name, InstrumentKind::kCounter).count = count;
}

void Registry::Publish(const std::string& name, Histogram* histogram) {
  Add(name, InstrumentKind::kHistogram).histogram = histogram;
}

const Registry::Instrument* Registry::Find(const std::string& name) const {
  auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : &it->second;
}

Counter* Registry::GetCounter(const std::string& name) {
  return static_cast<Counter*>(Get(name, InstrumentKind::kCounter).owned.get());
}

Gauge* Registry::GetGauge(const std::string& name) {
  return Get(name, InstrumentKind::kGauge).gauge;
}

Histogram* Registry::GetHistogram(const std::string& name) {
  return Get(name, InstrumentKind::kHistogram).histogram;
}

const Gauge* Registry::FindGauge(const std::string& name) const {
  const Instrument* inst = Find(name);
  return inst ? inst->gauge : nullptr;
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  const Instrument* inst = Find(name);
  return inst ? inst->histogram : nullptr;
}

uint64_t Registry::CounterValue(const std::string& name) const {
  const Instrument* inst = Find(name);
  return inst && inst->count ? *inst->count : 0;
}

double Registry::GaugeValue(const std::string& name) const {
  const Gauge* g = FindGauge(name);
  return g ? g->value() : 0.0;
}

void Registry::ResetAll() { ResetPrefix(""); }

void Registry::ResetPrefix(const std::string& prefix) {
  for (auto it = prefix.empty() ? instruments_.begin()
                                : instruments_.lower_bound(prefix);
       it != instruments_.end(); ++it) {
    if (!prefix.empty() && it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    // "node1" must not reset "node10.*": require an exact match or a '.'
    // at the hierarchy boundary.
    if (!prefix.empty() && it->first.size() > prefix.size() &&
        it->first[prefix.size()] != '.') {
      continue;
    }
    switch (it->second.kind) {
      case InstrumentKind::kCounter: *it->second.count = 0; break;
      case InstrumentKind::kGauge: it->second.gauge->Reset(); break;
      case InstrumentKind::kHistogram: it->second.histogram->Reset(); break;
    }
  }
}

std::string Registry::SnapshotJson() const {
  // std::map iteration is name-sorted, which makes the snapshot
  // byte-deterministic for a given registry state — the property the CI
  // diff gates (including the bit-exact replay gate) depend on.
  std::string counters, gauges, histograms;
  for (const auto& [name, inst] : instruments_) {
    switch (inst.kind) {
      case InstrumentKind::kCounter: {
        if (!counters.empty()) counters += ",";
        counters += "\n    ";
        AppendEscaped(counters, name);
        counters += ": " + std::to_string(*inst.count);
        break;
      }
      case InstrumentKind::kGauge: {
        if (!gauges.empty()) gauges += ",";
        gauges += "\n    ";
        AppendEscaped(gauges, name);
        gauges += ": " + FmtDouble(inst.gauge->value());
        break;
      }
      case InstrumentKind::kHistogram: {
        const Histogram& h = *inst.histogram;
        if (!histograms.empty()) histograms += ",";
        histograms += "\n    ";
        AppendEscaped(histograms, name);
        histograms += ": {\"count\": " + std::to_string(h.count()) +
                      ", \"mean\": " + FmtDouble(h.Mean()) +
                      ", \"min\": " + FmtDouble(h.min()) +
                      ", \"max\": " + FmtDouble(h.max()) +
                      ", \"p50\": " + FmtDouble(h.P50()) +
                      ", \"p99\": " + FmtDouble(h.P99()) +
                      ", \"p999\": " + FmtDouble(h.P999()) + "}";
        break;
      }
    }
  }
  std::string out = "{\n  \"counters\": {";
  out += counters;
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  out += gauges;
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  out += histograms;
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool Registry::WriteJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = SnapshotJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

std::map<std::string, uint64_t> ParseSnapshotCounters(const std::string& json) {
  std::map<std::string, uint64_t> out;
  const std::string header = "\"counters\": {";
  size_t pos = json.find(header);
  if (pos == std::string::npos) return out;
  pos += header.size();
  const size_t end = json.find('}', pos);
  while (pos < end) {
    size_t key_start = json.find('"', pos);
    if (key_start == std::string::npos || key_start >= end) break;
    size_t key_end = json.find('"', key_start + 1);
    if (key_end == std::string::npos || key_end >= end) break;
    const std::string key = json.substr(key_start + 1, key_end - key_start - 1);
    size_t colon = json.find(':', key_end);
    if (colon == std::string::npos || colon >= end) break;
    out[key] = std::strtoull(json.c_str() + colon + 1, nullptr, 10);
    pos = json.find(',', colon);
    if (pos == std::string::npos || pos >= end) break;
    ++pos;
  }
  return out;
}

}  // namespace leed::obs
