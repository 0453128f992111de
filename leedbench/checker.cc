#include "checker.h"

#include <algorithm>
#include <functional>

namespace leedbench {

namespace {

leed::workload::YcsbConfig ValueMakerConfig(uint32_t value_size) {
  leed::workload::YcsbConfig wc;
  wc.num_keys = 1;  // only MakeValue is used; keeps the Zipf table trivial
  wc.zipf_theta = 0;
  wc.value_size = value_size;
  return wc;
}

}  // namespace

ResultChecker::ResultChecker(uint64_t preloaded_keys, uint32_t value_size)
    : preloaded_keys_(preloaded_keys), value_maker_(ValueMakerConfig(value_size)) {}

uint64_t ResultChecker::HashValue(const std::vector<uint8_t>& value) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(value.data()), value.size()));
}

bool ResultChecker::ParseKey(std::string_view name, uint64_t* id) {
  constexpr std::string_view kPrefix = "user";
  if (name.size() != kPrefix.size() + 12 || name.substr(0, 4) != kPrefix) {
    return false;
  }
  uint64_t v = 0;
  for (char c : name.substr(4)) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

ResultChecker::KeyState& ResultChecker::State(uint64_t key) {
  auto [it, inserted] = keys_.try_emplace(key);
  if (inserted && key < preloaded_keys_) {
    // Preload: version 0, written and acked before the run began.
    it->second.writes.push_back(Write{-1, -1});
    it->second.acked_max_invoke = -1;
    origin_[HashValue(value_maker_.MakeValue(key, 0))] = Origin{key, 0};
  }
  return it->second;
}

uint32_t ResultChecker::BeginPut(uint64_t key, SimTime now) {
  KeyState& s = State(key);
  s.writes.push_back(Write{now, kNever});
  ++writes_;
  return static_cast<uint32_t>(s.writes.size() - 1);
}

void ResultChecker::RecordValue(uint64_t key, uint32_t version,
                                const std::vector<uint8_t>& value) {
  origin_[HashValue(value)] = Origin{key, version};
}

void ResultChecker::EndPut(uint64_t key, uint32_t version, bool ok, SimTime now) {
  if (!ok) return;
  KeyState& s = State(key);
  Write& w = s.writes[version];
  w.acked = now;
  s.acked_max_invoke = std::max(s.acked_max_invoke, w.invoked);
}

SimTime ResultChecker::ReadFloor(uint64_t key) { return State(key).acked_max_invoke; }

SimTime ResultChecker::FloorAt(const KeyState& state, SimTime invoked) const {
  SimTime floor = kNoAck;
  for (const Write& w : state.writes) {
    if (w.acked < invoked) floor = std::max(floor, w.invoked);
  }
  return floor;
}

bool ResultChecker::Admissible(const KeyState& state, uint32_t version,
                               SimTime floor) const {
  return version < state.writes.size() && state.writes[version].acked >= floor;
}

bool ResultChecker::CheckValue(uint64_t key, SimTime floor,
                               const std::vector<uint8_t>& value) {
  if (value.size() != value_maker_.config().value_size) return false;
  auto it = origin_.find(HashValue(value));
  if (it == origin_.end() || it->second.key != key) return false;
  return Admissible(State(key), it->second.version, floor);
}

bool ResultChecker::CheckGet(uint64_t key, SimTime floor, bool found,
                             const std::vector<uint8_t>& value) {
  State(key);  // registers the preload value before the lookup
  if (!found) return floor == kNoAck;
  return CheckValue(key, floor, value);
}

bool ResultChecker::CheckScan(uint64_t start_key, uint32_t limit, SimTime invoked,
                              const std::vector<leed::store::ScanItem>& items) {
  if (items.size() > limit) return false;
  const std::string start = leed::workload::YcsbGenerator::KeyName(start_key);
  const std::string* prev = nullptr;
  for (const auto& item : items) {
    if (item.key < start) return false;
    if (prev && !(*prev < item.key)) return false;
    prev = &item.key;
    uint64_t id = 0;
    if (!ParseKey(item.key, &id)) return false;
    KeyState& s = State(id);
    if (!CheckValue(id, FloorAt(s, invoked), item.value)) return false;
  }
  return true;
}

std::string ResultChecker::Explain(uint64_t key, const std::vector<uint8_t>& value) const {
  std::string out = "key " + std::to_string(key) + ": value ";
  auto it = origin_.find(HashValue(value));
  if (value.empty()) {
    out += "absent";
  } else if (it == origin_.end()) {
    out += "written by no PUT";
  } else {
    out += "of key " + std::to_string(it->second.key) + " version " +
           std::to_string(it->second.version);
  }
  auto k = keys_.find(key);
  if (k == keys_.end()) return out;
  const auto& w = k->second.writes;
  out += "; writes (version invoked..acked ns):";
  for (size_t v = w.size() > 6 ? w.size() - 6 : 0; v < w.size(); ++v) {
    out += " v" + std::to_string(v) + " " + std::to_string(w[v].invoked) + ".." +
           (w[v].acked == kNever ? std::string("never") : std::to_string(w[v].acked));
  }
  return out;
}

std::vector<uint64_t> ResultChecker::WrittenKeys() const {
  std::vector<uint64_t> out;
  for (const auto& [key, state] : keys_) {
    if (state.writes.size() > (key < preloaded_keys_ ? 1u : 0u)) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace leedbench
