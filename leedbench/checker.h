// Result checker for the benchmark's own load driver.
//
// Every PUT the driver issues writes YcsbGenerator::MakeValue(key, v) with a
// per-key version counter; the preload is version 0. The checker records
// each write's simulated invoke and ack instants and identifies a returned
// value by a hash of its bytes, so a corrupted value (no write produced
// those bytes) and a stale one (a write acked before the read began
// overwrote it in real time) are both caught.
//
// Staleness rule: a read R that returns write v is stale iff some write w
// of the same key was acked before R was invoked and invoked after v was
// acked. Writes of one key may be concurrent (two clients hammer a hot
// key), so version numbers alone do not order them; the rule above only
// relies on real-time precedence.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "store/format.h"
#include "workload/ycsb.h"

namespace leedbench {

using leed::SimTime;

class ResultChecker {
 public:
  static constexpr SimTime kNever = INT64_MAX;   // write not (yet) acked
  static constexpr SimTime kNoAck = INT64_MIN;   // no write acked at all

  // Keys [0, preloaded_keys) hold version 0 before the run starts.
  ResultChecker(uint64_t preloaded_keys, uint32_t value_size);

  // A PUT of `key` is about to be issued at `now` with `value`. Returns its
  // version (the value must be MakeValue(key, version)).
  uint32_t BeginPut(uint64_t key, SimTime now);
  void RecordValue(uint64_t key, uint32_t version, const std::vector<uint8_t>& value);
  // The PUT completed; failed writes stay "never acked" (they may or may
  // not have been applied, so a later read may legitimately see them).
  void EndPut(uint64_t key, uint32_t version, bool ok, SimTime now);

  // The real-time floor a GET of `key` invoked now must respect.
  SimTime ReadFloor(uint64_t key);

  // A GET invoked with `floor` returned `value` (or not-found when
  // `found` is false). True when the result is consistent.
  bool CheckGet(uint64_t key, SimTime floor, bool found,
                const std::vector<uint8_t>& value);

  // A SCAN from `start_key` with `limit`, invoked at `invoked`, returned
  // `items`. Checks order, bounds, count, and every item's value.
  bool CheckScan(uint64_t start_key, uint32_t limit, SimTime invoked,
                 const std::vector<leed::store::ScanItem>& items);

  // Diagnostic for a flagged result: which write produced `value` and the
  // key's recent write history.
  std::string Explain(uint64_t key, const std::vector<uint8_t>& value) const;

  // Keys written during the run, ascending (the post-run read-back set).
  std::vector<uint64_t> WrittenKeys() const;

  uint64_t writes() const { return writes_; }

  // Key ids are parsed back from YcsbGenerator::KeyName; false on a name
  // the generator could not have produced.
  static bool ParseKey(std::string_view name, uint64_t* id);

  static uint64_t HashValue(const std::vector<uint8_t>& value);

 private:
  struct Write {
    SimTime invoked;
    SimTime acked;
  };
  struct KeyState {
    std::vector<Write> writes;       // index = version
    SimTime acked_max_invoke = kNoAck;
  };
  struct Origin {
    uint64_t key;
    uint32_t version;
  };

  KeyState& State(uint64_t key);
  // True when version v of key may be observed by a read whose floor is
  // `floor` (the max invoke instant of writes acked before it began).
  bool Admissible(const KeyState& state, uint32_t version, SimTime floor) const;
  bool CheckValue(uint64_t key, SimTime floor, const std::vector<uint8_t>& value);
  // Floor for a read of `key` invoked at `invoked`, from the write history.
  SimTime FloorAt(const KeyState& state, SimTime invoked) const;

  uint64_t preloaded_keys_;
  leed::workload::YcsbGenerator value_maker_;  // MakeValue only
  std::unordered_map<uint64_t, KeyState> keys_;
  std::unordered_map<uint64_t, Origin> origin_;  // value hash -> write
  uint64_t writes_ = 0;
};

}  // namespace leedbench
