#include "store/compaction.h"

#include <algorithm>
#include <span>

namespace leed::store {

namespace {
// Partition `ids` into at most `groups` round-robin slices (none empty).
template <typename T>
std::vector<std::vector<T>> Partition(const std::vector<T>& ids, uint32_t groups) {
  groups = std::max(1u, groups);
  size_t n = std::min<size_t>(groups, std::max<size_t>(1, ids.size()));
  std::vector<std::vector<T>> out(n);
  for (size_t i = 0; i < ids.size(); ++i) out[i % n].push_back(ids[i]);
  return out;
}
}  // namespace

// ---------------------------------------------------------------------------
// Triggers
// ---------------------------------------------------------------------------

void Compactor::MaybeStart() {
  const auto& home = s_.home();
  const double th = s_.config().compaction_threshold;
  bool swap_pressure = s_.swapped_segments() > 64;
  if (!key_.running && (home.key_log->CompactionNeeded(th) || swap_pressure)) {
    Start(Log::kKey, [](Status) {});
  }
  if (!value_.running && home.value_log->CompactionNeeded(th)) {
    Start(Log::kValue, [](Status) {});
  }
}

// ---------------------------------------------------------------------------
// Segment collapse (shared by both runs and swap merge-back).
// done(ok): ok==false means the segment could NOT be relocated (no space /
// IO error) and still has live data at its old location — the caller must
// not advance the log head over it.
// ---------------------------------------------------------------------------

void Compactor::CollapseSegment(uint32_t segment_id, bool relocate_values,
                                std::function<void(bool)> done) {
  SegmentTable& tbl = s_.segments();
  if (tbl.At(segment_id).Empty()) {
    done(true);
    return;
  }
  if (!tbl.TryLock(segment_id)) {
    tbl.WaitOnLock(segment_id, [this, segment_id, relocate_values,
                                d = std::move(done)]() mutable {
      CollapseSegment(segment_id, relocate_values, std::move(d));
    });
    return;
  }
  CollapseLocked(segment_id, relocate_values, std::move(done));
}

void Compactor::CollapseLocked(uint32_t segment_id, bool relocate_values,
                               std::function<void(bool)> done) {
  const SegmentEntry& e = s_.segments().At(segment_id);
  if (e.Empty()) {
    s_.UnlockAndPump(segment_id);
    done(true);
    return;
  }
  s_.ReadChain(segment_id, e.ssd, e.offset, e.chain_len,
               [this, segment_id, relocate_values, d = std::move(done)](
                   Status st, DataStore::Chain chain) mutable {
    if (!st.ok()) {
      s_.UnlockAndPump(segment_id);
      d(false);
      return;
    }
    const uint64_t total_items = chain.item_count();
    auto merged = std::make_shared<Merged>(std::move(chain));
    s_.stats_->items_dropped += total_items - merged->items.size();
    s_.core().Run(
        s_.Cycles(s_.config().costs.compaction_per_item *
                  std::max<uint64_t>(1, total_items)),
        [this, segment_id, relocate_values, merged, d = std::move(d)]() mutable {
          if (relocate_values) {
            RelocateValues(segment_id, merged, 0, [this, segment_id, merged,
                                                   d2 = std::move(d)]() mutable {
              WriteMergedSegment(segment_id, merged, std::move(d2));
            });
          } else {
            WriteMergedSegment(segment_id, merged, std::move(d));
          }
        });
  });
}

void Compactor::RelocateValues(uint32_t segment_id, std::shared_ptr<Merged> merged,
                               size_t index, std::function<void()> done) {
  const uint8_t home_ssd = s_.home().ssd_id;
  std::vector<KeyItemView>& items = merged->items;
  while (index < items.size() && items[index].value_ssd == home_ssd) ++index;
  if (index >= items.size()) {
    done();
    return;
  }
  const KeyItemView& item = items[index];
  if (!s_.HasLogSet(item.value_ssd)) {  // defensive: unknown donor
    RelocateValues(segment_id, merged, index + 1, std::move(done));
    return;
  }
  const LogSet& donor = s_.log_set(item.value_ssd);
  uint32_t bytes = ValueEntryBytes(static_cast<uint32_t>(item.key.size()),
                                   item.value_len);
  ++s_.stats_->ssd_reads;
  donor.value_log->Read(item.value_offset, bytes,
                        [this, segment_id, merged, index, home_ssd,
                         d = std::move(done)](log::ReadResult r) mutable {
    if (!r.status.ok()) {
      RelocateValues(segment_id, merged, index + 1, std::move(d));
      return;
    }
    auto entry = ParseValueEntry(r.data, 0);
    if (!entry.ok()) {
      RelocateValues(segment_id, merged, index + 1, std::move(d));
      return;
    }
    const LogSet& home = s_.home();
    // The entry's bytes move home verbatim: no decode, no re-encode.
    r.data.resize(entry.value().bytes.size());
    std::vector<uint8_t> encoded = std::move(r.data);
    if (encoded.size() > home.value_log->free_space()) {
      // No room to pull it home yet; leave it on the donor for a later run.
      RelocateValues(segment_id, merged, index + 1, std::move(d));
      return;
    }
    // Offset reservation and Append happen in the same event — no other
    // append can interleave in a single-threaded event loop.
    KeyItemView& it = merged->items[index];
    const RangeIndex::ValueLoc old_loc{it.value_ssd, it.value_offset,
                                       it.value_len};
    it.value_offset = home.value_log->tail();
    it.value_ssd = home_ssd;
    // Repoint the ordered view before the donor copy can be reclaimed, so
    // scan snapshots taken after this event see the home location.
    s_.RepairIndexLocation(it.key, old_loc,
                           {it.value_ssd, it.value_offset, it.value_len});
    merged->moved.push_back({index, old_loc});
    ++s_.stats_->ssd_writes;
    home.value_log->Append(std::move(encoded),
                           [this, segment_id, merged, index,
                            d2 = std::move(d)](log::AppendResult) mutable {
      RelocateValues(segment_id, merged, index + 1, std::move(d2));
    });
  });
}

void Compactor::WriteMergedSegment(uint32_t segment_id, std::shared_ptr<Merged> merged,
                                   std::function<void(bool)> done) {
  SegmentTable& tbl = s_.segments();
  const LogSet& home = s_.home();
  const uint32_t bucket_size = s_.config().bucket_size;
  const std::vector<KeyItemView>& items = merged->items;

  if (items.empty()) {
    SegmentEntry& e = tbl.At(segment_id);
    e.offset = 0;
    e.chain_len = 0;
    e.ssd = home.ssd_id;
    s_.swapped_segments_.erase(segment_id);
    ++s_.stats_->segments_collapsed;
    s_.UnlockAndPump(segment_id);
    done(true);
    return;
  }

  // Newest items land in the head bucket, preserving newest-first
  // traversal.
  const uint64_t base = home.key_log->tail();
  BucketHeader common;
  common.segment_id = segment_id;
  common.tag = BucketTag(segment_id);
  common.prev_ssd = home.ssd_id;
  common.log_head = static_cast<uint32_t>(home.key_log->head());
  common.log_tail = static_cast<uint32_t>(home.key_log->tail());
  common.owner_store = static_cast<uint8_t>(s_.config().store_id);
  std::vector<uint8_t> blob = EncodeContiguousChain(items, bucket_size, common, base);
  const uint8_t n = static_cast<uint8_t>(blob.size() / bucket_size);
  if (blob.size() > home.key_log->free_space()) {
    // Cannot relocate right now; the segment stays where it is and this
    // run must not advance the head over its old buckets.
    RestoreIndex(*merged);
    s_.UnlockAndPump(segment_id);
    done(false);
    return;
  }
  ++s_.stats_->ssd_writes;
  s_.stats_->items_live_moved += items.size();
  // The swapped mark may only clear once every value reference is home too
  // (RelocateValues can skip items when the home value log is tight).
  const bool all_values_home =
      std::all_of(items.begin(), items.end(),
                  [&home](const KeyItemView& it) { return it.value_ssd == home.ssd_id; });
  home.key_log->Append(std::move(blob), [this, segment_id, merged, base, n, all_values_home,
                                         d = std::move(done)](log::AppendResult r) mutable {
    bool ok = r.status.ok();
    if (ok) {
      SegmentEntry& e = s_.segments().At(segment_id);
      e.offset = base;
      e.chain_len = n;
      e.ssd = s_.home().ssd_id;
      if (all_values_home) s_.swapped_segments_.erase(segment_id);
      ++s_.stats_->segments_collapsed;
    } else {
      RestoreIndex(*merged);
    }
    s_.UnlockAndPump(segment_id);
    d(ok);
  });
}

void Compactor::RestoreIndex(const Merged& merged) {
  for (const Merged::Moved& m : merged.moved) {
    const KeyItemView& it = merged.items[m.item];
    s_.RepairIndexLocation(it.key, {it.value_ssd, it.value_offset, it.value_len},
                           m.from);
  }
}

// ---------------------------------------------------------------------------
// The run, one skeleton over both logs
// ---------------------------------------------------------------------------

struct Compactor::Run {
  Run(Log l, DataStore::OpCallback d) : log(l), done(std::move(d)) {}

  Log log;
  DataStore::OpCallback done;
  uint64_t region_start = 0;
  // Where the head moves once every unit relocated: the chunk's end for a
  // key run, the end of the last whole entry for a value run.
  uint64_t region_end = 0;
  // A value run's chunk as read from the log; its entries are views into
  // it, and live entries are copied out of it verbatim.
  std::vector<uint8_t> region;
  struct RegionEntry {
    uint64_t offset;  // logical value-log offset
    ValueEntryView entry;
  };
  // A value run's entries grouped by owning segment (ascending ids), in log
  // order within a segment; each value unit names one segment's range.
  std::vector<RegionEntry> entries;
  std::vector<std::vector<Unit>> groups;
  size_t groups_pending = 0;
  bool all_relocated = true;
};

void Compactor::EndRun(Run& run, Status status, bool advanced) {
  state(run.log).running = false;
  ReleaseSlot();
  run.done(std::move(status));
  // A run that advanced keeps draining while a log is above threshold. One
  // that did not leaves the restart to the next trigger (a PUT, or a run
  // that advances), so a failing device, a torn head entry or a home key
  // log too full for any collapsed segment cannot spin.
  if (advanced) MaybeStart();
  if (advanced || !running()) s_.ResumeParkedPuts(advanced);
}

Compactor::~Compactor() {
  if (const auto& gate = s_.config().compaction_gate) std::erase(gate->refused, this);
}

bool Compactor::AcquireSlot() {
  CompactionGate* gate = s_.config().compaction_gate.get();
  if (!gate) return true;
  if (gate->active < gate->max) {
    ++gate->active;
    return true;
  }
  if (std::ranges::find(gate->refused, this) == gate->refused.end()) {
    gate->refused.push_back(this);
  }
  return false;
}

void Compactor::ReleaseSlot() {
  CompactionGate* gate = s_.config().compaction_gate.get();
  if (!gate) return;
  if (gate->active > 0) --gate->active;
  // A refused store that no longer needs a run passes the slot on.
  while (gate->active < gate->max && !gate->refused.empty()) {
    Compactor* next = gate->refused.front();
    gate->refused.pop_front();
    next->MaybeStart();
  }
}

log::CircularLog& Compactor::log_of(Log log) const {
  return log == Log::kKey ? *s_.home().key_log : *s_.home().value_log;
}

uint64_t Compactor::ReadLength(Log log) const {
  const auto& cfg = s_.config();
  const uint64_t used = log_of(log).used();
  if (log == Log::kKey) {
    // Whole buckets only.
    const uint64_t chunk = std::min<uint64_t>(cfg.compaction_chunk, used);
    return chunk - chunk % cfg.bucket_size;
  }
  // The chunk plus slack, so the entry straddling the chunk boundary parses
  // completely.
  return std::min<uint64_t>(cfg.compaction_chunk + kValueReadSlack, used);
}

void Compactor::Start(Log log, DataStore::OpCallback done) {
  LogState& st = state(log);
  if (st.running) {
    done(Status::Busy(log == Log::kKey ? "key compaction already running"
                                       : "value compaction already running"));
    return;
  }
  log::CircularLog& clog = log_of(log);
  auto run = std::make_shared<Run>(log, std::move(done));
  run->region_start = clog.head();
  const uint64_t len = ReadLength(log);
  run->region_end = run->region_start + len;
  // An empty key region still merges swapped segments back.
  if (len == 0 && (log == Log::kValue || s_.swapped_segments() == 0)) {
    run->done(Status::Ok());
    return;
  }
  if (!AcquireSlot()) {
    // Co-scheduling cap reached; the next freed slot retries MaybeStart.
    run->done(Status::Busy("compaction gate full"));
    return;
  }
  st.running = true;
  ++(log == Log::kKey ? s_.stats_->key_compactions : s_.stats_->value_compactions);

  if (len == 0) {
    WithRegion(run, {});
    return;
  }
  if (st.prefetch.valid && st.prefetch.offset == run->region_start &&
      st.prefetch.data.size() >= len) {
    ++s_.stats_->prefetch_hits;
    auto data = std::move(st.prefetch.data);
    data.resize(len);
    st.prefetch = Prefetch{};
    // Verification pass over prefetched segments still costs cycles.
    s_.core().Run(s_.Cycles(s_.config().costs.compaction_setup),
                  [this, run, d = std::move(data)]() mutable {
                    WithRegion(run, std::move(d));
                  });
    return;
  }
  ++s_.stats_->prefetch_misses;
  ++s_.stats_->ssd_reads;
  clog.Read(run->region_start, len, [this, run](log::ReadResult r) {
    if (!r.status.ok()) {
      EndRun(*run, r.status, false);
      return;
    }
    WithRegion(run, std::move(r.data));
  });
}

void Compactor::WithRegion(std::shared_ptr<Run> run, std::vector<uint8_t> region) {
  std::vector<Unit> units = run->log == Log::kKey
                                ? KeyUnits(region)
                                : ValueUnits(*run, std::move(region));
  if (units.empty()) {
    // A value chunk without one whole entry has nothing to advance over; a
    // key chunk without a readable bucket is skipped.
    if (run->log == Log::kValue) {
      EndRun(*run, Status::Ok(), false);
      return;
    }
    run->groups_pending = 1;
    Join(run);
    return;
  }
  run->groups = Partition(units, s_.config().subcompactions);
  run->groups_pending = run->groups.size();
  for (size_t g = 0; g < run->groups.size(); ++g) {
    s_.core().Run(s_.Cycles(s_.config().costs.compaction_setup),
                  [this, run, g] { Group(run, g); });
  }
}

std::vector<Compactor::Unit> Compactor::KeyUnits(const std::vector<uint8_t>& region) {
  const uint32_t bucket_size = s_.config().bucket_size;
  // Segments in order of first appearance; `seen` dedupes them.
  std::vector<Unit> units;
  std::vector<bool> seen(s_.config().num_segments, false);
  auto first_sight = [&seen](uint32_t seg) {
    if (seg >= seen.size()) seen.resize(seg + 1, false);
    const bool first = !seen[seg];
    seen[seg] = true;
    return first;
  };
  for (size_t at = 0; at + bucket_size <= region.size(); at += bucket_size) {
    auto b = BucketView::Parse(region, at, bucket_size);
    if (!b.ok()) continue;
    uint32_t seg = b.value().header().segment_id;
    if (first_sight(seg)) units.push_back({seg});
  }
  // Swap merge-back: pull up to kSwapMergePerRun parked segments home too.
  size_t merged_in = 0;
  for (uint32_t seg : s_.swapped_segments_) {
    if (merged_in >= kSwapMergePerRun) break;
    if (first_sight(seg)) {
      units.push_back({seg});
      ++merged_in;
    }
  }
  return units;
}

std::vector<Compactor::Unit> Compactor::ValueUnits(Run& run,
                                                   std::vector<uint8_t> region) {
  const uint64_t chunk_end_target = run.region_start + s_.config().compaction_chunk;
  run.region = std::move(region);
  uint64_t pos = 0;
  uint64_t logical = run.region_start;
  while (pos + ValueEntry::kHeaderBytes <= run.region.size() &&
         logical < chunk_end_target) {
    auto entry = ParseValueEntry(run.region, pos);
    if (!entry.ok()) break;  // truncated tail entry: stop before it
    uint64_t sz = entry.value().bytes.size();
    run.entries.push_back(Run::RegionEntry{logical, entry.value()});
    pos += sz;
    logical += sz;
  }
  run.region_end = logical;
  std::stable_sort(run.entries.begin(), run.entries.end(),
                   [](const Run::RegionEntry& a, const Run::RegionEntry& b) {
                     return a.entry.segment_id < b.entry.segment_id;
                   });
  std::vector<Unit> units;
  for (size_t i = 0; i < run.entries.size();) {
    const uint32_t seg = run.entries[i].entry.segment_id;
    size_t j = i + 1;
    while (j < run.entries.size() && run.entries[j].entry.segment_id == seg) ++j;
    units.push_back({seg, i, j});
    i = j;
  }
  return units;
}

void Compactor::Group(std::shared_ptr<Run> run, size_t group) {
  auto& units = run->groups[group];
  if (units.empty()) {
    Join(run);
    return;
  }
  const Unit unit = units.back();
  units.pop_back();
  if (run->log == Log::kKey) {
    const bool relocate = s_.swapped_segments_.contains(unit.segment);
    CollapseSegment(unit.segment, relocate, [this, run, group](bool ok) {
      UnitEnd(run, group, ok);
    });
    return;
  }
  SegmentTable& tbl = s_.segments();
  if (tbl.TryLock(unit.segment)) {
    RelocateLiveValues(run, group, unit);
    return;
  }
  tbl.WaitOnLock(unit.segment, [this, run, group, unit] {
    if (s_.segments().TryLock(unit.segment)) {
      RelocateLiveValues(run, group, unit);
    } else {
      // Lost the wakeup race to another waiter; requeue this segment.
      run->groups[group].push_back(unit);
      Group(run, group);
    }
  });
}

void Compactor::UnitEnd(const std::shared_ptr<Run>& run, size_t group,
                        bool relocated) {
  if (!relocated) run->all_relocated = false;
  Group(run, group);
}

void Compactor::Join(std::shared_ptr<Run> run) {
  if (--run->groups_pending > 0) return;
  const bool advanced = run->region_end > run->region_start && run->all_relocated;
  if (advanced) {
    Status st = log_of(run->log).AdvanceHead(run->region_end);
    (void)st;
  }
  if (s_.config().prefetch) IssuePrefetch(run->log);
  EndRun(*run, Status::Ok(), advanced);
}

void Compactor::IssuePrefetch(Log log) {
  const uint64_t len = ReadLength(log);
  if (len == 0) return;
  log::CircularLog& clog = log_of(log);
  const uint64_t start = clog.head();
  ++s_.stats_->ssd_reads;
  clog.Read(start, len, [this, log, start](log::ReadResult r) {
    if (!r.status.ok()) return;
    Prefetch& p = state(log).prefetch;
    p.valid = true;
    p.offset = start;
    p.data = std::move(r.data);
  });
}

// ---------------------------------------------------------------------------
// Value unit
// ---------------------------------------------------------------------------

void Compactor::RelocateLiveValues(std::shared_ptr<Run> run, size_t group, Unit unit) {
  const uint32_t seg = unit.segment;
  const SegmentEntry& e = s_.segments().At(seg);
  if (e.Empty()) {
    // All this segment's region values are dead (segment was emptied).
    s_.UnlockAndPump(seg);
    Group(run, group);
    return;
  }
  s_.ReadChain(seg, e.ssd, e.offset, e.chain_len,
               [this, run, group, unit, seg](Status st, DataStore::Chain chain) {
    if (!st.ok()) {
      s_.UnlockAndPump(seg);
      UnitEnd(run, group, false);
      return;
    }
    auto merged = std::make_shared<Merged>(std::move(chain));
    std::vector<KeyItemView>& items = merged->items;
    const auto region_entries =
        std::span(run->entries).subspan(unit.begin, unit.end - unit.begin);
    const uint8_t home_ssd = s_.home().ssd_id;

    // Liveness: a region value survives iff a merged item still points at
    // it (same key, same offset, on the home SSD). Collect (item index,
    // encoded bytes, relative offset in the batch).
    struct Rewrite {
      size_t item_index;
      uint64_t relative;
    };
    auto batch = std::make_shared<std::vector<uint8_t>>();
    auto rewrites = std::make_shared<std::vector<Rewrite>>();
    for (const auto& re : region_entries) {
      for (size_t i = 0; i < items.size(); ++i) {
        const KeyItemView& item = items[i];
        if (item.key == re.entry.key && item.value_ssd == home_ssd &&
            item.value_offset == re.offset) {
          rewrites->push_back(Rewrite{i, batch->size()});
          batch->insert(batch->end(), re.entry.bytes.begin(), re.entry.bytes.end());
          break;
        }
      }
    }
    uint64_t cycles = s_.config().costs.compaction_per_item *
                      std::max<uint64_t>(1, region_entries.size() + items.size());
    s_.core().Run(s_.Cycles(cycles), [this, run, group, seg, merged, batch,
                                      rewrites]() mutable {
      const LogSet& home = s_.home();
      if (batch->empty()) {
        // Every region value of this segment is dead: nothing to move and
        // no need to touch the segment.
        s_.UnlockAndPump(seg);
        Group(run, group);
        return;
      }
      if (batch->size() > home.value_log->free_space()) {
        s_.UnlockAndPump(seg);
        UnitEnd(run, group, false);
        return;
      }
      // Reserve offsets and append in the same event (no interleaving).
      const uint64_t base = home.value_log->tail();
      for (const auto& rw : *rewrites) {
        KeyItemView& item = merged->items[rw.item_index];
        const RangeIndex::ValueLoc old_loc{item.value_ssd, item.value_offset,
                                           item.value_len};
        item.value_offset = base + rw.relative;
        // Keep the ordered view pointing at live bytes across the rewrite
        // (no-op if a newer PUT already owns the index entry).
        s_.RepairIndexLocation(item.key, old_loc,
                               {item.value_ssd, item.value_offset, item.value_len});
        merged->moved.push_back({rw.item_index, old_loc});
      }
      ++s_.stats_->ssd_writes;
      home.value_log->Append(std::move(*batch),
                             [this, run, group, seg, merged](log::AppendResult r) {
        if (!r.status.ok()) {
          RestoreIndex(*merged);
          s_.UnlockAndPump(seg);
          UnitEnd(run, group, false);
          return;
        }
        WriteMergedSegment(seg, merged, [this, run, group](bool ok) {
          UnitEnd(run, group, ok);
        });
      });
    });
  });
}

}  // namespace leed::store
