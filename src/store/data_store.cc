#include "store/data_store.h"

#include <algorithm>
#include <cassert>

#include "store/compaction.h"

namespace leed::store {

namespace {
constexpr obs::Field<StoreStats> kStoreFields[] = {
    {"gets", &StoreStats::gets},
    {"puts", &StoreStats::puts},
    {"dels", &StoreStats::dels},
    {"get_not_found", &StoreStats::get_not_found},
    {"ssd_reads", &StoreStats::ssd_reads},
    {"ssd_writes", &StoreStats::ssd_writes},
    {"get_chain_extra_reads", &StoreStats::get_chain_extra_reads},
    {"get_retries", &StoreStats::get_retries},
    {"key_compactions", &StoreStats::key_compactions},
    {"value_compactions", &StoreStats::value_compactions},
    {"segments_collapsed", &StoreStats::segments_collapsed},
    {"items_live_moved", &StoreStats::items_live_moved},
    {"items_dropped", &StoreStats::items_dropped},
    {"swap_puts", &StoreStats::swap_puts},
    {"prefetch_hits", &StoreStats::prefetch_hits},
    {"prefetch_misses", &StoreStats::prefetch_misses},
    {"lock_waits", &StoreStats::lock_waits},
    {"puts_failed_full", &StoreStats::puts_failed_full},
    {"fast_gets", &StoreStats::fast_gets},
    {"fast_get_aborts", &StoreStats::fast_get_aborts},
    {"scans", &StoreStats::scans},
    {"scan_items", &StoreStats::scan_items},
    {"scan_stale_locs", &StoreStats::scan_stale_locs},
};
}  // namespace

DataStore::DataStore(sim::Simulator& simulator, sim::CpuCore& core, LogSet home,
                     StoreConfig config)
    : sim_(simulator),
      core_(core),
      config_(std::move(config)),
      home_(home),
      segtbl_(config_.num_segments, config_.chain_bits),
      scope_(config_.metrics_registry,
             config_.metrics_prefix.empty()
                 ? "store" + std::to_string(config_.store_id)
                 : config_.metrics_prefix),
      stats_(scope_.Resolve(kStoreFields)) {
  // A store re-created under a previously used name starts from zero.
  scope_.ResetInstruments();
  log_sets_[home.ssd_id] = home;
  compactor_ = std::make_unique<Compactor>(*this);
}

DataStore::~DataStore() = default;

void DataStore::AddLogSet(LogSet set) { log_sets_[set.ssd_id] = set; }

void DataStore::SetSwapTarget(std::optional<uint8_t> ssd_id) {
  if (ssd_id && !HasLogSet(*ssd_id)) return;  // unknown donor: ignore
  swap_target_ = ssd_id;
}

const LogSet& DataStore::TargetLogs() const {
  if (swap_target_) {
    const LogSet& swap = log_sets_.at(*swap_target_);
    // Fall back to home if the donor region cannot absorb a worst-case
    // bucket + value append.
    if (swap.key_log->free_space() > 4ull * config_.bucket_size &&
        swap.value_log->free_space() > 64ull * 1024) {
      return swap;
    }
  }
  return home_;
}

void DataStore::UnlockAndPump(uint32_t segment_id) {
  segtbl_.Unlock(segment_id, [this](std::function<void()> cont) {
    sim_.Schedule(0, std::move(cont));
  });
}

// ---------------------------------------------------------------------------
// GET
// ---------------------------------------------------------------------------

struct DataStore::GetOp {
  std::string key;
  GetCallback callback;
  uint32_t segment = 0;
  uint32_t attempts = 0;
  bool offloaded = false;  // host-bypass: skip per-step CPU charges
};

void DataStore::RunGetWork(const std::shared_ptr<GetOp>& op, uint64_t cycles,
                           std::function<void()> fn) {
  if (op->offloaded) {
    sim_.Schedule(0, std::move(fn));
  } else {
    core_.Run(Cycles(cycles), std::move(fn));
  }
}

void DataStore::Get(std::string key, GetCallback callback) {
  auto op = std::make_shared<GetOp>();
  op->key = std::move(key);
  op->callback = std::move(callback);
  ++stats_->gets;
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { GetLookup(op); });
}

bool DataStore::FastGetEligible(std::string_view key) const {
  // Eligible iff the SegTbl entry resolves the head bucket directly and the
  // chain has a single bucket: the offload engine never walks chains (a walk
  // would be unbounded work hidden from the CPU model).
  const SegmentEntry& e = segtbl_.At(SegmentOf(key));
  return !e.Empty() && e.chain_len == 1;
}

void DataStore::FastGet(std::string key, GetCallback callback) {
  auto op = std::make_shared<GetOp>();
  op->key = std::move(key);
  op->callback = std::move(callback);
  op->offloaded = true;
  op->segment = SegmentOf(op->key);
  ++stats_->gets;
  ++stats_->fast_gets;
  const SegmentEntry& e = segtbl_.At(op->segment);
  // Fixed offload-engine latency, then straight to the device read; no
  // op_dispatch charge and no core queueing.
  sim_.Schedule(kOffloadEngineNs,
                [this, op, ssd = e.ssd, off = e.offset] {
                  GetReadBucket(op, ssd, off, 1);
                });
}

void DataStore::GetLookup(std::shared_ptr<GetOp> op) {
  op->segment = SegmentOf(op->key);
  const SegmentEntry& e = segtbl_.At(op->segment);
  if (e.Empty()) {
    GetFinish(op, Status::NotFound(), {});
    return;
  }
  GetReadBucket(op, e.ssd, e.offset, e.chain_len);
}

void DataStore::GetReadBucket(std::shared_ptr<GetOp> op, uint8_t ssd,
                              uint64_t offset, uint8_t remaining_chain) {
  const LogSet& logs = log_sets_.at(ssd);
  ++stats_->ssd_reads;
  logs.key_log->Read(offset, config_.bucket_size, [this, op, remaining_chain](
                                                      log::ReadResult r) {
    if (!r.status.ok()) {
      // Compaction may have reclaimed this region between our SegTbl probe
      // and the device read; the re-lookup sees the relocated chain.
      GetRetry(op);
      return;
    }
    auto view = BucketView::Parse(r.data, 0, config_.bucket_size);
    if (!view.ok()) {
      GetFinish(op, view.status(), {});
      return;
    }
    // The search runs on the bytes as they arrive; the modelled parse
    // cycles are still charged before its result is acted on.
    GetSearch(op, view.value().header(), view.value().Find(op->key), remaining_chain);
  });
}

void DataStore::GetSearch(std::shared_ptr<GetOp> op, const BucketHeader& header,
                          std::optional<KeyItem> hit, uint8_t remaining_chain) {
  uint64_t scan_cycles =
      config_.costs.bucket_parse_per_item * std::max<uint64_t>(1, header.item_count);
  RunGetWork(op, scan_cycles, [this, op, h = header, hit = std::move(hit),
                               remaining_chain] {
    if (h.segment_id != op->segment) {
      // Stale read of a reclaimed-and-rewritten region.
      GetRetry(op);
      return;
    }
    if (hit) {
      GetFound(op, *hit);
      return;
    }
    if (remaining_chain <= 1) {
      GetFinish(op, Status::NotFound(), {});
      return;
    }
    ++stats_->get_chain_extra_reads;
    if (h.contiguous) {
      GetReadRest(op, h.prev_ssd, h.prev_offset,
                  static_cast<uint8_t>(remaining_chain - 1));
    } else {
      GetReadBucket(op, h.prev_ssd, h.prev_offset,
                    static_cast<uint8_t>(remaining_chain - 1));
    }
  });
}

void DataStore::GetReadRest(std::shared_ptr<GetOp> op, uint8_t ssd,
                            uint64_t offset, uint8_t count) {
  const LogSet& logs = log_sets_.at(ssd);
  ++stats_->ssd_reads;
  uint64_t bytes = static_cast<uint64_t>(count) * config_.bucket_size;
  logs.key_log->Read(offset, bytes, [this, op, count](log::ReadResult r) {
    if (!r.status.ok()) {
      GetRetry(op);
      return;
    }
    // Verify every bucket of the contiguous remainder, then search
    // newest-first: the first foreign bucket or key match decides.
    bool stale = false;
    std::optional<KeyItem> hit;
    uint64_t items = 0;
    for (uint8_t i = 0; i < count; ++i) {
      auto view = BucketView::Parse(r.data, static_cast<size_t>(i) * config_.bucket_size,
                                    config_.bucket_size);
      if (!view.ok()) {
        GetFinish(op, view.status(), {});
        return;
      }
      const BucketView& b = view.value();
      items += b.header().item_count;
      if (stale || hit) continue;
      if (b.header().segment_id != op->segment) {
        stale = true;
      } else {
        hit = b.Find(op->key);
      }
    }
    RunGetWork(op, config_.costs.bucket_parse_per_item * std::max<uint64_t>(1, items),
               [this, op, stale, hit = std::move(hit)] {
                 if (stale) {
                   GetRetry(op);
                 } else if (hit) {
                   GetFound(op, *hit);
                 } else {
                   GetFinish(op, Status::NotFound(), {});
                 }
               });
  });
}

void DataStore::GetFound(std::shared_ptr<GetOp> op, const KeyItem& item) {
  if (item.IsTombstone()) {
    GetFinish(op, Status::NotFound(), {});
    return;
  }
  auto it = log_sets_.find(item.value_ssd);
  if (it == log_sets_.end()) {
    GetFinish(op, Status::Corruption("item names unknown SSD"), {});
    return;
  }
  uint32_t entry_bytes =
      ValueEntryBytes(static_cast<uint32_t>(op->key.size()), item.value_len);
  ++stats_->ssd_reads;
  it->second.value_log->Read(item.value_offset, entry_bytes,
                             [this, op](log::ReadResult r) {
    if (!r.status.ok()) {
      GetRetry(op);
      return;
    }
    auto entry = ParseValueEntry(r.data, 0);
    if (!entry.ok()) {
      GetFinish(op, entry.status(), {});
      return;
    }
    if (entry.value().key != op->key) {
      // The offset was recycled under us (value-log compaction commit race).
      GetRetry(op);
      return;
    }
    const auto value = entry.value().value;
    GetFinish(op, Status::Ok(), std::vector<uint8_t>(value.begin(), value.end()));
  });
}

void DataStore::GetRetry(std::shared_ptr<GetOp> op) {
  if (++op->attempts > kMaxGetRetries) {
    GetFinish(op, Status::Internal("GET retry budget exhausted"), {});
    return;
  }
  ++stats_->get_retries;
  if (op->offloaded) {
    // A compaction moved the chain under the offload engine; the retry needs
    // a fresh index consultation, which only the CPU path can do. Demote.
    op->offloaded = false;
    ++stats_->fast_get_aborts;
  }
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { GetLookup(op); });
}

void DataStore::GetFinish(std::shared_ptr<GetOp> op, Status status,
                          std::vector<uint8_t> value) {
  if (status.IsNotFound()) ++stats_->get_not_found;
  RunGetWork(op, config_.costs.op_complete,
             [op, st = std::move(status), v = std::move(value)]() mutable {
               op->callback(std::move(st), std::move(v));
             });
}

// ---------------------------------------------------------------------------
// PUT / DEL
// ---------------------------------------------------------------------------

struct DataStore::PutOp {
  std::string key;
  SharedBytes value;
  bool is_del = false;
  OpCallback callback;
  uint32_t segment = 0;
  // Join state across the parallel key-log/value-log appends (§3.3).
  int pending_appends = 0;
  Status append_status;
  uint64_t new_offset = 0;
  uint8_t new_chain = 0;
  uint8_t target_ssd = 0;
  // Final value location, for the range-index upsert at commit.
  uint64_t value_offset = 0;
  uint32_t value_len = 0;
  // The current chain head as read under the lock, viewed in place.
  std::vector<uint8_t> head_bytes;
  std::optional<BucketView> head;
  // False once a compaction run that moved no head resumed the op.
  bool may_park = true;

  // What the op appends to the value log (nothing for a DEL).
  uint64_t value_bytes() const {
    return is_del ? 0
                  : ValueEntryBytes(static_cast<uint32_t>(key.size()),
                                    static_cast<uint32_t>(value.size()));
  }
};

void DataStore::Put(std::string key, SharedBytes value, OpCallback callback) {
  auto op = std::make_shared<PutOp>();
  op->key = std::move(key);
  op->value = std::move(value);
  op->callback = std::move(callback);
  ++stats_->puts;
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { PutAcquire(op); });
}

void DataStore::Del(std::string key, OpCallback callback) {
  auto op = std::make_shared<PutOp>();
  op->key = std::move(key);
  op->is_del = true;
  op->callback = std::move(callback);
  ++stats_->dels;
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { PutAcquire(op); });
}

void DataStore::PutAcquire(std::shared_ptr<PutOp> op) {
  op->segment = SegmentOf(op->key);
  if (!segtbl_.TryLock(op->segment)) {
    ++stats_->lock_waits;
    segtbl_.WaitOnLock(op->segment, [this, op] { PutAcquire(op); });
    return;
  }
  if (ParkForCompaction(op)) return;
  PutReadHead(op);
}

// A write that would take the room compaction relocates live data into
// waits for a compaction run instead; otherwise new writes take every byte
// compaction frees and the logs wedge full. The check comes before the
// head read, so a parked op hands its segment lock on at once. When no
// compaction can run the op goes on, and PutApply fails it only if its
// append does not fit.
bool DataStore::ParkForCompaction(const std::shared_ptr<PutOp>& op) {
  if (!op->may_park || TargetLogs().ssd_id != home_.ssd_id) return false;
  const uint64_t room = config_.compaction_chunk + Compactor::kValueReadSlack;
  const uint64_t value_bytes = op->value_bytes();
  if ((value_bytes == 0 ||
       home_.value_log->free_space() >= value_bytes + room) &&
      home_.key_log->free_space() >= config_.bucket_size + room) {
    return false;
  }
  MaybeCompact();
  if (!compaction_running()) return false;
  parked_puts_.push_back(op);
  UnlockAndPump(op->segment);
  return true;
}

void DataStore::PutReadHead(std::shared_ptr<PutOp> op) {
  const SegmentEntry& e = segtbl_.At(op->segment);
  if (e.Empty()) {
    if (op->is_del) {
      // Deleting from an empty segment: nothing on flash to mark (and
      // nothing in the ordered view — an empty segment owns no index keys;
      // the erase is defensive).
      range_index_.Erase(op->key);
      PutFinish(op, Status::Ok());
      return;
    }
    PutApply(op);
    return;
  }
  const LogSet& logs = log_sets_.at(e.ssd);
  ++stats_->ssd_reads;
  logs.key_log->Read(e.offset, config_.bucket_size, [this, op](log::ReadResult r) {
    if (!r.status.ok()) {
      PutFinish(op, Status::Corruption("head bucket read failed under lock"));
      return;
    }
    op->head_bytes = std::move(r.data);
    auto head = BucketView::Parse(op->head_bytes, 0, config_.bucket_size);
    if (!head.ok()) {
      PutFinish(op, head.status());
      return;
    }
    op->head = head.value();
    PutApply(op);
  });
}

void DataStore::PutApply(std::shared_ptr<PutOp> op) {
  uint64_t cycles = config_.costs.bucket_build;
  if (op->head) {
    cycles += config_.costs.bucket_parse_per_item *
              std::max<uint64_t>(1, op->head->item_count());
  }
  if (!op->is_del) {
    cycles += config_.costs.value_build_per_kib * (op->value.size() / 1024 + 1);
  }
  core_.Run(Cycles(cycles), [this, op] {
    const SegmentEntry& e = segtbl_.At(op->segment);
    const LogSet& target = TargetLogs();
    op->target_ssd = target.ssd_id;

    KeyItemView item;
    item.key = op->key;
    if (!op->is_del) {
      item.value_len = static_cast<uint32_t>(op->value.size());
      item.value_ssd = target.ssd_id;
    }

    // --- Validate everything BEFORE issuing any append, so that a failure
    // never leaves one half of the parallel write pair in flight. ---
    // The head is rewritten in place (Bucket::CanUpsert) when the key
    // already lives in it or the new item still fits; otherwise a new head
    // bucket extends the chain.
    const std::optional<BucketView>& h = op->head;
    const bool in_place = h && h->CanUpsert(item, config_.bucket_size);
    const uint32_t new_len = in_place ? e.chain_len : (h ? e.chain_len : 0) + 1u;
    if (new_len > segtbl_.max_chain()) {
      ++stats_->puts_failed_full;
      PutFinish(op, Status::OutOfSpace("segment chain at max; compaction lagging"));
      MaybeCompact();
      return;
    }
    const uint64_t value_bytes = op->value_bytes();
    if (value_bytes > target.value_log->free_space()) {
      ++stats_->puts_failed_full;
      PutFinish(op, Status::OutOfSpace("value log full"));
      MaybeCompact();
      return;
    }
    if (config_.bucket_size > target.key_log->free_space()) {
      ++stats_->puts_failed_full;
      PutFinish(op, Status::OutOfSpace("key log full"));
      MaybeCompact();
      return;
    }

    if (target.ssd_id != home_.ssd_id) ++stats_->swap_puts;

    // --- Commit point: issue the value append (reserving its offset
    // synchronously — CircularLog bumps the tail at Append time, which is
    // what lets the bucket carry the final value offset while both writes
    // proceed in parallel, §3.3). ---
    if (!op->is_del) {
      item.value_offset = target.value_log->tail();
      op->value_offset = item.value_offset;
      op->value_len = item.value_len;
      op->pending_appends++;
      ++stats_->ssd_writes;
      target.value_log->Append(
          EncodeValueEntryHead(op->segment, op->key, item.value_len), op->value,
          [this, op](log::AppendResult r) {
            if (!r.status.ok()) op->append_status = r.status;
            if (--op->pending_appends == 0) PutCommit(op);
          });
    }

    // --- Encode the new chain head straight into the append buffer. ---
    BucketHeader header;
    if (in_place) {
      // Re-appended head keeps its chain metadata (incl. contiguity of the
      // remainder, which still lives at prev_offset).
      header = h->header();
    } else {
      header.tag = BucketTag(HashKey(op->key, 0x5e91e57 + config_.store_id));
      header.chain_len = static_cast<uint8_t>(new_len);
      if (h) {
        header.prev_offset = e.offset;
        header.prev_ssd = e.ssd;
      }
    }
    op->new_chain = static_cast<uint8_t>(new_len);
    header.segment_id = op->segment;
    header.log_head = static_cast<uint32_t>(target.key_log->head());
    header.log_tail = static_cast<uint32_t>(target.key_log->tail());
    header.owner_store = static_cast<uint8_t>(config_.store_id);
    std::vector<uint8_t> encoded(config_.bucket_size);
    size_t used = 0;
    if (in_place) {
      used = h->EncodeUpsert(item, header, encoded);
    } else {
      BucketEncoder enc(encoded);
      bool ok = enc.Add(item);
      (void)ok;
      assert(ok && "a single item must fit an empty bucket");
      used = enc.Finish(header);
    }
    // The bucket's zero padding (its CRC covers it) is not sent: the
    // device keeps it implicitly, and keeps the bytes used in the buffer
    // they are sent in, so that buffer is exactly their size.
    std::vector<uint8_t> bytes_used(encoded.begin(),
                                    encoded.begin() + static_cast<long>(used));

    op->new_offset = target.key_log->tail();
    op->pending_appends++;
    ++stats_->ssd_writes;
    target.key_log->Append(
        std::move(bytes_used), config_.bucket_size, [this, op](log::AppendResult r) {
          if (!r.status.ok()) op->append_status = r.status;
          if (--op->pending_appends == 0) PutCommit(op);
        });
  });
}

void DataStore::PutCommit(std::shared_ptr<PutOp> op) {
  if (!op->append_status.ok()) {
    PutFinish(op, op->append_status);
    return;
  }
  core_.Run(Cycles(config_.costs.op_complete), [this, op] {
    SegmentEntry& e = segtbl_.At(op->segment);
    e.offset = op->new_offset;
    e.chain_len = op->new_chain;
    e.ssd = op->target_ssd;
    // A segment counts as "swapped" until *all* of its data (chain head and
    // every referenced value) is back on the home SSD; only the compactor's
    // merge-back clears the mark, so swap-region reclaim stays safe even if
    // later PUTs land home while old values still sit on the donor.
    if (op->target_ssd != home_.ssd_id) {
      swapped_segments_.insert(op->segment);
    }
    // Maintain the ordered view at the same commit point that publishes the
    // SegTbl entry, so a scan snapshot taken in any later event sees
    // exactly the committed state.
    if (op->is_del) {
      range_index_.Erase(op->key);
    } else {
      range_index_.Upsert(op->key,
                          {op->target_ssd, op->value_offset, op->value_len});
    }
    PutFinish(op, Status::Ok());
    MaybeCompact();
  });
}

void DataStore::ResumeParkedPuts(bool may_park) {
  std::deque<std::shared_ptr<PutOp>> parked;
  parked.swap(parked_puts_);
  for (auto& op : parked) {
    op->may_park = may_park;
    PutAcquire(std::move(op));
  }
}

void DataStore::PutFinish(std::shared_ptr<PutOp> op, Status status) {
  UnlockAndPump(op->segment);
  op->callback(std::move(status));
}

// ---------------------------------------------------------------------------
// Live-segment walk (COPY, range-index rebuild).
// ---------------------------------------------------------------------------

struct DataStore::SegmentWalk {
  OpCallback done;
  SegmentVisitor visit;
  uint32_t segment = 0;
  Chain chain;  // backs the keys of `live`
  std::vector<KeyItemView> live;
};

void DataStore::WalkLiveSegments(OpCallback done, SegmentVisitor visit) {
  auto walk = std::make_shared<SegmentWalk>();
  walk->done = std::move(done);
  walk->visit = std::move(visit);
  WalkStep(std::move(walk));
}

void DataStore::WalkStep(std::shared_ptr<SegmentWalk> walk) {
  while (walk->segment < config_.num_segments && segtbl_.At(walk->segment).Empty()) {
    ++walk->segment;
  }
  if (walk->segment >= config_.num_segments) {
    walk->done(Status::Ok());
    return;
  }
  const uint32_t seg = walk->segment;
  if (!segtbl_.TryLock(seg)) {
    segtbl_.WaitOnLock(seg, [this, walk] { WalkStep(walk); });
    return;
  }
  const SegmentEntry& e = segtbl_.At(seg);
  ReadChain(seg, e.ssd, e.offset, e.chain_len,
            [this, walk, seg](Status st, Chain chain) {
    if (!st.ok()) {
      UnlockAndPump(seg);
      walk->done(st);
      return;
    }
    // Newest-wins merge across the chain; tombstones shadow and are
    // dropped — the same merge compaction uses.
    walk->chain = std::move(chain);
    walk->live = MergeNewestWins(walk->chain.buckets);
    walk->visit(walk);
  });
}

void DataStore::WalkNext(std::shared_ptr<SegmentWalk> walk) {
  UnlockAndPump(walk->segment);
  ++walk->segment;
  // Yield to the event loop between segments so a walk does not
  // monopolize.
  sim_.Schedule(0, [this, walk] { WalkStep(walk); });
}

// ---------------------------------------------------------------------------
// COPY (§3.8): stream live items out, one segment at a time, under the lock.
// ---------------------------------------------------------------------------

struct DataStore::CopyOp {
  std::function<bool(std::string_view)> want;
  ItemSink sink;
};

void DataStore::CopyOut(std::function<bool(std::string_view)> want, ItemSink sink,
                        OpCallback done) {
  auto copy = std::make_shared<CopyOp>(CopyOp{std::move(want), std::move(sink)});
  WalkLiveSegments(std::move(done), [this, copy](std::shared_ptr<SegmentWalk> walk) {
    std::erase_if(walk->live,
                  [&copy](const KeyItemView& it) { return !copy->want(it.key); });
    CopyEmitValues(std::move(walk), copy, 0);
  });
}

void DataStore::CopyEmitValues(std::shared_ptr<SegmentWalk> walk,
                               std::shared_ptr<CopyOp> copy, size_t index) {
  if (index >= walk->live.size()) {
    WalkNext(std::move(walk));
    return;
  }
  const KeyItemView& item = walk->live[index];
  const LogSet& logs = log_sets_.at(item.value_ssd);
  uint32_t bytes = ValueEntryBytes(static_cast<uint32_t>(item.key.size()),
                                   item.value_len);
  ++stats_->ssd_reads;
  logs.value_log->Read(item.value_offset, bytes,
                       [this, walk, copy, index](log::ReadResult r) {
    if (r.status.ok()) {
      auto entry = ParseValueEntry(r.data, 0);
      if (entry.ok()) {
        const ValueEntryView& v = entry.value();
        copy->sink(std::string(v.key), std::vector<uint8_t>(v.value.begin(), v.value.end()));
      }
    }
    CopyEmitValues(walk, copy, index + 1);
  });
}

// ---------------------------------------------------------------------------
// SCAN (ordered view; DESIGN.md §11): snapshot the range index, then fetch
// value-log entries in bounded steps.
// ---------------------------------------------------------------------------

std::vector<ScanLoc> DataStore::ScanKeys(std::string_view start,
                                         uint32_t limit) const {
  std::vector<ScanLoc> out;
  if (limit == 0) return out;
  out.reserve(limit);
  range_index_.VisitFrom(
      start, [&out, limit](std::string_view key, const RangeIndex::ValueLoc& loc) {
        out.push_back({std::string(key), loc.ssd, loc.offset, loc.value_len});
        return out.size() < limit;
      });
  return out;
}

struct DataStore::ScanOp {
  std::vector<ScanLoc> snapshot;
  ScanCallback callback;
  std::vector<ScanItem> items;
  size_t index = 0;     // next snapshot entry to fetch
  uint32_t in_step = 0; // entries fetched since the last yield
};

void DataStore::ScanFetch(std::vector<ScanLoc> snapshot, ScanCallback callback) {
  auto op = std::make_shared<ScanOp>();
  op->snapshot = std::move(snapshot);
  op->callback = std::move(callback);
  ++stats_->scans;
  op->items.reserve(op->snapshot.size());
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { ScanFetchStep(op); });
}

void DataStore::ScanFetchStep(std::shared_ptr<ScanOp> op) {
  if (op->index >= op->snapshot.size()) {
    ScanFinish(op, Status::Ok());
    return;
  }
  if (op->in_step >= kScanStepItems) {
    // Yield so queued point ops interleave with a long scan.
    op->in_step = 0;
    sim_.Schedule(0, [this, op] { ScanFetchStep(op); });
    return;
  }
  const ScanLoc& loc = op->snapshot[op->index];
  auto it = log_sets_.find(loc.value_ssd);
  if (it == log_sets_.end()) {
    // A donor log set this store no longer references: the location is from
    // a reclaimed swap epoch. Treat like any stale location.
    ++stats_->scan_stale_locs;
    ScanFinish(op, Status::Busy("scan snapshot names unknown SSD"));
    return;
  }
  log::CircularLog* vlog = it->second.value_log;
  // The run: this entry and the ones after it that start exactly where the
  // previous one ends in the same log, up to the step's remaining budget.
  // One read fetches all of them.
  auto entry_bytes = [](const ScanLoc& l) {
    return ValueEntryBytes(static_cast<uint32_t>(l.key.size()), l.value_len);
  };
  uint64_t run_end = loc.value_offset + entry_bytes(loc);
  uint32_t count = 1;
  while (op->in_step + count < kScanStepItems &&
         op->index + count < op->snapshot.size()) {
    const ScanLoc& next = op->snapshot[op->index + count];
    if (next.value_ssd != loc.value_ssd || next.value_offset != run_end) break;
    run_end += entry_bytes(next);
    ++count;
  }
  op->in_step += count;
  if (loc.value_offset < vlog->head() || run_end > vlog->tail()) {
    // Compaction reclaimed (or is about to rewrite) this location since the
    // snapshot; the caller must re-snapshot.
    ++stats_->scan_stale_locs;
    ScanFinish(op, Status::Busy("scan location reclaimed under snapshot"));
    return;
  }
  ++stats_->ssd_reads;
  vlog->Read(loc.value_offset, run_end - loc.value_offset,
             [this, op, count, entry_bytes](log::ReadResult r) {
    if (!r.status.ok()) {
      ++stats_->scan_stale_locs;
      ScanFinish(op, Status::Busy("scan read rejected by log"));
      return;
    }
    const std::span<const uint8_t> run(r.data);
    size_t at = 0;
    for (uint32_t i = 0; i < count; ++i) {
      const ScanLoc& cur = op->snapshot[op->index + i];
      const uint32_t n = entry_bytes(cur);
      auto entry = ParseValueEntry(run.subspan(at, n), 0);
      if (!entry.ok() || entry.value().key != cur.key) {
        // Offset recycled between validation and completion.
        ++stats_->scan_stale_locs;
        ScanFinish(op, Status::Busy("scan location recycled under read"));
        return;
      }
      const auto value = entry.value().value;
      op->items.push_back({cur.key, std::vector<uint8_t>(value.begin(), value.end())});
      at += n;
    }
    op->index += count;
    const uint64_t parse = config_.costs.bucket_parse_per_item * count;
    core_.Run(Cycles(parse), [this, op] { ScanFetchStep(op); });
  });
}

void DataStore::ScanFinish(std::shared_ptr<ScanOp> op, Status status) {
  core_.Run(Cycles(config_.costs.op_complete),
            [this, op, st = std::move(status)]() mutable {
              if (st.ok()) stats_->scan_items += op->items.size();
              op->callback(std::move(st), std::move(op->items));
            });
}

// ---------------------------------------------------------------------------
// Range-index rebuild (recovery's bucket scan; torture-test oracle).
// ---------------------------------------------------------------------------

void DataStore::RebuildRangeIndex(RangeIndex* out,
                                  std::function<void(Status, uint64_t)> done) {
  if (out == nullptr) out = &range_index_;
  out->Clear();
  auto live_items = std::make_shared<uint64_t>(0);
  WalkLiveSegments(
      [live_items, done = std::move(done)](Status st) { done(std::move(st), *live_items); },
      [this, out, live_items](std::shared_ptr<SegmentWalk> walk) {
        for (const KeyItemView& it : walk->live) {
          out->Upsert(it.key, {it.value_ssd, it.value_offset, it.value_len});
          ++*live_items;
        }
        WalkNext(std::move(walk));
      });
}

void DataStore::RepairIndexLocation(std::string_view key,
                                    const RangeIndex::ValueLoc& from,
                                    const RangeIndex::ValueLoc& to) {
  range_index_.Repair(key, from, to);
}

// ---------------------------------------------------------------------------
// Chain reader shared with the compactor.
// ---------------------------------------------------------------------------

void DataStore::ReadChain(uint32_t segment_id, uint8_t ssd, uint64_t offset,
                          uint8_t chain_len, std::function<void(Status, Chain)> cb) {
  if (chain_len == 0) {
    cb(Status::Ok(), {});
    return;
  }
  auto acc = std::make_shared<Chain>();
  acc->buffers.reserve(chain_len);
  acc->buckets.reserve(chain_len);
  // Verifies the `count` buckets of the newest buffer and appends their
  // views; a bad or foreign bucket fails the whole read.
  auto take = [this, segment_id, acc](uint8_t count, const char* foreign) -> Status {
    const std::vector<uint8_t>& bytes = acc->buffers.back();
    for (uint8_t i = 0; i < count; ++i) {
      auto b = BucketView::Parse(bytes, static_cast<size_t>(i) * config_.bucket_size,
                                 config_.bucket_size);
      if (!b.ok()) return b.status();
      if (b.value().header().segment_id != segment_id) return Status::Corruption(foreign);
      acc->buckets.push_back(b.value());
    }
    return Status::Ok();
  };
  auto step = std::make_shared<std::function<void(uint8_t, uint64_t, uint8_t)>>();
  // The closure holds itself only weakly; pending IO callbacks hold the
  // strong reference, so the last completion releases the whole chain
  // (capturing `step` strongly here would leak it as a reference cycle).
  *step = [this, acc, take, wstep = std::weak_ptr<
               std::function<void(uint8_t, uint64_t, uint8_t)>>(step),
           cb](uint8_t cur_ssd, uint64_t cur_off, uint8_t remaining) {
    auto self = wstep.lock();
    if (!self) return;
    const LogSet& logs = log_sets_.at(cur_ssd);
    ++stats_->ssd_reads;
    logs.key_log->Read(cur_off, config_.bucket_size,
                       [this, acc, take, step = self, cb,
                        remaining](log::ReadResult r) {
      if (!r.status.ok()) {
        cb(r.status, {});
        return;
      }
      acc->buffers.push_back(std::move(r.data));
      if (Status st = take(1, "chain walk hit foreign bucket"); !st.ok()) {
        cb(st, {});
        return;
      }
      const BucketHeader& hdr = acc->buckets.back().header();
      if (remaining <= 1) {
        cb(Status::Ok(), std::move(*acc));
        return;
      }
      if (hdr.contiguous) {
        // One IO for the whole remainder.
        const LogSet& rest_logs = log_sets_.at(hdr.prev_ssd);
        uint64_t bytes = static_cast<uint64_t>(remaining - 1) * config_.bucket_size;
        ++stats_->ssd_reads;
        rest_logs.key_log->Read(hdr.prev_offset, bytes,
                                [acc, take, cb, remaining](log::ReadResult rr) {
          if (!rr.status.ok()) {
            cb(rr.status, {});
            return;
          }
          acc->buffers.push_back(std::move(rr.data));
          Status st = take(static_cast<uint8_t>(remaining - 1),
                           "contiguous remainder hit foreign bucket");
          cb(st, st.ok() ? std::move(*acc) : Chain{});
        });
      } else {
        (*step)(hdr.prev_ssd, hdr.prev_offset, static_cast<uint8_t>(remaining - 1));
      }
    });
  };
  (*step)(ssd, offset, chain_len);
}

// ---------------------------------------------------------------------------
// Compaction entry points (implementation in compaction.cc).
// ---------------------------------------------------------------------------

void DataStore::MaybeCompact() { compactor_->MaybeStart(); }
bool DataStore::compaction_running() const { return compactor_->running(); }
void DataStore::ForceKeyCompaction(OpCallback done) {
  compactor_->Start(Compactor::Log::kKey, std::move(done));
}
void DataStore::ForceValueCompaction(OpCallback done) {
  compactor_->Start(Compactor::Log::kValue, std::move(done));
}

}  // namespace leed::store
