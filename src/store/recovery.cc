#include "store/recovery.h"

#include <algorithm>
#include <map>
#include <memory>

#include "store/format.h"

namespace leed::store {

RecoveryCheckpoint Checkpoint(const DataStore& store) {
  RecoveryCheckpoint cp;
  auto add = [&cp](const LogSet& logs) {
    RecoveryCheckpoint::LogPointers p;
    p.ssd = logs.ssd_id;
    p.key_head = logs.key_log->head();
    p.key_tail = logs.key_log->tail();
    p.value_head = logs.value_log->head();
    p.value_tail = logs.value_log->tail();
    cp.logs.push_back(p);
  };
  add(store.home());
  // Donors in ssd-id order, skipping home.
  for (uint8_t ssd = 0; ssd < 255; ++ssd) {
    if (ssd == store.home().ssd_id || !store.HasLogSet(ssd)) continue;
    add(store.log_set(ssd));
  }
  return cp;
}

namespace {

struct RecoveryRun {
  DataStore* store;
  RecoveryCheckpoint checkpoint;
  std::function<void(Status, RecoveryStats)> done;
  RecoveryStats stats;
  size_t log_index = 0;
  uint64_t cursor = 0;  // logical offset within the current key log

  // Extended-scan state (beyond the checkpointed tail of the current log).
  uint64_t committed_end = 0;  // adopt-up-to watermark for ExtendTail
  uint32_t consec_bad = 0;     // consecutive CRC failures (stop heuristic)
  // A compaction blob (contiguous array of chain_len buckets, written as
  // one append) repoints its segment only once every member validates.
  bool in_blob = false;
  uint64_t blob_start = 0;
  uint32_t blob_seg = 0;
  uint8_t blob_len = 0;
  uint8_t blob_expect = 0;
  // Newest value-log end per value SSD, over adopted buckets' live items;
  // applied as ExtendTail once the whole scan is done.
  std::map<uint8_t, uint64_t> value_ext;
};

// The extended scan gives up after this many consecutive CRC-failing
// buckets: a torn tail produces a short run of them, while never-written
// (or previous-lap) space fails indefinitely.
constexpr uint32_t kMaxConsecutiveBad = 4;

void ScanNextRegion(std::shared_ptr<RecoveryRun> run);
void ScanExtended(std::shared_ptr<RecoveryRun> run);
void FinishRun(std::shared_ptr<RecoveryRun> run);

// A bucket proves it was written at logical offset `off` of this log and
// lap: its snapshot of the tail plus its chain position must reproduce the
// offset it was found at (48-bit offsets are stored, headers keep 32 bits,
// so compare mod 2^32). Previous-lap survivors fail this.
bool SelfIdentityOk(const BucketHeader& h, uint64_t off, uint32_t bucket_size) {
  return static_cast<uint32_t>(off) ==
         h.log_tail + static_cast<uint32_t>(h.position) * bucket_size;
}

void Repoint(DataStore& store, RecoveryRun& run, const BucketHeader& h,
             uint64_t offset, uint8_t chain_len, uint8_t ssd) {
  SegmentEntry& e = store.segments().At(h.segment_id);
  if (e.Empty()) run.stats.segments_recovered++;
  else run.stats.stale_copies_skipped++;
  e.offset = offset;
  e.chain_len = chain_len;
  e.ssd = ssd;
  e.locked = false;
}

// Track how far into each value log an adopted bucket's live items reach,
// so the value tails can be extended to cover post-checkpoint appends.
void TrackValueEnds(RecoveryRun& run, const BucketView& b) {
  b.ForEachItem([&run](const KeyItemView& it) {
    if (it.IsTombstone()) return;
    uint64_t end = it.value_offset +
                   ValueEntryBytes(static_cast<uint32_t>(it.key.size()),
                                   it.value_len);
    uint64_t& max_end = run.value_ext[it.value_ssd];
    max_end = std::max(max_end, end);
  });
}

void NextLog(std::shared_ptr<RecoveryRun> run) {
  // Adopt whatever the extended scan proved complete before moving on.
  const auto& lp = run->checkpoint.logs[run->log_index];
  DataStore& ds = *run->store;
  if (run->committed_end > lp.key_tail && ds.HasLogSet(lp.ssd)) {
    // Shared swap logs are extended by several stores in turn; a shorter
    // extension than a sibling already applied is a no-op, not an error.
    (void)ds.log_set(lp.ssd).key_log->ExtendTail(run->committed_end);
  }
  run->in_blob = false;
  run->consec_bad = 0;
  run->log_index++;
  if (run->log_index >= run->checkpoint.logs.size()) {
    FinishRun(run);
    return;
  }
  run->cursor = run->checkpoint.logs[run->log_index].key_head;
  ScanNextRegion(run);
}

void FinishRun(std::shared_ptr<RecoveryRun> run) {
  DataStore& ds = *run->store;
  for (const auto& [ssd, end] : run->value_ext) {
    if (!ds.HasLogSet(ssd)) continue;
    (void)ds.log_set(ssd).value_log->ExtendTail(end);
  }
  run->done(Status::Ok(), run->stats);
}

void ScanLog(std::shared_ptr<RecoveryRun> run) {
  if (run->log_index >= run->checkpoint.logs.size()) {
    FinishRun(run);
    return;
  }
  run->cursor = run->checkpoint.logs[run->log_index].key_head;
  ScanNextRegion(run);
}

void ScanNextRegion(std::shared_ptr<RecoveryRun> run) {
  const auto& lp = run->checkpoint.logs[run->log_index];
  DataStore& ds = *run->store;
  const uint32_t bucket_size = ds.config().bucket_size;
  if (!ds.HasLogSet(lp.ssd)) {  // defensive: donor vanished
    NextLog(run);
    return;
  }
  if (run->cursor + bucket_size > lp.key_tail) {
    // Checkpointed region done; anything between cursor and tail is a torn
    // append. Keep going past the tail.
    if (run->cursor < lp.key_tail) run->stats.torn_buckets_ignored++;
    run->committed_end = lp.key_tail;
    run->cursor = lp.key_tail;
    ScanExtended(run);
    return;
  }
  const LogSet& logs = ds.log_set(lp.ssd);
  const uint8_t own_store = static_cast<uint8_t>(ds.config().store_id);
  // Read a chunk of buckets at a time (sequential recovery scan).
  const uint64_t chunk = std::min<uint64_t>(
      lp.key_tail - run->cursor,
      std::max<uint64_t>(bucket_size, 64ull * bucket_size));
  const uint64_t aligned = chunk - chunk % bucket_size;
  const uint64_t start = run->cursor;
  logs.key_log->Read(start, aligned, [run, start, aligned, bucket_size,
                                      own_store, ssd = lp.ssd](log::ReadResult r) {
    DataStore& store = *run->store;
    if (!r.status.ok()) {
      run->done(r.status, run->stats);
      return;
    }
    for (uint64_t at = 0; at + bucket_size <= r.data.size(); at += bucket_size) {
      if (!VerifyBucketCrc(r.data, at, bucket_size)) {
        run->stats.crc_rejected++;
        continue;
      }
      auto parsed = BucketView::ParseCrcChecked(r.data, at, bucket_size);
      if (!parsed.ok()) {
        run->stats.torn_buckets_ignored++;
        continue;
      }
      const BucketHeader& h = parsed.value().header();
      run->stats.buckets_scanned++;
      if (!SelfIdentityOk(h, start + at, bucket_size)) {
        run->stats.torn_buckets_ignored++;
        continue;
      }
      // Swap logs are shared: sibling stores' buckets pass every other
      // check but must not repoint this store's SegTbl.
      if (h.owner_store != own_store) {
        run->stats.foreign_buckets_skipped++;
        continue;
      }
      // Only chain heads re-point the SegTbl; mid-chain buckets of a
      // collapsed array carry position > 0 and are reachable via the head.
      if (h.position != 0) {
        run->stats.stale_copies_skipped++;
        continue;
      }
      if (h.segment_id >= store.config().num_segments) {
        run->stats.torn_buckets_ignored++;
        continue;
      }
      Repoint(store, *run, h, start + at, h.chain_len, ssd);
    }
    run->cursor = start + aligned;
    ScanNextRegion(run);
  });
}

// Scan past the checkpointed tail. Appends are adopted bucket by bucket:
// CRC + self-identity prove a bucket complete; a compaction blob (head
// with contiguous=1 whose prev_offset is the immediately following slot)
// is held back until all chain_len members validate, so a torn blob never
// repoints its segment away from the still-intact older chain.
void ScanExtended(std::shared_ptr<RecoveryRun> run) {
  const auto& lp = run->checkpoint.logs[run->log_index];
  DataStore& ds = *run->store;
  const uint32_t bucket_size = ds.config().bucket_size;
  const LogSet& logs = ds.log_set(lp.ssd);
  const uint64_t window_end = lp.key_head + logs.key_log->size();
  if (run->cursor + bucket_size > window_end) {
    NextLog(run);
    return;
  }
  const uint8_t own_store = static_cast<uint8_t>(ds.config().store_id);
  const uint64_t chunk = std::min<uint64_t>(
      window_end - run->cursor,
      std::max<uint64_t>(bucket_size, 64ull * bucket_size));
  const uint64_t aligned = chunk - chunk % bucket_size;
  const uint64_t start = run->cursor;
  logs.key_log->ReadRaw(start, aligned, [run, start, aligned, bucket_size,
                                         own_store, ssd = lp.ssd](log::ReadResult r) {
    DataStore& store = *run->store;
    if (!r.status.ok()) {
      run->done(r.status, run->stats);
      return;
    }
    uint64_t at = 0;
    while (at + bucket_size <= r.data.size()) {
      const uint64_t off = start + at;
      if (!VerifyBucketCrc(r.data, at, bucket_size)) {
        if (run->in_blob) {
          // Torn blob: skip its full extent (known from the head) and keep
          // looking — appends issued after a failed blob land past its end.
          run->stats.crc_rejected++;
          run->in_blob = false;
          run->cursor = run->blob_start +
                        static_cast<uint64_t>(run->blob_len) * bucket_size;
          ScanExtended(run);
          return;
        }
        run->stats.crc_rejected++;
        if (++run->consec_bad >= kMaxConsecutiveBad) {
          NextLog(run);
          return;
        }
        at += bucket_size;
        continue;
      }
      auto parsed = BucketView::ParseCrcChecked(r.data, at, bucket_size);
      if (!parsed.ok()) {  // CRC passed but unparsable: treat as the end
        run->stats.torn_buckets_ignored++;
        NextLog(run);
        return;
      }
      const BucketView& b = parsed.value();
      const BucketHeader& h = b.header();
      run->consec_bad = 0;
      if (run->in_blob) {
        const bool member =
            h.owner_store == own_store && h.segment_id == run->blob_seg &&
            h.position == run->blob_expect &&
            h.log_tail == static_cast<uint32_t>(run->blob_start);
        if (!member) {
          run->in_blob = false;
          run->cursor = run->blob_start +
                        static_cast<uint64_t>(run->blob_len) * bucket_size;
          ScanExtended(run);
          return;
        }
        run->stats.buckets_scanned++;
        TrackValueEnds(*run, b);
        if (++run->blob_expect == run->blob_len) {
          // Every member present: adopt the whole array.
          run->in_blob = false;
          Repoint(store, *run, h, run->blob_start, run->blob_len, ssd);
          run->stats.extended_buckets += run->blob_len;
          run->committed_end = off + bucket_size;
        }
        at += bucket_size;
        continue;
      }
      if (!SelfIdentityOk(h, off, bucket_size)) {
        // Previous-lap survivor: the contiguous run of fresh appends ends
        // here.
        NextLog(run);
        return;
      }
      run->stats.buckets_scanned++;
      if (h.owner_store != own_store) {
        // A sibling store's append in a shared swap log: not ours to
        // repoint, but it proves the log extends at least this far.
        run->stats.foreign_buckets_skipped++;
        run->committed_end = off + bucket_size;
        at += bucket_size;
        continue;
      }
      if (h.segment_id >= store.config().num_segments || h.position != 0) {
        run->stats.torn_buckets_ignored++;
        NextLog(run);
        return;
      }
      const bool blob_head = h.contiguous == 1 && h.chain_len > 1 &&
                             h.prev_offset == off + bucket_size;
      if (blob_head) {
        run->in_blob = true;
        run->blob_start = off;
        run->blob_seg = h.segment_id;
        run->blob_len = h.chain_len;
        run->blob_expect = 1;
        TrackValueEnds(*run, b);
        at += bucket_size;
        continue;
      }
      Repoint(store, *run, h, off, h.chain_len, ssd);
      run->stats.extended_buckets++;
      run->committed_end = off + bucket_size;
      TrackValueEnds(*run, b);
      at += bucket_size;
    }
    run->cursor = start + aligned;
    ScanExtended(run);
  });
}

}  // namespace

void RecoverSegTbl(DataStore& store, const RecoveryCheckpoint& checkpoint,
                   std::function<void(Status, RecoveryStats)> done) {
  auto run = std::make_shared<RecoveryRun>();
  run->store = &store;
  run->checkpoint = checkpoint;
  run->done = std::move(done);
  ScanLog(run);
}

}  // namespace leed::store
