// Crash recovery for the LEED data store.
//
// The only volatile state the store owns is the in-DRAM SegTbl; everything
// else lives in the circular logs. §3.2.3 reserves head/tail snapshot
// fields in every bucket "used for recovery": after a crash, the newest
// bucket in the key log carries (a slightly stale view of) the log
// pointers, and a forward scan rebuilds the rest.
//
// Recovery procedure implemented here:
//   1. scan the key-log region from its persisted head to its tail, and
//      on past the tail (see the durability contract below), decoding
//      buckets in append order;
//   2. for every bucket, (re)point SegTbl[segment] at it — later copies
//      overwrite earlier ones, so after the scan each segment's entry
//      names its newest bucket, exactly as before the crash;
//   3. chain lengths are taken from the bucket headers (the newest copy
//      knows its own chain length);
//   4. validation pass (optional): probe each rebuilt segment's head
//      bucket and verify the segment id matches.
//
// Durability contract: the log head/tail pointers themselves are
// checkpointed by the caller (in a real deployment, a superblock; here the
// engine writes one periodically — see RecoveryCheckpoint). A PUT is
// durable once both its appends complete, which is when the client sees
// OK. The checkpoint may predate acked appends, so the scan continues past
// the checkpointed tail and adopts every append it can prove complete
// (per-bucket CRC + the self-identity rule: a bucket's checkpointed
// log_tail plus its chain position must equal the offset it was found at),
// so acked writes that landed after the last checkpoint survive a crash.
// Torn appends fail the CRC and are rolled back — which can only drop
// un-acked operations.
//
// Swapped segments: buckets parked on donor SSDs are rediscovered by
// scanning each donor's swap log the same way; the scan order (home first,
// then donors) is safe because a donor bucket is always *newer* than any
// home copy of the same segment while the swap is outstanding.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "store/data_store.h"

namespace leed::store {

// Snapshot of log pointers taken at checkpoint time (a superblock stand-in).
struct RecoveryCheckpoint {
  struct LogPointers {
    uint8_t ssd = 0;
    uint64_t key_head = 0, key_tail = 0;
    uint64_t value_head = 0, value_tail = 0;
  };
  std::vector<LogPointers> logs;  // home first, then any swap donors
};

// Capture a checkpoint from a live store.
RecoveryCheckpoint Checkpoint(const DataStore& store);

struct RecoveryStats {
  uint64_t buckets_scanned = 0;
  uint64_t segments_recovered = 0;
  uint64_t stale_copies_skipped = 0;
  uint64_t torn_buckets_ignored = 0;
  uint64_t crc_rejected = 0;           // buckets failing the per-bucket CRC
  uint64_t extended_buckets = 0;       // adopted from beyond the checkpoint
  uint64_t foreign_buckets_skipped = 0;  // other stores' buckets in swap logs
};

// Rebuild `store`'s SegTbl by scanning the key logs named in `checkpoint`,
// each from its head to its checkpointed tail and then on past the tail.
// The store must be freshly constructed (empty SegTbl) over the same log
// regions/devices. Asynchronous: `done` fires with the stats.
void RecoverSegTbl(DataStore& store, const RecoveryCheckpoint& checkpoint,
                   std::function<void(Status, RecoveryStats)> done);

}  // namespace leed::store
