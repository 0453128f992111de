// Storage-service abstraction: the node/replication layer submits requests
// through this interface, so the same cluster machinery (RPC, chain
// replication, control plane, clients) runs over LEED's IoEngine or over a
// baseline executor (FAWN / KVell ports) — matching the paper's methodology
// of swapping the storage stack while keeping the harness fixed.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/shared_bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "store/format.h"

namespace leed::engine {

enum class OpType : uint8_t { kGet, kPut, kDel, kScan };

inline bool IsWriteOp(OpType t) { return t == OpType::kPut || t == OpType::kDel; }

// Piggybacked serving-availability metadata (the flow-control signal the
// inter-JBOF scheduler consumes, §3.5).
struct ResponseMeta {
  uint32_t available_tokens = 0;  // of the target SSD, post-completion
  uint32_t ssd = 0;
  SimTime server_time_ns = 0;  // on-node latency (queue + execute)
};

struct Request {
  OpType type = OpType::kGet;
  std::string key;
  SharedBytes value;           // PUT payload
  uint32_t store_id = 0;       // virtual node / partition index on this node
  // Tenant identity for weighted token allocation (§3.5: each SSD splits
  // its available tokens among co-located tenants in a weighted fashion).
  uint32_t tenant = 0;
  std::function<void(Status, std::vector<uint8_t>, ResponseMeta)> callback;
  // SCAN: the requested result cap, the pre-resolved (key, location)
  // snapshot from the owning store's range index — taken by the node layer
  // so its CRRS dirty-window check covers exactly the keys the store will
  // fetch — and the scan-shaped completion. Scans use scan_callback, every
  // other op uses callback.
  uint32_t scan_limit = 0;
  std::vector<store::ScanLoc> scan_snapshot;
  std::function<void(Status, std::vector<store::ScanItem>, ResponseMeta)>
      scan_callback;
  SimTime enqueued_at = 0;
  // Correlation id for obs trace events (op_begin/queue_*/op_end); assigned
  // by the executing engine at submission.
  uint64_t trace_id = 0;
};

class StorageService {
 public:
  virtual ~StorageService() = default;

  virtual void Submit(Request request) = 0;
  virtual uint32_t num_stores() const = 0;
  virtual uint32_t ssd_of_store(uint32_t store_id) const = 0;
  // Flow-control token advertisement for the SSD (baselines advertise their
  // remaining queue slots).
  virtual uint32_t AvailableTokens(uint32_t ssd) const = 0;

  // SCAN support: synchronously snapshot up to `limit` ordered
  // (key, location) pairs with key >= start from `store_id`'s range index.
  // Backends without an ordered view keep the default (scans unsupported;
  // the node NACKs them with kInvalidArgument).
  virtual bool SupportsScan() const { return false; }
  virtual std::vector<store::ScanLoc> ScanSnapshot(uint32_t store_id,
                                                   std::string_view start,
                                                   uint32_t limit) {
    (void)store_id;
    (void)start;
    (void)limit;
    return {};
  }
};

}  // namespace leed::engine
