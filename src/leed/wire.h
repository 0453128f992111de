// The wire schema: every message the simulated fabric carries.
//
// Data path (client <-> node, node <-> node). The paper's transport is RDMA
// with a hybrid verb scheme (§3.5): requests use two-sided SENDs, responses
// one-sided WRITEs into pre-allocated client memory with the request id in
// the 32-bit IMM field. At the simulation's message level that maps to:
// requests and responses are single messages, responses carry `req_id` for
// completion matching, and every response piggybacks the target SSD's token
// allocation (the flow-control feedback).
//
// The hop counter (§3.8.1) rides in every request: the receiver recomputes
// the chain in *its* view and verifies it really is chain[hop] for this
// key; any mismatch NACKs back to the client, which refreshes its view and
// retries. This is what keeps cross-view windows safe during membership
// changes.
//
// Control plane (§3.1.2, §3.8): views, heartbeats, COPY streams and store
// failures flow between the control-plane manager (the etcd-backed service
// in the paper) and the JBOF nodes / clients.
//
// WireMsg is the closed set of both; each alternative has a WireSize
// overload (header + payload bytes), and the network charges exactly that,
// so no sender computes a byte count.

#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/membership.h"
#include "common/shared_bytes.h"
#include "common/status.h"
#include "engine/storage_service.h"
#include "sim/network.h"

namespace leed::cluster {

struct ViewUpdateMsg {
  ClusterView view;
};

// Client asking the control plane for the current view (after a NACK).
struct ViewRequestMsg {
  sim::EndpointId reply_to = sim::kInvalidEndpoint;
};

struct HeartbeatMsg {
  uint32_t node = 0;
};

// Control plane -> node owning `src`: stream every live item whose ring
// position lies in (range_start, range_end] to `dst`.
struct CopyCommandMsg {
  uint64_t copy_id = 0;
  VNodeId src = kInvalidVNode;
  VNodeId dst = kInvalidVNode;
  uint32_t dst_node = 0;
  sim::EndpointId dst_endpoint = sim::kInvalidEndpoint;
  uint64_t range_start = 0;
  uint64_t range_end = 0;
  uint64_t transition_epoch = 0;
};

// One copied item, node -> node. `last` marks the end of the stream.
struct CopyItemMsg {
  uint64_t copy_id = 0;
  VNodeId dst = kInvalidVNode;
  uint64_t transition_epoch = 0;
  std::string key;
  std::vector<uint8_t> value;
  bool last = false;
};

// Destination node -> control plane once the final item is durable.
struct CopyDoneMsg {
  uint64_t copy_id = 0;
  VNodeId dst = kInvalidVNode;
};

// Node -> control plane: a local store's SSD latched permanently failed
// (N consecutive hard IO errors). The node keeps serving its other stores;
// the control plane fails over just this store's vnodes (FailStore).
struct StoreFailedMsg {
  uint32_t node = 0;
  uint32_t local_store = 0;
};

// Approximate wire sizes (header + payload), for honest bandwidth charging.
constexpr uint64_t kControlHeaderBytes = 48;

inline uint64_t WireSize(const ViewUpdateMsg& m) {
  return kControlHeaderBytes + m.view.vnodes.size() * 24 +
         m.view.filling.size() * 28;
}
inline uint64_t WireSize(const ViewRequestMsg&) { return kControlHeaderBytes; }
inline uint64_t WireSize(const HeartbeatMsg&) { return kControlHeaderBytes; }
inline uint64_t WireSize(const CopyCommandMsg&) { return kControlHeaderBytes; }
inline uint64_t WireSize(const CopyItemMsg& m) {
  return kControlHeaderBytes + m.key.size() + m.value.size();
}
inline uint64_t WireSize(const CopyDoneMsg&) { return kControlHeaderBytes; }
inline uint64_t WireSize(const StoreFailedMsg&) { return kControlHeaderBytes; }

}  // namespace leed::cluster

namespace leed {

struct ClientRequestMsg {
  uint64_t req_id = 0;
  engine::OpType op = engine::OpType::kGet;
  std::string key;            // SCAN: the inclusive start key
  SharedBytes value;          // PUT payload, shared with the client's op
  uint32_t scan_limit = 0;    // SCAN: max items returned (0 for point ops)
  cluster::VNodeId vnode = cluster::kInvalidVNode;  // addressed chain member
  uint8_t hop = 0;            // expected index of `vnode` in the key's chain
  uint64_t view_epoch = 0;    // client's view at issue time
  uint32_t tenant = 0;        // weighted token allocation identity (§3.5)
  sim::EndpointId reply_to = sim::kInvalidEndpoint;
  bool shipped = false;       // CRRS: GET/SCAN shipped replica -> tail
};

// CRAQ-style version query (§3.7's rejected design alternative, kept as an
// ablation): a dirty replica asks the tail to serialize the read instead
// of shipping it; the reply lets the replica serve its last-committed copy
// locally. Costs an extra cross-JBOF round trip per dirty read.
struct CraqQueryMsg {
  uint64_t query_id = 0;
  std::string key;
  cluster::VNodeId tail_vnode = cluster::kInvalidVNode;
  sim::EndpointId reply_to = sim::kInvalidEndpoint;  // querying node
};

struct CraqReplyMsg {
  uint64_t query_id = 0;
};

// A write propagating along the chain (head -> ... -> tail).
struct ChainWriteMsg {
  uint64_t write_id = 0;
  bool is_del = false;
  std::string key;
  SharedBytes value;  // shared with every replica's pending buffer
  cluster::VNodeId vnode = cluster::kInvalidVNode;  // addressed member
  uint8_t hop = 0;
  uint64_t view_epoch = 0;
  sim::EndpointId reply_to = sim::kInvalidEndpoint;
  uint64_t req_id = 0;
};

// Commitment acknowledgment flowing tail -> head; clears (and applies) the
// pending write at each replica. success=false aborts (tail could not
// apply), rolling the pending buffer back (paper §3.8.2 failed-tail case).
struct ChainAckMsg {
  uint64_t write_id = 0;
  std::string key;
  cluster::VNodeId vnode = cluster::kInvalidVNode;  // receiver's vnode
  bool success = true;
  // Tail commit stamp (replication::CommitStamp, carried flat to keep the
  // wire structs header-light): acks can reorder on the wire, so replicas
  // apply in stamp order per key instead of ack-arrival order.
  uint64_t commit_epoch = 0;
  uint64_t commit_seq = 0;
};

struct ResponseMsg {
  uint64_t req_id = 0;
  StatusCode code = StatusCode::kOk;
  std::vector<uint8_t> value;
  // SCAN payload: ordered (key, value) items starting at the request's
  // start key. Empty for point ops.
  std::vector<store::ScanItem> scan_items;
  // Flow-control piggyback (§3.5): which SSD served this and its current
  // token allocation.
  uint32_t node = 0;
  uint32_t ssd = 0;
  uint32_t tokens = 0;
  bool has_tokens = false;
};

// Approximate wire sizes: RDMA header + immediate + payload.
constexpr uint64_t kRpcHeaderBytes = 64;

inline uint64_t WireSize(const ClientRequestMsg& m) {
  return kRpcHeaderBytes + m.key.size() + m.value.size();
}
inline uint64_t WireSize(const ChainWriteMsg& m) {
  return kRpcHeaderBytes + m.key.size() + m.value.size();
}
inline uint64_t WireSize(const ChainAckMsg& m) {
  return kRpcHeaderBytes + m.key.size();
}
inline uint64_t WireSize(const ResponseMsg& m) {
  uint64_t bytes = kRpcHeaderBytes + m.value.size();
  for (const auto& item : m.scan_items) {
    bytes += item.key.size() + item.value.size();
  }
  return bytes;
}
inline uint64_t WireSize(const CraqQueryMsg& m) {
  return kRpcHeaderBytes + m.key.size();
}
inline uint64_t WireSize(const CraqReplyMsg&) { return kRpcHeaderBytes; }

// Every message the fabric carries; nothing outside this list can be sent.
using WireMsg =
    std::variant<ClientRequestMsg, ResponseMsg, ChainWriteMsg, ChainAckMsg,
                 CraqQueryMsg, CraqReplyMsg, cluster::ViewUpdateMsg,
                 cluster::ViewRequestMsg, cluster::HeartbeatMsg,
                 cluster::CopyCommandMsg, cluster::CopyItemMsg,
                 cluster::CopyDoneMsg, cluster::StoreFailedMsg>;

inline uint64_t WireSize(const WireMsg& m) {
  return std::visit([](const auto& alt) { return WireSize(alt); }, m);
}

using Network = sim::Network<WireMsg>;
using Message = sim::Message<WireMsg>;

}  // namespace leed
