// Token accounting for one SSD partition (paper §3.4).
//
// The size of the active queue represents the SSD's current IO serving
// capability; the engine translates that capacity into N tokens "using the
// measured per-IO latency following prior work" (FlashFQ/ReFlex/Gimbal
// style): when the device slows down (internal GC, read/write
// interference), the exponentially-weighted latency estimate rises and the
// token pool shrinks, throttling admission *before* queues build. Each
// command type carries an empirically fixed token cost — in LEED the cost
// tracks its NVMe access count (GET 2, PUT 3, DEL 2).

#pragma once

#include <cstdint>

#include "common/units.h"
#include "engine/storage_service.h"

namespace leed::engine {

struct TokenConfig {
  // Nominal pool size when the device behaves at its reference latency.
  uint32_t base_tokens = 96;
  // Reference per-IO latency the base pool was sized against.
  SimTime reference_latency_ns = 60 * kMicrosecond;
  // EWMA smoothing for the measured latency.
  double ewma_alpha = 0.05;
  // Pool bounds after latency scaling.
  uint32_t min_tokens = 8;
  uint32_t max_tokens = 512;
  // Per-command costs (== NVMe access counts).
  uint32_t get_cost = 2;
  uint32_t put_cost = 3;
  uint32_t del_cost = 2;
  // SCAN cost scale: a scan charges one GET-equivalent per this many items
  // it fetches from the value log (rounded up, min one GET) — cost stays
  // proportional to the buckets actually touched.
  uint32_t scan_items_per_token = 4;
};

inline uint32_t TokenCost(const TokenConfig& cfg, OpType t) {
  switch (t) {
    case OpType::kGet:
      return cfg.get_cost;
    case OpType::kPut:
      return cfg.put_cost;
    case OpType::kDel:
      return cfg.del_cost;
    case OpType::kScan:
      // Callers with a known item count use ScanTokenCost; this is the
      // one-unit floor (an empty-range scan still costs an index walk).
      return cfg.get_cost;
  }
  return 1;
}

// Scan admission cost for `items` fetched entries. The client-side flow
// control charges the same formula against the requested limit (an upper
// bound), so Algorithm-1 throttling and engine admission agree.
inline uint32_t ScanTokenCost(const TokenConfig& cfg, uint32_t items) {
  const uint32_t per = cfg.scan_items_per_token == 0 ? 1 : cfg.scan_items_per_token;
  const uint32_t units = (items + per - 1) / per;
  return cfg.get_cost * (units == 0 ? 1 : units);
}

class TokenPool {
 public:
  explicit TokenPool(TokenConfig config);

  // Try to take `cost` tokens; false when the pool cannot cover it.
  bool TryTake(uint32_t cost);
  // Return tokens after the command retires.
  void Refund(uint32_t cost);

  // Feed a measured per-IO latency; rescales the pool capacity.
  void OnIoCompleted(SimTime latency_ns);

  uint32_t available() const { return available_; }
  uint32_t capacity() const { return capacity_; }
  uint32_t in_use() const {
    return capacity_ > available_ ? capacity_ - available_ : 0;
  }
  double ewma_latency_us() const { return ewma_ns_ / 1e3; }

  const TokenConfig& config() const { return config_; }

 private:
  void Rescale();

  const TokenConfig config_;
  uint32_t capacity_;
  uint32_t available_;
  uint32_t outstanding_ = 0;  // tokens held by commands
  double ewma_ns_;
};

}  // namespace leed::engine
