#include "engine/token_bucket.h"

#include <algorithm>

namespace leed::engine {

TokenPool::TokenPool(TokenConfig config)
    : config_(config),
      capacity_(config.base_tokens),
      available_(config.base_tokens),
      ewma_ns_(static_cast<double>(config.reference_latency_ns)) {}

bool TokenPool::TryTake(uint32_t cost) {
  if (cost > available_) return false;
  available_ -= cost;
  outstanding_ += cost;
  return true;
}

void TokenPool::Refund(uint32_t cost) {
  cost = std::min(cost, outstanding_);
  outstanding_ -= cost;
  // Refund against the (possibly rescaled) capacity.
  available_ = std::min(capacity_ - std::min(capacity_, outstanding_),
                        available_ + cost);
}

void TokenPool::OnIoCompleted(SimTime latency_ns) {
  ewma_ns_ = config_.ewma_alpha * static_cast<double>(latency_ns) +
             (1.0 - config_.ewma_alpha) * ewma_ns_;
  Rescale();
}

void TokenPool::Rescale() {
  // Capacity shrinks proportionally as the device slows past its reference
  // latency (and recovers symmetrically, bounded both ways).
  double scale = static_cast<double>(config_.reference_latency_ns) / ewma_ns_;
  double target = static_cast<double>(config_.base_tokens) * scale;
  uint32_t new_capacity = static_cast<uint32_t>(
      std::clamp(target, static_cast<double>(config_.min_tokens),
                 static_cast<double>(config_.max_tokens)));
  capacity_ = new_capacity;
  available_ = capacity_ > outstanding_ ? capacity_ - outstanding_ : 0;
}

}  // namespace leed::engine
