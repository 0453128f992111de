// Client-side token view for end-to-end flow control (paper §3.5).
//
// Every back-end SSD partition allocates its available tokens among
// co-located tenants and piggybacks the allocation on responses. The
// front-end keeps one account per (node, ssd) target: an estimate of the
// tokens the target is currently willing to accept, plus the number of
// requests outstanding to it. Algorithm 1 consults these accounts before
// submitting anything — the "make scheduling decisions as early as
// possible" principle (P2) applied at the earliest possible point, the
// client.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "common/units.h"

namespace leed::flowctl {

// Identity of one SSD's token account as seen from a front-end.
struct SsdRef {
  uint32_t node = 0;
  uint32_t ssd = 0;

  friend auto operator<=>(const SsdRef&, const SsdRef&) = default;
};

struct SsdAccount {
  // Latest token allocation learned from a piggybacked response. Starts
  // optimistic so cold targets are probed quickly.
  int64_t tokens = 0;
  // Requests in flight to this target (for Algorithm 1's Nagle fallback).
  uint32_t outstanding = 0;
  SimTime last_update = 0;
};

class TokenView {
 public:
  explicit TokenView(int64_t initial_tokens = 16)
      : initial_tokens_(initial_tokens) {}

  SsdAccount& Account(SsdRef ref);
  const SsdAccount* Find(SsdRef ref) const;

  // Charge an account for a request being sent.
  void OnSend(SsdRef ref, uint32_t token_cost);

  // Absorb a piggybacked allocation (absolute, from the target SSD).
  void OnResponse(SsdRef ref, uint32_t available_tokens, SimTime now);

  // A response that carried no token field (error paths): just release the
  // outstanding slot.
  void OnResponseNoTokens(SsdRef ref);

  size_t size() const { return accounts_.size(); }

 private:
  int64_t initial_tokens_;
  std::map<SsdRef, SsdAccount> accounts_;
};

}  // namespace leed::flowctl
