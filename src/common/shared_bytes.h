// An immutable byte buffer passed by reference count instead of by copy.
//
// A replicated PUT's value is written once, by the client, and from then on
// only read: by the chain message that carries it from replica to replica,
// by each replica's pending buffer (kept for re-forwarding after a view
// change), by the engine request, by the store's value-log append and by
// the simulated device that persists it (sim::PageStore keeps the bytes as
// an extent). Sharing one buffer between all of them turns each hand-off
// into a reference-count bump: no replica copies the value.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace leed {

class SharedBytes {
 public:
  SharedBytes() = default;
  // Implicit on purpose: any byte vector can be handed over (moved in, or
  // copied once) wherever a payload is taken.
  SharedBytes(std::vector<uint8_t> bytes)  // NOLINT: implicit
      : bytes_(bytes.empty() ? nullptr
                             : std::make_shared<const std::vector<uint8_t>>(
                                   std::move(bytes))) {}

  const std::vector<uint8_t>& bytes() const {
    static const std::vector<uint8_t> kEmpty;
    return bytes_ ? *bytes_ : kEmpty;
  }
  size_t size() const { return bytes_ ? bytes_->size() : 0; }

 private:
  std::shared_ptr<const std::vector<uint8_t>> bytes_;
};

}  // namespace leed
