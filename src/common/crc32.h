// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320).
//
// Hoisted out of store/superblock.cc so every on-disk record format —
// superblock slots, per-bucket headers (store/format.h) — shares one
// checksum implementation. Slicing-by-8 (Kounavis & Berry): eight derived
// tables, built at compile time, fold eight input bytes per step instead
// of one. Same polynomial and bit order as the byte-at-a-time form, so
// every checksum and on-disk byte is unchanged; the check value
// Crc32("123456789") == 0xCBF43926 is pinned by tests/superblock_test.cc.

#pragma once

#include <cstddef>
#include <cstdint>

namespace leed {

namespace crc32_internal {

struct Tables {
  uint32_t t[8][256];
};

// t[0] is the classic byte table; t[k][i] is the CRC register after byte i
// is followed by k zero bytes, which lets one step consume eight bytes.
constexpr Tables MakeTables() {
  Tables tb{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tb.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const uint32_t prev = tb.t[k - 1][i];
      tb.t[k][i] = (prev >> 8) ^ tb.t[0][prev & 0xff];
    }
  }
  return tb;
}

inline constexpr Tables kTables = MakeTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace crc32_internal

// Continues a finished CRC over more bytes (zlib's crc32(crc, buf, len)
// convention): Crc32Extend(Crc32(a), b) == Crc32(a ++ b), and
// Crc32Extend(0, ...) starts a fresh checksum.
inline uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t length) {
  const auto& t = crc32_internal::kTables.t;
  uint32_t c = ~crc;
  for (; length >= 8; data += 8, length -= 8) {
    const uint32_t lo = crc32_internal::LoadLe32(data) ^ c;
    const uint32_t hi = crc32_internal::LoadLe32(data + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; length > 0; ++data, --length) c = t[0][(c ^ *data) & 0xff] ^ (c >> 8);
  return ~c;
}

inline uint32_t Crc32(const uint8_t* data, size_t length) {
  return Crc32Extend(0, data, length);
}

}  // namespace leed
