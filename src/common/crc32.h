// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320).
//
// Hoisted out of store/superblock.cc so every on-disk record format —
// superblock slots, per-bucket headers (store/format.h) — shares one
// checksum implementation. Two paths compute the same bits:
//
//   * portable: slicing-by-8 (Kounavis & Berry). Eight derived tables,
//     built at compile time, fold eight input bytes per step instead of
//     one. It is the fallback and the reference the tests check against.
//   * PCLMULQDQ folding (Gopal et al., "Fast CRC Computation for Generic
//     Polynomials Using PCLMULQDQ Instruction", Intel 2009): carry-less
//     multiplies fold 64 bytes per step into four 128-bit lanes, then a
//     Barrett reduction yields the 32-bit register. x86-64 only.
//
// Crc32Extend picks the hardware path from CPUID once at start-up; there is
// no switch. Same polynomial and bit order either way, so every checksum
// and on-disk byte is unchanged; the check value
// Crc32("123456789") == 0xCBF43926 is pinned by tests/superblock_test.cc.

#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define LEED_CRC32_HAVE_PCLMUL 1
#else
#define LEED_CRC32_HAVE_PCLMUL 0
#endif

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

// Slicing-by-8 over the raw (pre-inverted) CRC register.
inline uint32_t SliceBy8(uint32_t c, const uint8_t* data, size_t length) {
  const auto& t = kTables.t;
  for (; length >= 8; data += 8, length -= 8) {
    const uint32_t lo = LoadLe32(data) ^ c;
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; length > 0; ++data, --length) c = t[0][(c ^ *data) & 0xff] ^ (c >> 8);
  return c;
}

// The folding path needs at least four lanes of input.
inline constexpr size_t kFoldMinBytes = 64;

#if LEED_CRC32_HAVE_PCLMUL
// The folding helpers are compiled for PCLMULQDQ whatever the build's
// target; only CPUs that report it ever call them.
__attribute__((target("pclmul,sse2"))) inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: x.lo * k.lo ^ x.hi * k.hi ^ next.
__attribute__((target("pclmul,sse2"))) inline __m128i Fold128(__m128i x, __m128i k,
                                                              __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Folds `length` bytes (a multiple of 16, at least kFoldMinBytes) into the
// raw CRC register `c`. The constants are x^k mod P(x), bit-reflected, for
// the fold distances 512±64 (k1, k2), 128±64 (k3, k4) and 64 (k5), plus the
// Barrett pair (P(x), floor(x^64 / P(x))) from the paper's appendix.
__attribute__((target("pclmul,sse2"))) inline uint32_t FoldPclmul(
    uint32_t c, const uint8_t* data, size_t length) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load128(data), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(data + 16);
  __m128i x3 = Load128(data + 32);
  __m128i x4 = Load128(data + 48);
  data += 64;
  length -= 64;
  for (; length >= 64; data += 64, length -= 64) {
    x1 = Fold128(x1, k1k2, Load128(data));
    x2 = Fold128(x2, k1k2, Load128(data + 16));
    x3 = Fold128(x3, k1k2, Load128(data + 32));
    x4 = Fold128(x4, k1k2, Load128(data + 48));
  }
  // Four lanes into one, then any remaining 16-byte blocks.
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; length >= 16; data += 16, length -= 16) {
    x1 = Fold128(x1, k3k4, Load128(data));
  }

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  // 64 -> 32 bits (plus the 32 carried above them).
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);
  // Barrett reduction to the 32-bit register.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

inline bool CpuHasPclmul() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  return (ecx & bit_PCLMUL) != 0 && (edx & bit_SSE2) != 0;
}

// Read before its dynamic initialization (another static initializer
// checksumming) it is still false, which only selects the portable path.
inline const bool kUsePclmul = CpuHasPclmul();
#endif

}  // namespace crc32_internal

// Whether this CPU runs the PCLMULQDQ folding path.
inline bool Crc32HardwareAvailable() {
#if LEED_CRC32_HAVE_PCLMUL
  return crc32_internal::kUsePclmul;
#else
  return false;
#endif
}

// Continues a finished CRC over more bytes (zlib's crc32(crc, buf, len)
// convention): Crc32Extend(Crc32(a), b) == Crc32(a ++ b), and
// Crc32Extend(0, ...) starts a fresh checksum. Portable slicing-by-8.
inline uint32_t Crc32ExtendPortable(uint32_t crc, const uint8_t* data, size_t length) {
  return ~crc32_internal::SliceBy8(~crc, data, length);
}

// Same contract on the folding path: the longest 16-byte multiple of the
// input folds, the tail finishes by slicing-by-8. Call only when
// Crc32HardwareAvailable(); elsewhere it is the portable path.
inline uint32_t Crc32ExtendHardware(uint32_t crc, const uint8_t* data, size_t length) {
  uint32_t c = ~crc;
#if LEED_CRC32_HAVE_PCLMUL
  if (length >= crc32_internal::kFoldMinBytes) {
    const size_t folded = length & ~static_cast<size_t>(15);
    c = crc32_internal::FoldPclmul(c, data, folded);
    data += folded;
    length -= folded;
  }
#endif
  return ~crc32_internal::SliceBy8(c, data, length);
}

inline uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t length) {
  if (length >= crc32_internal::kFoldMinBytes && Crc32HardwareAvailable()) {
    return Crc32ExtendHardware(crc, data, length);
  }
  return Crc32ExtendPortable(crc, data, length);
}

inline uint32_t Crc32(const uint8_t* data, size_t length) {
  return Crc32Extend(0, data, length);
}

}  // namespace leed
