#include "src/common/checksum.h"

#include <array>
#include <bit>
#include <cstring>

namespace kamino {
namespace {

// Slicing-by-8 CRC implementations: table k maps a byte to its CRC
// contribution k positions further along, so eight input bytes fold into the
// register with eight independent lookups instead of eight dependent steps.
// The result is bit-identical to the bytewise loop (table 0 alone), which
// still handles the last len % 8 bytes. Tables are built once at static-init
// time; both polynomials are in "reflected" form.
constexpr uint32_t kCrc32cPoly = 0x82F63B78u;           // Castagnoli, reflected.
constexpr uint64_t kCrc64Poly = 0xC96C5795D7870F42ull;  // ECMA-182, reflected.

template <typename T>
std::array<std::array<T, 256>, 8> BuildTables(T poly) {
  std::array<std::array<T, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    T crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

const std::array<std::array<uint32_t, 256>, 8> kCrc32cTables = BuildTables<uint32_t>(kCrc32cPoly);
const std::array<std::array<uint64_t, 256>, 8> kCrc64Tables = BuildTables<uint64_t>(kCrc64Poly);

// The eight bytes of a little-endian word (the word-at-a-time loads assume
// it; big-endian hosts take the bytewise loop throughout).
constexpr bool kWordLoads = std::endian::native == std::endian::little;

uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrc32cTables;
  uint32_t crc = ~seed;
  if constexpr (kWordLoads) {
    for (; len >= 8; p += 8, len -= 8) {
      const uint64_t w = LoadWord(p) ^ crc;
      crc = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
            t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^ t[2][(w >> 40) & 0xFF] ^
            t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
    }
  }
  for (; len > 0; ++p, --len) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  }
  return ~crc;
}

uint64_t Crc64(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrc64Tables;
  uint64_t crc = ~seed;
  if constexpr (kWordLoads) {
    for (; len >= 8; p += 8, len -= 8) {
      const uint64_t w = LoadWord(p) ^ crc;
      crc = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
            t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^ t[2][(w >> 40) & 0xFF] ^
            t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
    }
  }
  for (; len > 0; ++p, --len) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  }
  return ~crc;
}

}  // namespace kamino
