#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace laps {

namespace detail {

constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint16_t, 256> kCrc16Table =
    make_crc16_table();

}  // namespace detail

/// Advances a CRC16-CCITT register by one input byte (one table lookup).
constexpr std::uint16_t crc16_ccitt_update(std::uint16_t crc,
                                           std::uint8_t byte) {
  return static_cast<std::uint16_t>(
      (crc << 8) ^ detail::kCrc16Table[((crc >> 8) ^ byte) & 0xFF]);
}

/// CRC16-CCITT (polynomial 0x1021, init 0xFFFF, no reflection).
///
/// This is the hash function LAPS uses over the 13-byte 5-tuple; Cao et al.
/// (INFOCOM'00) showed 16-bit CRCs spread IP headers close to uniformly,
/// which is why the paper picks it. This is the generic byte-at-a-time
/// form; `FiveTuple::crc16()` computes the same value for the fixed 13-byte
/// tuple from per-position tables, and is tested against this function.
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                          std::uint16_t init = 0xFFFF);

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320, reflected). Provided as an
/// alternative scheduler hash for ablations and for pcap sanity checking.
std::uint32_t crc32_ieee(std::span<const std::uint8_t> data,
                         std::uint32_t init = 0xFFFFFFFF);

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Used to derive
/// map keys from flow tuples and to seed per-stream RNGs.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace laps
