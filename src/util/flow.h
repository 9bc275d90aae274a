#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "util/crc.h"

namespace laps {

namespace detail {

/// `FiveTuple::crc16()` in table form. Over a fixed 13-byte length CRC16 is
/// affine over GF(2), so crc16(b0..b12) = zero ^ pos[0][b0] ^ ... ^
/// pos[12][b12], bit for bit: `zero` is the CRC (init 0xFFFF) of 13 zero
/// bytes and pos[i][v] is the init-0 CRC of the 13-byte message holding v
/// at position i and zeros elsewhere. Built at compile time.
struct TupleCrc16Tables {
  std::uint16_t zero = 0;
  std::array<std::array<std::uint16_t, 256>, 13> pos{};
};

constexpr TupleCrc16Tables make_tuple_crc16_tables() {
  TupleCrc16Tables t;
  t.zero = 0xFFFF;
  for (int i = 0; i < 13; ++i) t.zero = crc16_ccitt_update(t.zero, 0);
  for (std::uint32_t v = 0; v < 256; ++v) {
    // Leading zero bytes keep an init-0 register at 0, so pos[i][v] is the
    // CRC of v followed by the 12 - i trailing zeros.
    std::uint16_t crc = crc16_ccitt_update(0, static_cast<std::uint8_t>(v));
    for (int i = 12; i >= 0; --i) {
      t.pos[i][v] = crc;
      crc = crc16_ccitt_update(crc, 0);
    }
  }
  return t;
}

inline constexpr TupleCrc16Tables kTupleCrc16 = make_tuple_crc16_tables();

}  // namespace detail

/// The 5-tuple flow identifier used throughout the paper: a *flow* is the
/// set of packets sharing source/destination IPv4 address, source/destination
/// port, and IP protocol.
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  /// Serializes the tuple into the canonical 13-byte wire layout the
  /// hardware hashes (big-endian fields, the order they appear in the
  /// IP/TCP headers: src ip, dst ip, src port, dst port, protocol).
  std::array<std::uint8_t, 13> wire_bytes() const;

  /// CRC16-CCITT of the 13-byte wire layout — the LAPS scheduler hash.
  /// Equal to `crc16_ccitt(wire_bytes())`, computed from the fields with
  /// one table lookup per wire byte. Inline: every StaticHash decision and
  /// every unpinned LAPS decision computes it.
  constexpr std::uint16_t crc16() const {
    auto at = [](int pos, std::uint32_t v) -> std::uint32_t {
      return detail::kTupleCrc16.pos[pos][v & 0xFF];
    };
    const std::uint32_t ports = (std::uint32_t{src_port} << 16) | dst_port;
    return static_cast<std::uint16_t>(
        detail::kTupleCrc16.zero ^ at(0, src_ip >> 24) ^ at(1, src_ip >> 16) ^
        at(2, src_ip >> 8) ^ at(3, src_ip) ^ at(4, dst_ip >> 24) ^
        at(5, dst_ip >> 16) ^ at(6, dst_ip >> 8) ^ at(7, dst_ip) ^
        at(8, ports >> 24) ^ at(9, ports >> 16) ^ at(10, ports >> 8) ^
        at(11, ports) ^ at(12, protocol));
  }

  /// A 64-bit key for software hash maps (migration tables, statistics).
  /// Collision-free in practice for simulated flow populations: mixes all
  /// 104 tuple bits through SplitMix64 in two dependent rounds. Inline:
  /// per-packet probes compute it on their fast path.
  std::uint64_t key64() const {
    const std::uint64_t lo = (static_cast<std::uint64_t>(src_ip) << 32) | dst_ip;
    const std::uint64_t hi = (static_cast<std::uint64_t>(src_port) << 24) |
                             (static_cast<std::uint64_t>(dst_port) << 8) |
                             protocol;
    return mix64(mix64(lo) ^ hi);
  }

  /// Human-readable "a.b.c.d:p -> a.b.c.d:p/proto" form for logs and
  /// error messages.
  std::string to_string() const;
};

/// Hash functor so FiveTuple can key std::unordered_map directly.
struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(t.key64());
  }
};

/// Formats an IPv4 address (host byte order) as dotted quad.
std::string ipv4_to_string(std::uint32_t ip);

}  // namespace laps
