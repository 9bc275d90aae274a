#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/flow.h"

namespace laps {

/// Toeplitz hash over the 5-tuple — the hash NIC front ends compute for
/// receive-side scaling (RSS) and Flow Director; the `rss` and `fdir`
/// cluster dispatchers pick with it, and the hash-quality ablation compares
/// it with the paper's CRC16 and a naive modulo fold (Cao et al.,
/// INFOCOM'00, is the paper's reference for why CRC16 is a good choice).
///
/// The hash is linear over GF(2), so `hash()` is the XOR of one table entry
/// per input byte (12 x 256 entries, built from the key in the
/// constructor). `hash_bytes()` is the bit-serial reference it is tested
/// against.
class ToeplitzHash {
 public:
  /// 40-byte RSS key; the default is Microsoft's canonical verification key
  /// so hash values match published RSS test vectors.
  explicit ToeplitzHash(
      const std::array<std::uint8_t, 40>& key = kDefaultKey);

  /// 32-bit Toeplitz hash of the 12-byte src/dst address+port block (the
  /// standard RSS TCP/IPv4 input; protocol is not part of RSS input), read
  /// from the fields. Equal to `hash_bytes` over those 12 wire bytes.
  std::uint32_t hash(const FiveTuple& t) const {
    auto at = [this](int pos, std::uint32_t v) {
      return table_[pos][v & 0xFF];
    };
    const std::uint32_t ports = (std::uint32_t{t.src_port} << 16) | t.dst_port;
    return at(0, t.src_ip >> 24) ^ at(1, t.src_ip >> 16) ^
           at(2, t.src_ip >> 8) ^ at(3, t.src_ip) ^ at(4, t.dst_ip >> 24) ^
           at(5, t.dst_ip >> 16) ^ at(6, t.dst_ip >> 8) ^ at(7, t.dst_ip) ^
           at(8, ports >> 24) ^ at(9, ports >> 16) ^ at(10, ports >> 8) ^
           at(11, ports);
  }

  /// Bit-serial Toeplitz hash over arbitrary bytes. A 40-byte key covers at
  /// most 36 bytes of input; longer input throws std::invalid_argument.
  std::uint32_t hash_bytes(const std::uint8_t* data, std::size_t len) const;

  static const std::array<std::uint8_t, 40> kDefaultKey;

 private:
  std::array<std::uint8_t, 40> key_;
  /// table_[i][v]: hash of the 12-byte input holding v at byte i, zeros
  /// elsewhere.
  std::array<std::array<std::uint32_t, 256>, 12> table_{};
};

/// Deliberately poor hash for the ablation: folds the tuple with modulo,
/// which correlates with address assignment patterns exactly the way
/// real deployments regret.
std::uint16_t naive_fold_hash(const FiveTuple& tuple);

}  // namespace laps
