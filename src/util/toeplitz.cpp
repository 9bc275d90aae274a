#include "util/toeplitz.h"

#include <stdexcept>
#include <string>

namespace laps {

// Microsoft's RSS verification key (NDIS documentation).
const std::array<std::uint8_t, 40> ToeplitzHash::kDefaultKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

ToeplitzHash::ToeplitzHash(const std::array<std::uint8_t, 40>& key)
    : key_(key) {
  // By linearity, each entry is the XOR of the single-bit inputs it
  // holds: take the 96 single-bit hashes from the bit-serial reference,
  // then fill each byte's table in increasing order, one XOR per entry.
  for (std::size_t i = 0; i < table_.size(); ++i) {
    auto& row = table_[i];
    for (int bit = 0; bit < 8; ++bit) {
      std::uint8_t input[12] = {};
      input[i] = static_cast<std::uint8_t>(1u << bit);
      row[1u << bit] = hash_bytes(input, sizeof input);
    }
    for (std::uint32_t v = 1; v < 256; ++v) {
      const std::uint32_t low = v & (~v + 1);
      row[v] = row[v ^ low] ^ row[low];
    }
  }
}

std::uint32_t ToeplitzHash::hash_bytes(const std::uint8_t* data,
                                       std::size_t len) const {
  if (len > key_.size() - 4) {
    throw std::invalid_argument(
        "ToeplitzHash::hash_bytes: " + std::to_string(len) +
        " bytes of input exceed the " + std::to_string(key_.size() - 4) +
        "-byte limit of a " + std::to_string(key_.size()) + "-byte key");
  }
  // Bit-serial Toeplitz, the reference for the table form in hash(): for
  // each input bit set, XOR in the 32-bit window of the key starting at
  // that bit position.
  std::uint32_t result = 0;
  std::uint32_t window = (std::uint32_t(key_[0]) << 24) |
                         (std::uint32_t(key_[1]) << 16) |
                         (std::uint32_t(key_[2]) << 8) | key_[3];
  std::size_t next_key_byte = 4;
  for (std::size_t i = 0; i < len; ++i) {
    std::uint8_t byte = data[i];
    for (int bit = 7; bit >= 0; --bit) {
      if (byte & (1u << bit)) result ^= window;
      // Slide the key window left by one bit, pulling in the next key bit.
      window = (window << 1) | ((key_[next_key_byte] >> bit) & 1u);
    }
    ++next_key_byte;
  }
  return result;
}

std::uint16_t naive_fold_hash(const FiveTuple& tuple) {
  return static_cast<std::uint16_t>(
      (tuple.src_ip + tuple.dst_ip + tuple.src_port + tuple.dst_port +
       tuple.protocol) &
      0xFFFF);
}

}  // namespace laps
