#include "util/crc.h"

namespace laps {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrc32Table = make_crc32_table();

}  // namespace

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                          std::uint16_t init) {
  std::uint16_t crc = init;
  for (std::uint8_t byte : data) crc = crc16_ccitt_update(crc, byte);
  return crc;
}

std::uint32_t crc32_ieee(std::span<const std::uint8_t> data,
                         std::uint32_t init) {
  std::uint32_t crc = init;
  for (std::uint8_t byte : data) {
    crc = (crc >> 8) ^ kCrc32Table[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

}  // namespace laps
