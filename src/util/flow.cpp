#include "util/flow.h"

#include <cstdio>

namespace laps {

std::array<std::uint8_t, 13> FiveTuple::wire_bytes() const {
  std::array<std::uint8_t, 13> out{};
  auto put32 = [&](std::size_t at, std::uint32_t v) {
    out[at] = static_cast<std::uint8_t>(v >> 24);
    out[at + 1] = static_cast<std::uint8_t>(v >> 16);
    out[at + 2] = static_cast<std::uint8_t>(v >> 8);
    out[at + 3] = static_cast<std::uint8_t>(v);
  };
  auto put16 = [&](std::size_t at, std::uint16_t v) {
    out[at] = static_cast<std::uint8_t>(v >> 8);
    out[at + 1] = static_cast<std::uint8_t>(v);
  };
  put32(0, src_ip);
  put32(4, dst_ip);
  put16(8, src_port);
  put16(10, dst_port);
  out[12] = protocol;
  return out;
}

std::string FiveTuple::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s:%u -> %s:%u/%u",
                ipv4_to_string(src_ip).c_str(), src_port,
                ipv4_to_string(dst_ip).c_str(), dst_port, protocol);
  return buf;
}

std::string ipv4_to_string(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip >> 24) & 0xFF,
                (ip >> 16) & 0xFF, (ip >> 8) & 0xFF, ip & 0xFF);
  return buf;
}

}  // namespace laps
