#include "trace/pcap_io.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <vector>

namespace laps {
namespace {

constexpr std::uint32_t kMagicUsec = 0xA1B2C3D4;
constexpr std::uint32_t kMagicNsec = 0xA1B23C4D;
constexpr std::uint32_t kMagicUsecSwapped = 0xD4C3B2A1;
constexpr std::uint32_t kMagicNsecSwapped = 0x4D3CB2A1;
constexpr std::uint32_t kLinkEthernet = 1;
constexpr std::uint32_t kLinkRawIp = 101;

std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0x000000FFu) << 24) | ((v & 0x0000FF00u) << 8) |
         ((v & 0x00FF0000u) >> 8) | ((v & 0xFF000000u) >> 24);
}

}  // namespace

PcapReader::PcapReader(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (!file_) throw PcapError("PcapReader: cannot open " + path);

  std::uint8_t hdr[24];
  const std::size_t hdr_got = std::fread(hdr, 1, sizeof hdr, file_);
  if (hdr_got != sizeof hdr) {
    std::fclose(file_);
    file_ = nullptr;
    throw PcapError(path, hdr_got,
                    "truncated global header (" + std::to_string(hdr_got) +
                        " of 24 bytes)");
  }
  std::uint32_t magic;
  std::memcpy(&magic, hdr, 4);
  switch (magic) {
    case kMagicUsec: swap_ = false; nanos_ = false; break;
    case kMagicNsec: swap_ = false; nanos_ = true; break;
    case kMagicUsecSwapped: swap_ = true; nanos_ = false; break;
    case kMagicNsecSwapped: swap_ = true; nanos_ = true; break;
    default:
      std::fclose(file_);
      file_ = nullptr;
      throw PcapError(path, 0, "bad magic (not a pcap file)");
  }
  link_type_ = read_u32(hdr + 20);
  snaplen_ = read_u32(hdr + 16);
  if (link_type_ != kLinkEthernet && link_type_ != kLinkRawIp) {
    std::fclose(file_);
    file_ = nullptr;
    throw PcapError(path, 20,
                    "unsupported link type " + std::to_string(link_type_));
  }
  offset_ = sizeof hdr;
}

PcapReader::~PcapReader() {
  if (file_) std::fclose(file_);
}

std::uint32_t PcapReader::read_u32(const std::uint8_t* p) const {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return swap_ ? bswap32(v) : v;
}

std::uint16_t PcapReader::read_u16(const std::uint8_t* p) const {
  // Network byte order within packet data is handled by callers; this is
  // for file-header fields only, which share the file's endianness.
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return swap_ ? static_cast<std::uint16_t>((v >> 8) | (v << 8)) : v;
}

std::optional<PcapPacket> PcapReader::next() {
  std::vector<std::uint8_t> data;
  while (true) {
    std::uint8_t rec_hdr[16];
    const std::size_t got = std::fread(rec_hdr, 1, sizeof rec_hdr, file_);
    if (got == 0) return std::nullopt;  // clean EOF
    if (got != sizeof rec_hdr) {
      // Offsets point at the start of the bad record, where a repair tool
      // would truncate the capture.
      throw PcapError(path_, offset_,
                      "truncated record header (" + std::to_string(got) +
                          " of 16 bytes, packet " +
                          std::to_string(parsed_ + skipped_) + ")");
    }
    const std::uint32_t ts_sec = read_u32(rec_hdr);
    const std::uint32_t ts_frac = read_u32(rec_hdr + 4);
    const std::uint32_t incl_len = read_u32(rec_hdr + 8);
    const std::uint32_t orig_len = read_u32(rec_hdr + 12);
    // Bound the record by the file's stated snaplen, clamped to libpcap's
    // MAXIMUM_SNAPLEN: hostile headers store "no limit" sentinels (or
    // values near UINT32_MAX that would wrap 32-bit arithmetic), and the
    // resize below must never be attacker-sized. 64-bit math keeps the
    // bound itself overflow-proof.
    constexpr std::uint64_t kMaxSnaplen = 262144;
    const std::uint64_t bound =
        std::min<std::uint64_t>(snaplen_, kMaxSnaplen) + 65536u;
    if (incl_len > bound) {
      throw PcapError(path_, offset_,
                      "implausible record length " +
                          std::to_string(incl_len) + " (bound " +
                          std::to_string(bound) + ")");
    }
    data.resize(incl_len);
    if (incl_len > 0) {
      const std::size_t body = std::fread(data.data(), 1, incl_len, file_);
      if (body != incl_len) {
        throw PcapError(path_, offset_,
                        "truncated record body (" + std::to_string(body) +
                            " of " + std::to_string(incl_len) +
                            " bytes, packet " +
                            std::to_string(parsed_ + skipped_) + ")");
      }
    }
    offset_ += sizeof rec_hdr + incl_len;

    // Locate the IPv4 header.
    std::size_t ip_off = 0;
    if (link_type_ == kLinkEthernet) {
      if (data.size() < 14) { ++skipped_; continue; }
      const std::uint16_t ethertype =
          static_cast<std::uint16_t>((data[12] << 8) | data[13]);
      if (ethertype != 0x0800) { ++skipped_; continue; }  // not IPv4
      ip_off = 14;
    }
    if (data.size() < ip_off + 20) { ++skipped_; continue; }
    const std::uint8_t* ip = data.data() + ip_off;
    if ((ip[0] >> 4) != 4) { ++skipped_; continue; }
    const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
    if (ihl < 20 || data.size() < ip_off + ihl + 4) { ++skipped_; continue; }
    const std::uint8_t proto = ip[9];
    if (proto != 6 && proto != 17) { ++skipped_; continue; }

    FiveTuple t;
    t.src_ip = (std::uint32_t(ip[12]) << 24) | (std::uint32_t(ip[13]) << 16) |
               (std::uint32_t(ip[14]) << 8) | ip[15];
    t.dst_ip = (std::uint32_t(ip[16]) << 24) | (std::uint32_t(ip[17]) << 16) |
               (std::uint32_t(ip[18]) << 8) | ip[19];
    t.protocol = proto;
    const std::uint8_t* l4 = ip + ihl;
    t.src_port = static_cast<std::uint16_t>((l4[0] << 8) | l4[1]);
    t.dst_port = static_cast<std::uint16_t>((l4[2] << 8) | l4[3]);

    const std::uint16_t ip_total =
        static_cast<std::uint16_t>((ip[2] << 8) | ip[3]);

    PcapPacket out;
    out.ts_nanos = static_cast<std::uint64_t>(ts_sec) * 1'000'000'000ULL +
                   (nanos_ ? ts_frac : static_cast<std::uint64_t>(ts_frac) * 1000ULL);
    out.record.tuple = t;
    out.record.size_bytes =
        ip_total >= 20
            ? ip_total
            : static_cast<std::uint16_t>(
                  orig_len > ip_off ? orig_len - ip_off : 20);
    const auto [it, inserted] =
        flow_ids_.emplace(t, static_cast<std::uint32_t>(flow_ids_.size()));
    out.record.flow_id = it->second;
    static_cast<void>(inserted);
    ++parsed_;
    return out;
  }
}

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : snaplen_(snaplen) {
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) throw PcapError("PcapWriter: cannot open " + path);
  std::uint8_t hdr[24] = {};
  const std::uint32_t magic = kMagicUsec;
  const std::uint16_t ver_major = 2, ver_minor = 4;
  const std::uint32_t link = kLinkEthernet;
  std::memcpy(hdr, &magic, 4);
  std::memcpy(hdr + 4, &ver_major, 2);
  std::memcpy(hdr + 6, &ver_minor, 2);
  std::memcpy(hdr + 16, &snaplen_, 4);
  std::memcpy(hdr + 20, &link, 4);
  if (std::fwrite(hdr, 1, sizeof hdr, file_) != sizeof hdr) {
    std::fclose(file_);
    file_ = nullptr;
    throw PcapError("PcapWriter: header write failed");
  }
}

PcapWriter::~PcapWriter() { close(); }

void PcapWriter::close() {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void PcapWriter::write(std::uint64_t ts_nanos, const PacketRecord& record) {
  if (!file_) throw std::logic_error("PcapWriter: write after close");

  // Frame = Ethernet(14) + IPv4(20) + L4 header (8 for UDP-sized stub) +
  // zero payload up to the IP total length, truncated at snaplen.
  const std::uint16_t ip_total =
      std::max<std::uint16_t>(record.size_bytes, 28);
  const std::uint32_t orig_len = 14u + ip_total;
  const std::uint32_t incl_len = std::min(orig_len, snaplen_);

  std::vector<std::uint8_t> frame(orig_len, 0);
  // Ethernet: synthetic MACs, EtherType IPv4.
  frame[12] = 0x08;
  frame[13] = 0x00;
  std::uint8_t* ip = frame.data() + 14;
  ip[0] = 0x45;  // v4, IHL 5
  ip[2] = static_cast<std::uint8_t>(ip_total >> 8);
  ip[3] = static_cast<std::uint8_t>(ip_total);
  ip[8] = 64;  // TTL
  ip[9] = record.tuple.protocol;
  const auto& t = record.tuple;
  ip[12] = static_cast<std::uint8_t>(t.src_ip >> 24);
  ip[13] = static_cast<std::uint8_t>(t.src_ip >> 16);
  ip[14] = static_cast<std::uint8_t>(t.src_ip >> 8);
  ip[15] = static_cast<std::uint8_t>(t.src_ip);
  ip[16] = static_cast<std::uint8_t>(t.dst_ip >> 24);
  ip[17] = static_cast<std::uint8_t>(t.dst_ip >> 16);
  ip[18] = static_cast<std::uint8_t>(t.dst_ip >> 8);
  ip[19] = static_cast<std::uint8_t>(t.dst_ip);
  std::uint8_t* l4 = ip + 20;
  l4[0] = static_cast<std::uint8_t>(t.src_port >> 8);
  l4[1] = static_cast<std::uint8_t>(t.src_port);
  l4[2] = static_cast<std::uint8_t>(t.dst_port >> 8);
  l4[3] = static_cast<std::uint8_t>(t.dst_port);

  std::uint8_t rec_hdr[16];
  const std::uint32_t ts_sec =
      static_cast<std::uint32_t>(ts_nanos / 1'000'000'000ULL);
  const std::uint32_t ts_usec =
      static_cast<std::uint32_t>((ts_nanos % 1'000'000'000ULL) / 1000ULL);
  std::memcpy(rec_hdr, &ts_sec, 4);
  std::memcpy(rec_hdr + 4, &ts_usec, 4);
  std::memcpy(rec_hdr + 8, &incl_len, 4);
  std::memcpy(rec_hdr + 12, &orig_len, 4);
  if (std::fwrite(rec_hdr, 1, sizeof rec_hdr, file_) != sizeof rec_hdr ||
      std::fwrite(frame.data(), 1, incl_len, file_) != incl_len) {
    throw PcapError("PcapWriter: record write failed");
  }
  ++written_;
}

PcapTrace::PcapTrace(std::string path) : path_(std::move(path)) {
  reader_ = std::make_unique<PcapReader>(path_);
}

std::optional<PacketRecord> PcapTrace::next() {
  if (error_) std::rethrow_exception(error_);
  std::optional<PcapPacket> pkt;
  try {
    pkt = reader_->next();
  } catch (const PcapError&) {
    error_ = std::current_exception();
    throw;
  }
  if (!pkt) return std::nullopt;
  return pkt->record;
}

void PcapTrace::reset() {
  reader_ = std::make_unique<PcapReader>(path_);
  error_ = nullptr;
}

}  // namespace laps
