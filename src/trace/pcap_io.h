#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "trace/packet_record.h"
#include "util/flow.h"

namespace laps {

/// Classic libpcap file format support so the harness can replay *real*
/// captures (the paper's CAIDA/Auckland files are pcap) in place of the
/// synthetic substitutes — drop a file path anywhere a trace name is
/// accepted. Reader and writer are self-contained (no libpcap dependency,
/// which is unavailable offline).
///
/// Supported: both byte orders, microsecond (0xa1b2c3d4) and nanosecond
/// (0xa1b23c4d) timestamp magic, Ethernet (DLT_EN10MB) and raw-IP (DLT_RAW)
/// link types, IPv4 TCP/UDP (other packets are skipped and counted).

/// Typed error for unreadable or malformed pcap files (truncated headers,
/// implausible lengths, bad magic, I/O failures). Derives from
/// std::runtime_error so existing catch sites keep working, while callers
/// feeding untrusted captures can distinguish hostile input from other
/// failures. Reader errors carry structured fields — the file, the byte
/// offset where parsing stopped, and the reason — so a capture truncated
/// mid-run (the classic interrupted-tcpdump artifact) is reported as
/// "<file> at byte N: truncated record body", not a vague parse failure.
class PcapError : public std::runtime_error {
 public:
  /// Message-only form (writer-side and open failures with no offset).
  explicit PcapError(const std::string& what)
      : std::runtime_error(what), reason_(what) {}

  /// Located form: `path` + byte `offset` + `reason`.
  PcapError(const std::string& path, std::uint64_t offset,
            const std::string& reason)
      : std::runtime_error("PcapReader: " + path + " at byte " +
                           std::to_string(offset) + ": " + reason),
        path_(path),
        offset_(offset),
        reason_(reason),
        has_location_(true) {}

  const std::string& path() const { return path_; }
  std::uint64_t offset() const { return offset_; }
  const std::string& reason() const { return reason_; }
  /// True for reader errors that know where in the file they stopped.
  bool has_location() const { return has_location_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
  std::string reason_;
  bool has_location_ = false;
};

/// One on-disk packet with its capture timestamp, produced by PcapReader.
struct PcapPacket {
  std::uint64_t ts_nanos = 0;
  PacketRecord record;
};

/// Streaming pcap reader. Throws PcapError on malformed files; a file that
/// is only a valid global header (zero packets) is not an error — next()
/// returns nullopt immediately.
class PcapReader {
 public:
  explicit PcapReader(const std::string& path);
  ~PcapReader();

  PcapReader(const PcapReader&) = delete;
  PcapReader& operator=(const PcapReader&) = delete;

  /// Next IPv4 TCP/UDP packet, or nullopt at EOF. Non-IP packets are
  /// skipped transparently (see skipped()). Flow ids are dense, assigned in
  /// order of first appearance.
  std::optional<PcapPacket> next();

  /// Packets skipped because they were not parseable IPv4 TCP/UDP.
  std::uint64_t skipped() const { return skipped_; }
  /// Packets successfully returned so far.
  std::uint64_t parsed() const { return parsed_; }
  /// Link type from the file header (1 = Ethernet, 101 = raw IP).
  std::uint32_t link_type() const { return link_type_; }
  /// True if timestamps are nanosecond-resolution.
  bool nanosecond_ts() const { return nanos_; }
  /// Byte offset of the next unread record header (24 right after the
  /// global header). PcapError offsets come from here.
  std::uint64_t offset() const { return offset_; }

 private:
  std::uint32_t read_u32(const std::uint8_t* p) const;
  std::uint16_t read_u16(const std::uint8_t* p) const;

  std::FILE* file_ = nullptr;
  std::string path_;
  bool swap_ = false;    // file endianness differs from host
  bool nanos_ = false;   // nanosecond timestamp variant
  std::uint32_t link_type_ = 1;
  std::uint32_t snaplen_ = 65535;
  std::uint64_t offset_ = 0;  // bytes consumed; next record starts here
  std::uint64_t parsed_ = 0;
  std::uint64_t skipped_ = 0;
  std::unordered_map<FiveTuple, std::uint32_t, FiveTupleHash> flow_ids_;
};

/// Pcap writer emitting microsecond-resolution, host-order Ethernet files.
/// Synthesizes minimal Ethernet + IPv4 + TCP/UDP headers around each
/// 5-tuple; payload is zero-filled up to min(size, snaplen). Used to export
/// synthetic traces for external tools and to round-trip-test the reader.
class PcapWriter {
 public:
  explicit PcapWriter(const std::string& path, std::uint32_t snaplen = 96);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Appends one packet with capture timestamp `ts_nanos`.
  void write(std::uint64_t ts_nanos, const PacketRecord& record);

  /// Packets written so far.
  std::uint64_t written() const { return written_; }

  /// Flushes and closes; called by the destructor if not called earlier.
  void close();

 private:
  std::FILE* file_ = nullptr;
  std::uint32_t snaplen_;
  std::uint64_t written_ = 0;
};

/// Adapts PcapReader into the TraceSource interface (timestamps dropped,
/// matching the paper's use of traces purely as header streams).
class PcapTrace final : public TraceSource {
 public:
  explicit PcapTrace(std::string path);

  /// After a PcapError every later call rethrows that error until reset():
  /// a second read of a capture truncated mid-record would otherwise report
  /// a clean end of trace and silently shorten it.
  std::optional<PacketRecord> next() override;
  void reset() override;
  std::string name() const override { return path_; }

 private:
  std::string path_;
  std::unique_ptr<PcapReader> reader_;
  std::exception_ptr error_;  ///< the read error that ended the stream
};

}  // namespace laps
