// Tests for src/trace: synthetic traces, the trace registry, the flow-size
// analyzer (Fig. 2 machinery), and pcap reader/writer round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "exp/trace_store.h"
#include "trace/flow_stats.h"
#include "trace/pcap_io.h"
#include "trace/synthetic.h"
#include "traffic/generator.h"

namespace laps {
namespace {

// ------------------------------------------------------- SyntheticTrace ---

TEST(SyntheticTrace, RejectsBadSpec) {
  SyntheticTraceSpec spec;
  spec.size_weights = {1.0};  // mismatched with size_bytes
  EXPECT_THROW(SyntheticTrace{spec}, std::invalid_argument);
  SyntheticTraceSpec bursty;
  bursty.burstiness = 1.0;
  EXPECT_THROW(SyntheticTrace{bursty}, std::invalid_argument);
}

TEST(SyntheticTrace, DeterministicReplay) {
  SyntheticTraceSpec spec;
  spec.num_flows = 1000;
  spec.seed = 5;
  SyntheticTrace a(spec), b(spec);
  for (int i = 0; i < 1000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_TRUE(ra && rb);
    ASSERT_EQ(ra->flow_id, rb->flow_id);
    ASSERT_EQ(ra->tuple, rb->tuple);
    ASSERT_EQ(ra->size_bytes, rb->size_bytes);
  }
}

TEST(SyntheticTrace, ResetReplaysIdentically) {
  auto trace = make_trace("auck1");
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 500; ++i) first.push_back(trace->next()->flow_id);
  trace->reset();
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(trace->next()->flow_id, first[i]) << "packet " << i;
  }
}

TEST(SyntheticTrace, TuplesAreUniquePerFlow) {
  SyntheticTraceSpec spec;
  spec.num_flows = 20'000;
  SyntheticTrace trace(spec);
  std::set<FiveTuple> tuples;
  for (std::uint32_t f = 0; f < spec.num_flows; f += 97) {
    tuples.insert(trace.tuple_of(f));
  }
  EXPECT_EQ(tuples.size(), (spec.num_flows + 96) / 97);
}

TEST(SyntheticTrace, TupleStableAcrossInstances) {
  const auto spec = trace_spec("caida1");
  SyntheticTrace a(spec), b(spec);
  EXPECT_EQ(a.tuple_of(123), b.tuple_of(123));
}

TEST(SyntheticTrace, RecordsMatchTupleOf) {
  // Without churn, rank == flow_id, so tuple_of reconstructs every header.
  SyntheticTraceSpec spec = trace_spec("auck2");
  spec.churn_per_packet = 0.0;
  SyntheticTrace trace(spec);
  for (int i = 0; i < 200; ++i) {
    const auto rec = trace.next();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec->tuple, trace.tuple_of(rec->flow_id));
  }
}

TEST(SyntheticTrace, FlowIdsWithinHintWithoutChurn) {
  SyntheticTraceSpec spec = trace_spec("auck1");
  spec.churn_per_packet = 0.0;
  SyntheticTrace trace(spec);
  const std::size_t hint = trace.flow_count_hint();
  EXPECT_GT(hint, 0u);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_LT(trace.next()->flow_id, hint);
  }
}

TEST(SyntheticTrace, ChurnRetiresIdentities) {
  SyntheticTraceSpec spec = trace_spec("caida1");
  SyntheticTrace trace(spec);
  // Churny traces report an unknown flow population...
  EXPECT_EQ(trace.flow_count_hint(), 0u);
  // ...and eventually emit ids beyond the rank space (retired identities
  // get fresh dense ids, so downstream per-flow state sees new flows).
  bool saw_fresh_id = false;
  for (int i = 0; i < 300'000 && !saw_fresh_id; ++i) {
    saw_fresh_id = trace.next()->flow_id >= spec.num_flows;
  }
  EXPECT_TRUE(saw_fresh_id);
}

TEST(SyntheticTrace, SizesComeFromConfiguredMix) {
  SyntheticTraceSpec spec;
  spec.size_bytes = {100, 200};
  spec.size_weights = {0.5, 0.5};
  SyntheticTrace trace(spec);
  for (int i = 0; i < 1000; ++i) {
    const auto s = trace.next()->size_bytes;
    ASSERT_TRUE(s == 100 || s == 200);
  }
}

TEST(SyntheticTrace, BurstinessRepeatsFlows) {
  SyntheticTraceSpec calm;
  calm.num_flows = 100'000;
  calm.zipf_alpha = 1.01;
  calm.burstiness = 0.0;
  SyntheticTraceSpec bursty = calm;
  bursty.burstiness = 0.8;

  auto repeats = [](SyntheticTrace& t) {
    int r = 0;
    std::uint32_t prev = ~0u;
    for (int i = 0; i < 20'000; ++i) {
      const auto rec = t.next();
      r += rec->flow_id == prev;
      prev = rec->flow_id;
    }
    return r;
  };
  SyntheticTrace a(calm), b(bursty);
  EXPECT_GT(repeats(b), repeats(a) + 5000);
}

TEST(SyntheticTrace, ZipfSkewConcentratesTraffic) {
  // The Fig. 2 premise: the head flows carry a disproportionate share.
  FlowStatsAnalyzer stats;
  auto trace = make_trace("auck1");
  stats.consume(*trace, 200'000);
  EXPECT_GT(stats.top_share(16), 0.15);
  EXPECT_LT(stats.top_share(16), 0.95);
}

TEST(SyntheticTrace, CaidaHasMoreActiveFlowsThanAuckland) {
  // The property that drives Fig. 8a's annex-size requirement.
  FlowStatsAnalyzer caida, auck;
  auto ct = make_trace("caida1");
  auto at = make_trace("auck1");
  caida.consume(*ct, 200'000);
  auck.consume(*at, 200'000);
  EXPECT_GT(caida.distinct_flows(), 2 * auck.distinct_flows());
}

// --------------------------------------------------------------- Registry ---

TEST(TraceRegistry, AllNamesConstruct) {
  for (const std::string& name : trace_registry_names()) {
    auto trace = make_trace(name);
    EXPECT_EQ(trace->name(), name);
    EXPECT_TRUE(trace->next().has_value());
  }
}

TEST(TraceRegistry, HasPaperTraceCount) {
  // 6 CAIDA-like (Tables I+V) + 8 Auckland-like (Table II).
  EXPECT_EQ(trace_registry_names().size(), 14u);
}

TEST(TraceRegistry, UnknownNameThrows) {
  EXPECT_THROW(trace_spec("nosuch"), std::out_of_range);
}

TEST(TraceRegistry, DistinctSeedsProduceDistinctStreams) {
  auto a = make_trace("caida1");
  auto b = make_trace("caida2");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a->next()->flow_id == b->next()->flow_id;
  }
  EXPECT_LT(same, 50);
}

// ------------------------------------------------------ FlowStatsAnalyzer ---

TEST(FlowStats, EmptyAnalyzer) {
  FlowStatsAnalyzer stats;
  EXPECT_EQ(stats.total_packets(), 0u);
  EXPECT_EQ(stats.distinct_flows(), 0u);
  EXPECT_EQ(stats.top_share(16), 0.0);
  EXPECT_TRUE(stats.by_rank().empty());
}

TEST(FlowStats, CountsPacketsAndBytes) {
  FlowStatsAnalyzer stats;
  PacketRecord rec;
  rec.flow_id = 3;
  rec.size_bytes = 100;
  stats.record(rec);
  stats.record(rec);
  rec.flow_id = 1;
  rec.size_bytes = 50;
  stats.record(rec);
  EXPECT_EQ(stats.total_packets(), 3u);
  EXPECT_EQ(stats.total_bytes(), 250u);
  EXPECT_EQ(stats.distinct_flows(), 2u);
  const auto ranked = stats.by_rank();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].flow_id, 3u);
  EXPECT_EQ(ranked[0].packets, 2u);
  EXPECT_EQ(ranked[1].flow_id, 1u);
}

TEST(FlowStats, TopShareOfSingleFlowIsOne) {
  FlowStatsAnalyzer stats;
  PacketRecord rec;
  rec.flow_id = 0;
  for (int i = 0; i < 10; ++i) stats.record(rec);
  EXPECT_DOUBLE_EQ(stats.top_share(1), 1.0);
  EXPECT_DOUBLE_EQ(stats.top_share(100), 1.0);
}

TEST(FlowStats, ResetClears) {
  FlowStatsAnalyzer stats;
  PacketRecord rec;
  stats.record(rec);
  stats.reset();
  EXPECT_EQ(stats.total_packets(), 0u);
}

// ----------------------------------------------------------------- Pcap ---

std::string temp_pcap_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("laps_test_" + tag + ".pcap"))
      .string();
}

TEST(Pcap, WriterReaderRoundTrip) {
  const std::string path = temp_pcap_path("roundtrip");
  SyntheticTraceSpec spec;
  spec.num_flows = 100;
  spec.seed = 9;
  SyntheticTrace trace(spec);

  std::vector<PacketRecord> written;
  {
    PcapWriter writer(path, /*snaplen=*/128);
    for (int i = 0; i < 500; ++i) {
      const auto rec = trace.next();
      writer.write(static_cast<std::uint64_t>(i) * 1000, *rec);
      written.push_back(*rec);
    }
    EXPECT_EQ(writer.written(), 500u);
  }

  PcapReader reader(path);
  for (int i = 0; i < 500; ++i) {
    const auto pkt = reader.next();
    ASSERT_TRUE(pkt) << "packet " << i;
    EXPECT_EQ(pkt->record.tuple, written[i].tuple) << "packet " << i;
    EXPECT_EQ(pkt->record.size_bytes,
              std::max<std::uint16_t>(written[i].size_bytes, 28));
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.parsed(), 500u);
  EXPECT_EQ(reader.skipped(), 0u);
  std::filesystem::remove(path);
}

TEST(Pcap, TimestampsPreservedAtUsecResolution) {
  const std::string path = temp_pcap_path("timestamps");
  {
    PcapWriter writer(path);
    PacketRecord rec;
    rec.tuple = FiveTuple{1, 2, 3, 4, 6};
    writer.write(1'234'567'890'123ULL, rec);  // sub-usec part is dropped
  }
  PcapReader reader(path);
  const auto pkt = reader.next();
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->ts_nanos, 1'234'567'890'000ULL);  // truncated to usec
  std::filesystem::remove(path);
}

TEST(Pcap, FlowIdsAreDenseFirstAppearance) {
  const std::string path = temp_pcap_path("flowids");
  {
    PcapWriter writer(path);
    PacketRecord a, b;
    a.tuple = FiveTuple{1, 2, 3, 4, 6};
    b.tuple = FiveTuple{5, 6, 7, 8, 17};
    writer.write(0, a);
    writer.write(1, b);
    writer.write(2, a);
  }
  PcapReader reader(path);
  EXPECT_EQ(reader.next()->record.flow_id, 0u);
  EXPECT_EQ(reader.next()->record.flow_id, 1u);
  EXPECT_EQ(reader.next()->record.flow_id, 0u);
  std::filesystem::remove(path);
}

TEST(Pcap, RejectsGarbageFile) {
  const std::string path = temp_pcap_path("garbage");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a pcap file at all, not even close", f);
    std::fclose(f);
  }
  EXPECT_THROW(PcapReader reader(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Pcap, RejectsMissingFile) {
  EXPECT_THROW(PcapReader reader("/nonexistent/file.pcap"),
               std::runtime_error);
}

// ------------------------------------------------- Pcap hostile corpus ---
// Malformed and adversarial files must produce typed PcapError throws (or
// clean EOF for a packetless file) — never UB, never attacker-sized
// allocations.

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(b.data(), 1, b.size(), f);
  std::fclose(f);
}

/// Little-endian usec-magic global header with the given snaplen.
std::vector<std::uint8_t> global_header(std::uint32_t snaplen = 65535) {
  std::vector<std::uint8_t> out(24, 0);
  const std::uint32_t magic = 0xA1B2C3D4;
  const std::uint32_t link = 1;  // Ethernet
  std::memcpy(out.data(), &magic, 4);
  std::memcpy(out.data() + 16, &snaplen, 4);
  std::memcpy(out.data() + 20, &link, 4);
  return out;
}

void append_u32s(std::vector<std::uint8_t>& out,
                 std::initializer_list<std::uint32_t> vals) {
  for (std::uint32_t v : vals) {
    const std::size_t at = out.size();
    out.resize(at + 4);
    std::memcpy(out.data() + at, &v, 4);
  }
}

TEST(PcapHostile, TruncatedGlobalHeader) {
  const std::string path = temp_pcap_path("trunc_global");
  auto bytes = global_header();
  bytes.resize(10);
  write_bytes(path, bytes);
  EXPECT_THROW(PcapReader reader(path), PcapError);
  std::filesystem::remove(path);
}

TEST(PcapHostile, BadMagicIsTyped) {
  const std::string path = temp_pcap_path("bad_magic");
  auto bytes = global_header();
  bytes[0] = 0xDE;
  bytes[1] = 0xAD;
  write_bytes(path, bytes);
  EXPECT_THROW(PcapReader reader(path), PcapError);
  std::filesystem::remove(path);
}

TEST(PcapHostile, ZeroPacketFileIsCleanEof) {
  const std::string path = temp_pcap_path("zero_packets");
  write_bytes(path, global_header());
  PcapReader reader(path);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());  // stays EOF, no throw
  EXPECT_EQ(reader.parsed(), 0u);
  EXPECT_EQ(reader.skipped(), 0u);
  std::filesystem::remove(path);
}

TEST(PcapHostile, TruncatedRecordHeader) {
  const std::string path = temp_pcap_path("trunc_rec_hdr");
  auto bytes = global_header();
  append_u32s(bytes, {1, 0});  // 8 of the 16 record-header bytes
  write_bytes(path, bytes);
  PcapReader reader(path);
  EXPECT_THROW(reader.next(), PcapError);
  std::filesystem::remove(path);
}

TEST(PcapHostile, TruncatedRecordBody) {
  const std::string path = temp_pcap_path("trunc_rec_body");
  auto bytes = global_header();
  append_u32s(bytes, {1, 0, 100, 100});  // claims 100 bytes of data
  bytes.push_back(0x45);                 // delivers 1
  write_bytes(path, bytes);
  PcapReader reader(path);
  EXPECT_THROW(reader.next(), PcapError);
  std::filesystem::remove(path);
}

TEST(PcapHostile, AbsurdInclLenRejectedBeforeAllocation) {
  const std::string path = temp_pcap_path("absurd_incl");
  auto bytes = global_header();
  append_u32s(bytes, {1, 0, 0xFFFFFFF0u, 0xFFFFFFF0u});
  write_bytes(path, bytes);
  PcapReader reader(path);
  EXPECT_THROW(reader.next(), PcapError);
  std::filesystem::remove(path);
}

TEST(PcapHostile, HostileSnaplenCannotWrapTheBound) {
  // snaplen near UINT32_MAX once made `snaplen + 65536` wrap to a tiny
  // bound in 32-bit arithmetic; the bound must stay sane (clamped to
  // libpcap's MAXIMUM_SNAPLEN) whatever the header claims.
  const std::string path = temp_pcap_path("hostile_snaplen");
  auto bytes = global_header(0xFFFFFFF0u);
  append_u32s(bytes, {1, 0, 400000, 400000});  // > 262144 + 65536
  write_bytes(path, bytes);
  PcapReader reader(path);
  EXPECT_THROW(reader.next(), PcapError);
  std::filesystem::remove(path);
}

TEST(PcapHostile, RuntHeadersAreSkippedNotFatal) {
  const std::string path = temp_pcap_path("runt");
  auto bytes = global_header();
  // Record 1: 14-byte Ethernet header claiming IPv4 but no IP header.
  append_u32s(bytes, {1, 0, 14, 14});
  const std::uint8_t eth[14] = {0, 0, 0, 0, 0, 0, 0,
                                0, 0, 0, 0, 0, 0x08, 0x00};
  bytes.insert(bytes.end(), eth, eth + 14);
  // Record 2: truncated IPv4 header (IHL says 20, only 16 present).
  append_u32s(bytes, {2, 0, 30, 30});
  std::vector<std::uint8_t> partial(30, 0);
  partial[12] = 0x08;
  partial[14] = 0x45;  // v4, IHL 5 — but the frame ends inside the header
  bytes.insert(bytes.end(), partial.begin(), partial.end());
  write_bytes(path, bytes);
  PcapReader reader(path);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.skipped(), 2u);
  std::filesystem::remove(path);
}

TEST(Pcap, SkipsNonIpPackets) {
  const std::string path = temp_pcap_path("nonip");
  {
    // Hand-craft a file: one ARP frame then one UDP frame via the writer's
    // format. Easiest: write a valid file, then append an ARP record.
    PcapWriter writer(path);
    PacketRecord rec;
    rec.tuple = FiveTuple{1, 2, 3, 4, 17};
    writer.write(0, rec);
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    // Record header: ts=1, incl=orig=14 (Ethernet only, EtherType ARP).
    const std::uint32_t hdr[4] = {1, 0, 14, 14};
    std::fwrite(hdr, 4, 4, f);
    const std::uint8_t arp[14] = {0, 0, 0, 0, 0, 0, 0,
                                  0, 0, 0, 0, 0, 0x08, 0x06};
    std::fwrite(arp, 1, 14, f);
    std::fclose(f);
  }
  PcapReader reader(path);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.skipped(), 1u);
  std::filesystem::remove(path);
}

// The classic interrupted-tcpdump artifact: a capture that is valid up to
// some record, then stops mid-record. The error must carry the file, the
// byte offset of the bad record, and a human reason — and it must stay an
// error when the trace is replayed through the sharing layer, not decay
// into a clean (shorter!) end-of-trace.

TEST(PcapHostile, TruncationErrorCarriesFileOffsetReason) {
  const std::string path = temp_pcap_path("typed_trunc");
  auto bytes = global_header();
  append_u32s(bytes, {1, 0, 100, 100});  // claims 100 bytes of data
  bytes.push_back(0x45);                 // delivers 1
  write_bytes(path, bytes);
  PcapReader reader(path);
  try {
    reader.next();
    FAIL() << "truncated body did not throw";
  } catch (const PcapError& e) {
    EXPECT_TRUE(e.has_location());
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.offset(), 24u);  // the bad record starts after the header
    EXPECT_NE(e.reason().find("truncated record body"), std::string::npos)
        << e.reason();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("at byte 24"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(PcapHostile, ErrorOffsetPointsAtTheBadRecordNotTheFileStart) {
  const std::string path = temp_pcap_path("typed_offset");
  auto bytes = global_header();
  // Good record: 14-byte ARP frame (skipped, but consumed cleanly).
  append_u32s(bytes, {1, 0, 14, 14});
  const std::uint8_t arp[14] = {0, 0, 0, 0, 0, 0, 0,
                                0, 0, 0, 0, 0, 0x08, 0x06};
  bytes.insert(bytes.end(), arp, arp + 14);
  // Bad record: only 8 of the 16 header bytes.
  append_u32s(bytes, {2, 0});
  write_bytes(path, bytes);
  PcapReader reader(path);
  try {
    reader.next();
    FAIL() << "truncated header did not throw";
  } catch (const PcapError& e) {
    EXPECT_TRUE(e.has_location());
    EXPECT_EQ(e.offset(), 24u + 16u + 14u);  // global hdr + record 1
    EXPECT_NE(e.reason().find("truncated record header"), std::string::npos)
        << e.reason();
  }
  std::filesystem::remove(path);
}

TEST(PcapHostile, MessageOnlyErrorsReportNoLocation) {
  try {
    PcapReader reader("/nonexistent/file.pcap");
    FAIL() << "missing file did not throw";
  } catch (const PcapError& e) {
    EXPECT_FALSE(e.has_location());
  }
}

/// Yields `good` synthetic records, then throws PcapError forever — the
/// in-memory shape of a capture truncated mid-run.
class TruncatedSource final : public TraceSource {
 public:
  TruncatedSource(std::size_t good, std::string path)
      : good_(good), path_(std::move(path)), trace_(SyntheticTraceSpec{}) {}

  std::optional<PacketRecord> next() override {
    if (emitted_ >= good_) {
      throw PcapError(path_, 24 + 30 * good_, "truncated record body");
    }
    ++emitted_;
    return trace_.next();
  }
  void reset() override { throw std::logic_error("not resettable"); }
  std::string name() const override { return path_; }

 private:
  std::size_t good_;
  std::size_t emitted_ = 0;
  std::string path_;
  SyntheticTrace trace_;
};

TEST(PcapTrace, ReadErrorRepeatsUntilReset) {
  // Three good records, then one whose header promises 100 bytes and whose
  // body holds 1: the classic capture cut off mid-write.
  const std::string path = temp_pcap_path("sticky");
  {
    SyntheticTraceSpec spec;
    spec.num_flows = 10;
    SyntheticTrace synth(spec);
    PcapWriter writer(path);
    for (int i = 0; i < 3; ++i) writer.write(i, *synth.next());
  }
  std::uint64_t cut = 0;
  {
    PcapReader reader(path);
    while (reader.next()) {
    }
    cut = reader.offset();
  }
  {
    std::vector<std::uint8_t> tail;
    append_u32s(tail, {9, 0, 100, 100});
    tail.push_back(0x45);
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(tail.data()),
              static_cast<std::streamsize>(tail.size()));
  }

  PcapTrace trace(path);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(trace.next().has_value()) << i;
    // The error repeats on every later read, not a clean EOF.
    for (int read = 0; read < 2; ++read) {
      try {
        trace.next();
        FAIL() << "pass " << pass << " read " << read
               << " past the truncated record returned a value or EOF";
      } catch (const PcapError& e) {
        EXPECT_EQ(e.path(), path);
        EXPECT_EQ(e.offset(), cut);
      }
    }
    trace.reset();  // rereads the file from its first record
  }
  std::filesystem::remove(path);
}

TEST(TraceStore, TruncatedPcapFileSurfacesTypedErrorThroughTheStore) {
  const std::string path = temp_pcap_path("store_trunc");
  auto bytes = global_header();
  append_u32s(bytes, {1, 0, 100, 100});
  bytes.push_back(0x45);
  write_bytes(path, bytes);

  TraceStore store;
  store.register_trace("capture",
                       [path] { return std::make_shared<PcapTrace>(path); });
  auto cursor = store.open("capture");
  try {
    cursor->next();
    FAIL() << "truncated capture did not throw through the store";
  } catch (const PcapError& e) {
    EXPECT_TRUE(e.has_location());
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.offset(), 24u);
  }
  // Still an error on the next read — and on a fresh cursor.
  EXPECT_THROW(cursor->next(), PcapError);
  EXPECT_THROW(store.open("capture")->next(), PcapError);
  std::filesystem::remove(path);
}

TEST(ReplayStream, PropagatesTraceTruncationAsTypedError) {
  // A truncated trace feeding the generator must fail ReplayStream::record
  // with the typed error, not produce a silently shorter arrival sequence.
  TraceStore store;
  store.register_trace("truncated", [] {
    return std::make_shared<TruncatedSource>(3, "truncated.pcap");
  });
  ServiceTraffic s;
  s.path = ServicePath::kIpForward;
  s.rate = HoltWintersParams{5.0, 0.0, 0.0, 10.0, 0.0};  // plenty of packets
  s.trace = store.open("truncated");
  auto drain = [&s] {
    PacketGenerator gen({s}, 3, 0.01);
    ReplayStream::record(gen);
  };
  EXPECT_THROW(drain(), PcapError);
}

TEST(PcapTrace, ActsAsTraceSource) {
  const std::string path = temp_pcap_path("source");
  SyntheticTraceSpec spec;
  spec.num_flows = 50;
  SyntheticTrace synth(spec);
  {
    PcapWriter writer(path);
    for (int i = 0; i < 100; ++i) writer.write(i, *synth.next());
  }
  PcapTrace trace(path);
  int n = 0;
  while (trace.next()) ++n;
  EXPECT_EQ(n, 100);
  // reset() reopens and replays.
  trace.reset();
  EXPECT_TRUE(trace.next().has_value());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace laps
