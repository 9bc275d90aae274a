#include "sim/flow_audit.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "util/fileio.h"
#include "util/json_writer.h"

namespace laps {

std::size_t FlowAuditProbe::latency_bucket(std::int64_t latency_ns) {
  if (latency_ns <= 0) return 0;
  const int width = std::bit_width(static_cast<std::uint64_t>(latency_ns));
  if (width <= kLatencyShift) return 0;
  const std::size_t b = static_cast<std::size_t>(width - kLatencyShift);
  return std::min(b, kLatencyBuckets - 1);
}

std::int64_t FlowAuditProbe::latency_bucket_bound(std::size_t b) {
  if (b + 1 >= kLatencyBuckets) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return std::int64_t{1} << (b + kLatencyShift);
}

FlowAuditProbe::FlowAuditProbe() : FlowAuditProbe(Options{}) {}

FlowAuditProbe::FlowAuditProbe(Options options) : options_(options) {
  if (options_.top_k == 0) {
    throw std::invalid_argument("FlowAuditProbe: top_k must be >= 1");
  }
  // Deliberately uninitialized (make_unique would zero 32 MiB): untouched
  // pages stay virtual, and the cursor never reads ahead of itself.
  log_ = std::unique_ptr<Pending[]>(new Pending[kMaxPending]);
  cursor_ = log_.get();
  log_end_ = log_.get() + kMaxPending;
}

void FlowAuditProbe::on_run_begin(const RunInfo& info) {
  info_ = info;
  rows_.clear();
  row_of_.clear();
  cursor_ = log_.get();
}

void FlowAuditProbe::flush_pending() const {
#if defined(__SSE2__)
  // Drain the write-combining buffers of push()'s non-temporal stores
  // before reading the log back.
  _mm_sfence();
#endif
  for (const Pending* p = log_.get(); p != cursor_; ++p) {
    const std::uint32_t type = p->tag & 7u;
    const std::uint32_t payload = p->tag >> 3;
    if (p->gflow >= row_of_.size()) {
      row_of_.resize(std::max(std::size_t{p->gflow} + 1, row_of_.size() * 2));
    }
    std::uint32_t& row = row_of_[p->gflow];
    if (row == 0) {
      // A departure's key is not logged; its dispatch must have opened the
      // row. The engine dispatches every packet before it departs, so this
      // only fires on a probe-ordering bug: fail loudly over opening a row
      // with no key.
      if (type == kEvDeparture) {
        throw std::logic_error(
            "FlowAuditProbe: departure for a flow that was never dispatched");
      }
      rows_.emplace_back().key = p->a;
      row = static_cast<std::uint32_t>(rows_.size());
    }
    Entry& e = rows_[row - 1];
    switch (type) {
      case kEvDispatch:
        // One dispatch == one arrival that was not dropped; the migrated
        // flag rides in the payload bit.
        ++e.packets;
        e.migrations += payload;
        break;
      case kEvDrop:
        // One drop == one arrival that never reached a queue.
        ++e.packets;
        ++e.dropped;
        break;
      case kEvPenalty:
        if (payload & 1u) ++e.fm_penalties;
        if (payload & 2u) ++e.cold_cache;
        break;
      case kEvDeparture: {
        const auto latency = static_cast<std::int64_t>(p->a);
        ++e.delivered;
        e.out_of_order += payload;
        e.latency_sum += latency;
        if (latency > e.latency_max) e.latency_max = latency;
        ++e.latency_log2[latency_bucket(latency)];
        break;
      }
    }
  }
  cursor_ = log_.get();
}

void FlowAuditProbe::on_drop(TimeNs, const SimPacket& pkt, CoreId) {
  push(pkt.flow_key(), pkt.gflow, kEvDrop);
}

void FlowAuditProbe::on_dispatch(TimeNs, const SimPacket& pkt, CoreId,
                                 bool migrated) {
  push(pkt.flow_key(), pkt.gflow,
       kEvDispatch | (migrated ? 1u << 3 : 0u));
}

void FlowAuditProbe::on_service_start(TimeNs, const SimPacket& pkt, CoreId,
                                      TimeNs, bool fm_penalty,
                                      bool cold_cache) {
  if (!fm_penalty && !cold_cache) return;
  const std::uint32_t flags =
      (fm_penalty ? 1u : 0u) | (cold_cache ? 2u : 0u);
  push(pkt.flow_key(), pkt.gflow, kEvPenalty | (flags << 3));
}

void FlowAuditProbe::on_departure(TimeNs now, const SimPacket& pkt, CoreId,
                                  std::uint32_t new_ooo) {
  // new_ooo is bounded by the packets in flight for one flow (total queue
  // occupancy at most), far below the 29 payload bits.
  push(static_cast<std::uint64_t>(now - pkt.arrival), pkt.gflow,
       kEvDeparture | (new_ooo << 3));
}

std::vector<FlowAuditProbe::Entry> FlowAuditProbe::sorted_entries() const {
  std::vector<Entry> out = rows();
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.packets != b.packets) return a.packets > b.packets;
    return a.key < b.key;
  });
  return out;
}

FlowAuditSummary FlowAuditProbe::summary() const {
  FlowAuditSummary s;
  s.top_k = options_.top_k;
  std::vector<Entry> entries = rows();
  s.flows = entries.size();

  std::uint64_t packets_total = 0;
  std::uint64_t ooo_migrated = 0;
  for (const auto& e : entries) {
    packets_total += e.packets;
    s.ooo_total += e.out_of_order;
    if (e.migrations > 0) {
      ++s.migrated_flows;
      ooo_migrated += e.out_of_order;
    }
    if (e.out_of_order > 0) ++s.ooo_flows;
  }

  const std::size_t k = std::min(options_.top_k, entries.size());

  // Top-k by migration count (the flows the scheduler actually moved;
  // ties broken by OOO then key so the share is deterministic).
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<std::ptrdiff_t>(k),
                    entries.end(), [](const auto& a, const auto& b) {
                      if (a.migrations != b.migrations) {
                        return a.migrations > b.migrations;
                      }
                      if (a.out_of_order != b.out_of_order) {
                        return a.out_of_order > b.out_of_order;
                      }
                      return a.key < b.key;
                    });
  std::uint64_t ooo_topk = 0;
  for (std::size_t i = 0; i < k; ++i) ooo_topk += entries[i].out_of_order;

  // Top-k by packet count (heavy-hitter concentration).
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<std::ptrdiff_t>(k),
                    entries.end(), [](const auto& a, const auto& b) {
                      if (a.packets != b.packets) return a.packets > b.packets;
                      return a.key < b.key;
                    });
  std::uint64_t packets_topk = 0;
  for (std::size_t i = 0; i < k; ++i) packets_topk += entries[i].packets;

  if (s.ooo_total > 0) {
    s.ooo_migrated_share = static_cast<double>(ooo_migrated) /
                           static_cast<double>(s.ooo_total);
    s.ooo_topk_migrated_share = static_cast<double>(ooo_topk) /
                                static_cast<double>(s.ooo_total);
  }
  if (packets_total > 0) {
    s.topk_packet_share = static_cast<double>(packets_topk) /
                          static_cast<double>(packets_total);
  }
  return s;
}

std::string FlowAuditProbe::to_json() const {
  const std::vector<Entry> entries = sorted_entries();
  const std::size_t rows = options_.max_rows == 0
                               ? entries.size()
                               : std::min(options_.max_rows, entries.size());
  const FlowAuditSummary s = summary();

  // Same envelope as exp/harness artifact_json (schema laps-bench-v1):
  // existing artifact tooling parses the tables without special cases.
  JsonWriter w;
  w.begin_object();
  w.field("schema", "laps-bench-v1");
  w.field("tool", "flow_audit");
  w.field("scenario", info_.scenario);
  w.field("scheduler", info_.scheduler);
  // Row capping is explicit: the artifact says how many flows existed and
  // how many rows it kept, so "covered everything" is never assumed.
  w.field("flows_total", static_cast<std::uint64_t>(entries.size()));
  w.field("rows_emitted", static_cast<std::uint64_t>(rows));
  w.key("reports");
  w.begin_array();
  w.end_array();
  w.key("tables");
  w.begin_array();

  w.begin_object();
  w.field("title", "flow_audit_summary");
  static const char* const kSummaryHeaders[] = {
      "flows",      "migrated_flows",     "ooo_flows",
      "ooo_total",  "ooo_migrated_share", "ooo_topk_migrated_share",
      "top_k",      "topk_packet_share"};
  w.key("headers");
  w.begin_array();
  for (const char* h : kSummaryHeaders) w.value(h);
  w.end_array();
  w.key("rows");
  w.begin_array();
  w.begin_array();
  w.value(s.flows);
  w.value(s.migrated_flows);
  w.value(s.ooo_flows);
  w.value(s.ooo_total);
  w.value(s.ooo_migrated_share);
  w.value(s.ooo_topk_migrated_share);
  w.value(static_cast<std::uint64_t>(s.top_k));
  w.value(s.topk_packet_share);
  w.end_array();
  w.end_array();
  w.end_object();

  w.begin_object();
  w.field("title", "flow_audit");
  static const char* const kFlowHeaders[] = {
      "flow_key",   "packets",      "delivered",  "dropped",
      "migrations", "ooo",          "fm_penalties", "cold_cache",
      "lat_mean_ns", "lat_max_ns",  "lat_log2"};
  w.key("headers");
  w.begin_array();
  for (const char* h : kFlowHeaders) w.value(h);
  w.end_array();
  w.key("rows");
  w.begin_array();
  for (std::size_t i = 0; i < rows; ++i) {
    const Entry& e = entries[i];
    w.begin_array();
    w.value(e.key);
    w.value(e.packets);
    w.value(e.delivered);
    w.value(e.dropped);
    w.value(e.migrations);
    w.value(e.out_of_order);
    w.value(e.fm_penalties);
    w.value(e.cold_cache);
    w.value(e.delivered > 0 ? static_cast<double>(e.latency_sum) /
                                  static_cast<double>(e.delivered)
                            : 0.0);
    w.value(static_cast<std::int64_t>(e.latency_max));
    // The per-flow latency histogram: count per power-of-two bucket
    // (see latency_bucket_bound for the edges). Trailing
    // zero buckets are kept so every row has the same width.
    w.begin_array();
    for (const std::uint32_t c : e.latency_log2) w.value(c);
    w.end_array();
    w.end_array();
  }
  w.end_array();
  w.end_object();

  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

void FlowAuditProbe::write(const std::string& path) const {
  util::write_file_atomic(path, to_json(), "flow-audit artifact");
}

}  // namespace laps
