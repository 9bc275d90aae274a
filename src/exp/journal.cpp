#include "exp/journal.h"

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "exp/experiment.h"
#include "util/crc.h"
#include "util/fileio.h"

namespace laps {

namespace {

// ---------------------------------------------------------------- encoding --

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_double(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out.append(s);
}

/// Bounds-checked reader over a decoded payload; any overrun means the
/// payload was damaged in a way the line CRC did not catch (or the record
/// was produced by an incompatible build), so it throws JournalError.
class Reader {
 public:
  Reader(const std::string& data, const std::string& path, std::size_t line)
      : data_(data), path_(path), line_(line) {}

  std::uint64_t u64() {
    if (pos_ + 8 > data_.size()) fail("payload truncated");
    std::uint64_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint64_t n = u64();
    if (n > data_.size() - pos_) fail("payload truncated");
    std::string s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  void expect_end() const {
    if (pos_ != data_.size()) fail("payload has trailing bytes");
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw JournalError(path_, line_, why);
  }

 private:
  const std::string& data_;
  const std::string& path_;
  std::size_t line_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------------- hex --

constexpr char kHex[] = "0123456789abcdef";

std::string to_hex(const std::string& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::string hex_field(std::size_t width, std::uint64_t v) {
  std::string out(width, '0');
  for (std::size_t i = width; i-- > 0 && v != 0; v >>= 4) {
    out[i] = kHex[v & 0xF];
  }
  return out;
}

std::uint32_t line_crc(const std::string& prefix) {
  return crc32_ieee(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(prefix.data()), prefix.size()));
}

// ----------------------------------------------------------- line splitting --

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t space = line.find(' ', start);
    if (space == std::string::npos) space = line.size();
    out.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return out;
}

bool parse_hex_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  out = 0;
  for (const char c : s) {
    const int n = hex_nibble(c);
    if (n < 0) return false;
    out = (out << 4) | static_cast<std::uint64_t>(n);
  }
  return true;
}

bool parse_dec_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  out = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

}  // namespace

// -------------------------------------------------------------------- error --

JournalError::JournalError(const std::string& path, std::size_t line,
                           const std::string& reason)
    : std::runtime_error("journal " + path + ":" + std::to_string(line) +
                         ": " + reason),
      path_(path),
      line_(line),
      reason_(reason) {}

// -------------------------------------------------------------- fingerprint --

std::uint64_t job_fingerprint(std::uint64_t plan_seed, std::uint64_t salt,
                              std::size_t index, const ExperimentJob& job) {
  auto hash_str = [](const std::string& s) {
    return static_cast<std::uint64_t>(crc32_ieee(std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(s.data()), s.size()))) |
           (static_cast<std::uint64_t>(s.size()) << 32);
  };
  std::uint64_t h = mix64(plan_seed);
  h = mix64(h ^ salt);
  h = mix64(h ^ static_cast<std::uint64_t>(index));
  h = mix64(h ^ hash_str(job.scenario));
  h = mix64(h ^ hash_str(job.scheduler));
  h = mix64(h ^ job.seed);
  return h;
}

// --------------------------------------------------------- report round-trip --

std::string encode_report(const SimReport& r) {
  std::string out;
  put_string(out, r.scenario);
  put_string(out, r.scheduler);
  put_i64(out, r.sim_time);
  put_u64(out, r.offered);
  for (const std::uint64_t v : r.offered_by_service) put_u64(out, v);
  put_u64(out, r.dropped);
  for (const std::uint64_t v : r.dropped_by_service) put_u64(out, v);
  put_u64(out, r.delivered);
  put_u64(out, r.in_flight_at_end);
  put_u64(out, r.out_of_order);
  put_u64(out, r.flow_migrations);
  put_u64(out, r.fm_penalties);
  put_u64(out, r.cold_cache_events);
  put_double(out, r.mean_core_utilization);
  // Histogram exact state: count/sum/max plus the occupied buckets.
  put_u64(out, r.latency_ns.count());
  put_i64(out, r.latency_ns.sum());
  put_i64(out, r.latency_ns.max());
  const std::vector<Histogram::Bucket> buckets = r.latency_ns.buckets();
  put_u64(out, buckets.size());
  for (const Histogram::Bucket& b : buckets) {
    put_i64(out, b.upper_bound);
    put_u64(out, b.count);
  }
  put_u64(out, r.extra.size());
  for (const auto& [key, value] : r.extra) {  // std::map: sorted, stable
    put_string(out, key);
    put_double(out, value);
  }
  return out;
}

SimReport decode_report(const std::string& payload, const std::string& path,
                        std::size_t line) {
  Reader in(payload, path, line);
  SimReport r;
  r.scenario = in.str();
  r.scheduler = in.str();
  r.sim_time = in.i64();
  r.offered = in.u64();
  for (std::uint64_t& v : r.offered_by_service) v = in.u64();
  r.dropped = in.u64();
  for (std::uint64_t& v : r.dropped_by_service) v = in.u64();
  r.delivered = in.u64();
  r.in_flight_at_end = in.u64();
  r.out_of_order = in.u64();
  r.flow_migrations = in.u64();
  r.fm_penalties = in.u64();
  r.cold_cache_events = in.u64();
  r.mean_core_utilization = in.f64();
  const std::uint64_t count = in.u64();
  const std::int64_t sum = in.i64();
  const std::int64_t max = in.i64();
  const std::uint64_t nbuckets = in.u64();
  if (nbuckets > payload.size()) in.fail("bucket count implausible");
  std::vector<Histogram::Bucket> buckets;
  buckets.reserve(nbuckets);
  for (std::uint64_t i = 0; i < nbuckets; ++i) {
    Histogram::Bucket b;
    b.upper_bound = in.i64();
    b.count = in.u64();
    buckets.push_back(b);
  }
  try {
    r.latency_ns = Histogram::restore(buckets, count, sum, max);
  } catch (const std::invalid_argument& e) {
    in.fail(e.what());
  }
  const std::uint64_t nextra = in.u64();
  if (nextra > payload.size()) in.fail("extra count implausible");
  for (std::uint64_t i = 0; i < nextra; ++i) {
    std::string key = in.str();
    const double value = in.f64();
    r.extra.emplace(std::move(key), value);
  }
  in.expect_end();
  return r;
}

// ------------------------------------------------------------------ journal --

std::string ExperimentJournal::header_line() const {
  std::string line = "laps-journal-v1 " + hex_field(16, config_.plan_seed) +
                     " " + std::to_string(config_.num_jobs) + " " +
                     hex_field(16, config_.salt);
  line += " " + hex_field(8, line_crc(line));
  return line;
}

ExperimentJournal::ExperimentJournal(Config config, bool resume)
    : config_(std::move(config)) {
  if (config_.path.empty()) {
    throw std::invalid_argument("ExperimentJournal: empty path");
  }
  std::string content;
  if (resume && util::read_file_if_exists(config_.path, content)) {
    std::size_t lineno = 0;
    std::size_t start = 0;
    bool saw_header = false;
    while (start < content.size()) {
      ++lineno;
      std::size_t end = content.find('\n', start);
      const bool torn = end == std::string::npos;
      if (torn) end = content.size();
      const std::string line = content.substr(start, end - start);
      start = end + 1;
      if (line.empty()) continue;

      // Validate the line CRC first. A bad CRC on the final (possibly torn)
      // line means the process died mid-append: drop it and rerun that job.
      // A bad CRC anywhere else is real corruption — refuse to resume.
      const std::size_t crc_at = line.find_last_of(' ');
      std::uint64_t stored_crc = 0;
      const bool crc_ok =
          crc_at != std::string::npos &&
          parse_hex_u64(line.substr(crc_at + 1), stored_crc) &&
          line.size() - crc_at - 1 == 8 &&
          stored_crc == line_crc(line.substr(0, crc_at));
      const bool final_line = start > content.size();
      if (!crc_ok) {
        if (final_line) break;  // torn tail: tolerated
        throw JournalError(config_.path, lineno, "bad record checksum");
      }

      const std::vector<std::string> fields = split_fields(line);
      if (!saw_header) {
        if (line != header_line()) {
          throw JournalError(
              config_.path, lineno,
              "header does not match this plan (different plan seed, grid "
              "size, or flags: every flag but --jobs, --journal, --resume "
              "and --json must be given as when the journal was written); "
              "delete the journal or rerun without --resume");
        }
        saw_header = true;
        continue;
      }
      if (fields.size() != 5 || fields[0] != "J1") {
        throw JournalError(config_.path, lineno, "malformed record");
      }
      std::uint64_t fingerprint = 0;
      std::uint64_t index = 0;
      if (!parse_hex_u64(fields[1], fingerprint) ||
          !parse_dec_u64(fields[2], index) || index >= config_.num_jobs) {
        throw JournalError(config_.path, lineno, "malformed record");
      }
      const std::string& hex = fields[3];
      if (hex.size() % 2 != 0) {
        throw JournalError(config_.path, lineno, "odd payload length");
      }
      std::string payload;
      payload.reserve(hex.size() / 2);
      for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = hex_nibble(hex[i]);
        const int lo = hex_nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) {
          throw JournalError(config_.path, lineno, "bad payload hex");
        }
        payload += static_cast<char>((hi << 4) | lo);
      }
      Entry entry;
      entry.fingerprint = fingerprint;
      entry.report = decode_report(payload, config_.path, lineno);
      entry.line = line;
      entries_[static_cast<std::size_t>(index)] = std::move(entry);
    }
    if (!entries_.empty() && !saw_header) {
      throw JournalError(config_.path, 1, "missing header");
    }
  }
  // Write the (possibly pruned) journal back so the on-disk state always
  // starts from a valid header — also creates the file on a fresh run.
  std::lock_guard<std::mutex> lock(mutex_);
  rewrite_locked();
}

const SimReport* ExperimentJournal::restore(std::size_t index,
                                            std::uint64_t fingerprint) const {
  const auto it = entries_.find(index);
  if (it == entries_.end() || it->second.fingerprint != fingerprint) {
    return nullptr;
  }
  return &it->second.report;
}

void ExperimentJournal::record(std::size_t index, std::uint64_t fingerprint,
                               const SimReport& report) {
  std::string line = "J1 " + hex_field(16, fingerprint) + " " +
                     std::to_string(index) + " " +
                     to_hex(encode_report(report));
  line += " " + hex_field(8, line_crc(line));

  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.report = report;
  entry.line = std::move(line);
  entries_[index] = std::move(entry);
  rewrite_locked();
}

void ExperimentJournal::rewrite_locked() {
  // The whole journal is rewritten per append, through the durable
  // tmp+fsync+rename path. Grids are at most a few hundred cells, so the
  // O(records^2) bytes are trivia next to the simulations themselves, and
  // in exchange the on-disk file is *always* a complete, checksummed
  // document — a reader can never observe a half-appended state.
  std::string content = header_line() + "\n";
  for (const auto& [index, entry] : entries_) {
    content += entry.line;
    content += "\n";
  }
  util::write_file_atomic(config_.path, content, "experiment journal",
                          /*durable=*/true);
}

}  // namespace laps
