#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "sim/report.h"

namespace laps {

struct ExperimentJob;

/// Typed error for a journal file that cannot be trusted: wrong schema,
/// header that does not match the plan being resumed, or a corrupt record
/// (bad CRC, bad payload). Carries the file and the line number where
/// parsing stopped so the message pinpoints the damage.
class JournalError : public std::runtime_error {
 public:
  JournalError(const std::string& path, std::size_t line,
               const std::string& reason);

  const std::string& path() const { return path_; }
  std::size_t line() const { return line_; }
  const std::string& reason() const { return reason_; }

 private:
  std::string path_;
  std::size_t line_;
  std::string reason_;
};

/// Stable identity of one grid cell. Mixes the plan seed, a salt covering
/// every flag that can change job output (see make_runner), the cell's
/// position, its scenario and scheduler names, and its derived seed. A
/// resumed journal only replays a record when the fingerprint matches, so
/// editing the grid, the scheduler list, or the plan seed invalidates
/// exactly the cells that changed.
std::uint64_t job_fingerprint(std::uint64_t plan_seed, std::uint64_t salt,
                              std::size_t index, const ExperimentJob& job);

/// Append-only completion journal for a grid run (`laps-journal-v1`).
///
/// One record per completed job, keyed by (index, fingerprint), holding the
/// job's full SimReport in an exact binary encoding: integers verbatim,
/// doubles as IEEE-754 bit patterns, the latency histogram as its occupied
/// buckets plus exact count/sum/max (restored via Histogram::restore). A
/// report read back from the journal therefore serializes to byte-identical
/// JSON — the property the resume differential test asserts.
///
/// Durability: every append rewrites the journal through
/// util::write_file_atomic with durable=true (fsync'd tmp + rename + parent
/// directory fsync), so after `record` returns the record survives SIGKILL
/// and power loss, and a reader never sees a half-written file. Each line
/// additionally carries a CRC32 so a truncated or hand-damaged final line
/// is detected: a torn last line is dropped (the job simply reruns), while
/// corruption anywhere earlier throws JournalError rather than silently
/// resuming from bad state.
///
/// File format (one record per line, all numbers lowercase hex):
///   laps-journal-v1 <plan_seed:016x> <njobs> <salt:016x> <crc32:08x>
///   J1 <fingerprint:016x> <index> <payload-hex> <crc32:08x>
/// The header CRC covers the header prefix; each record CRC covers the
/// record prefix. The payload is the binary SimReport encoding, hex-dumped.
class ExperimentJournal {
 public:
  struct Config {
    std::string path;
    std::uint64_t plan_seed = 0;
    std::uint64_t salt = 0;
    std::size_t num_jobs = 0;
  };

  /// Opens the journal. With `resume` false any existing file is replaced
  /// by a fresh header; with `resume` true an existing file is parsed and
  /// its records become available through `restore` — a header that does
  /// not match `config` (different plan seed, grid size, or salt) throws
  /// JournalError, as does any corrupt non-final record. A missing file
  /// under `resume` starts an empty journal (resume of a run that never
  /// completed a job).
  ExperimentJournal(Config config, bool resume);

  /// The journaled report for cell `index`, or nullptr if the cell has no
  /// record or its fingerprint does not match (stale journal entry).
  const SimReport* restore(std::size_t index, std::uint64_t fingerprint) const;

  /// Durably appends the record for cell `index`. Thread-safe; returns only
  /// once the bytes are fsync'd, so a crash immediately after never loses
  /// the record. Throws util::IoError if the journal cannot be written.
  void record(std::size_t index, std::uint64_t fingerprint,
              const SimReport& report);

  /// Records loaded from disk at open (0 unless resuming).
  std::size_t loaded() const { return entries_.size(); }

  const std::string& path() const { return config_.path; }

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    SimReport report;
    std::string line;  ///< serialized record, kept for rewrites
  };

  std::string header_line() const;
  void rewrite_locked();

  Config config_;
  std::map<std::size_t, Entry> entries_;
  std::mutex mutex_;
};

/// Exact binary encoding of a SimReport (the journal payload). Exposed for
/// the round-trip tests: decode(encode(r)) must reproduce `r` so that
/// report JSON serialization is byte-identical.
std::string encode_report(const SimReport& report);
SimReport decode_report(const std::string& payload, const std::string& path,
                        std::size_t line);

}  // namespace laps
