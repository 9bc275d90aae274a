#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

namespace laps::util {

/// Typed error for any artifact/journal file operation that fails. Carries
/// the path and the errno captured at the point of failure, and formats one
/// canonical message:
///
///   "<what_kind>: <path>: <operation> failed: <strerror(errno)>"
///
/// Every writer in the tree (bench JSON artifacts, probe dumps, telemetry
/// exports, the experiment journal) throws this, so all binaries report
/// artifact-write failures identically and guarded_main turns them into the
/// same nonzero exit code.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what_kind, const std::string& path,
          const std::string& operation, int saved_errno);

  const std::string& path() const { return path_; }
  const std::string& operation() const { return operation_; }
  int saved_errno() const { return errno_; }

 private:
  std::string path_;
  std::string operation_;
  int errno_;
};

/// Streams a file into place by the tmp+rename discipline: appended bytes
/// land in `path + ".tmp.<pid>.<n>"`, and commit() renames the temp onto
/// `path` only once everything is written, so a crash or full disk
/// mid-write leaves either the old file or the new one — never a truncated
/// hybrid. A writer destroyed before commit() (an exception while the
/// caller renders, say) removes its temp, and so does every failure path.
/// Failures throw IoError naming `path` (with `what_kind` naming the
/// artifact, e.g. "JSON artifact" or "flow audit"). After the rename, temps
/// of `path` left by writers whose process is gone (killed mid-write) are
/// removed too; a live writer's temp is never touched.
///
/// `durable` additionally fsyncs the temp file before the rename and the
/// containing directory after it, so the rename survives power loss — the
/// experiment journal needs this (one fsync'd record per completed job);
/// plain artifacts skip it.
class AtomicFileWriter {
 public:
  AtomicFileWriter(std::string path, const char* what_kind,
                   bool durable = false);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  void append(std::string_view bytes);
  /// Flushes, fsyncs when durable, and renames the temp onto the path.
  void commit();

 private:
  [[noreturn]] void fail(const char* operation, int saved_errno);

  std::string path_;
  std::string tmp_;  ///< empty once committed or failed
  const char* what_kind_;
  bool durable_;
  std::FILE* file_ = nullptr;
};

/// One AtomicFileWriter append of `content`, then commit().
void write_file_atomic(const std::string& path, const std::string& content,
                       const char* what_kind, bool durable = false);

/// Throws std::invalid_argument("<what>: cannot write '<path>': directory
/// '<dir>': <strerror>") unless the directory of `path` exists and this
/// process may create files in it. Bench mains check every artifact path
/// this way before a run starts (`what` names the flag).
void require_writable_dir(const std::string& what, const std::string& path);

/// Reads `path` into `content`. Returns false (content untouched) when the
/// file does not exist; throws IoError on any other failure. Used by the
/// experiment journal, where "no journal yet" is a normal state but a
/// half-readable one must be an error.
bool read_file_if_exists(const std::string& path, std::string& content);

}  // namespace laps::util
