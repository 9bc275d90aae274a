#pragma once

#include <stdexcept>
#include <string>

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

/// Writes `content` to `path` via the tmp+rename discipline: the bytes land
/// in `path + ".tmp.<pid>.<n>"` first and are renamed into place only once
/// fully written, so a crash or full disk mid-write leaves either the old
/// file or the new one — never a truncated hybrid. Throws IoError (with
/// `what_kind` naming the artifact, e.g. "JSON artifact" or "flow audit")
/// on failure; the temp file is removed on every failure path. After the
/// rename, temps of `path` left by writers whose process is gone (killed
/// mid-write) are removed too; a live writer's temp is never touched.
///
/// `durable` additionally fsyncs the temp file before the rename and the
/// containing directory after it, so the rename survives power loss — the
/// experiment journal needs this (one fsync'd record per completed job);
/// plain artifacts skip it.
void write_file_atomic(const std::string& path, const std::string& content,
                       const char* what_kind, bool durable = false);

/// Reads `path` into `content`. Returns false (content untouched) when the
/// file does not exist; throws IoError on any other failure. Used by the
/// experiment journal, where "no journal yet" is a normal state but a
/// half-readable one must be an error.
bool read_file_if_exists(const std::string& path, std::string& content);

}  // namespace laps::util
