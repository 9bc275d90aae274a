#include "util/fileio.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace laps::util {

namespace {

std::string format_io_error(const std::string& what_kind,
                            const std::string& path,
                            const std::string& operation, int saved_errno) {
  std::string msg = what_kind + ": " + path + ": " + operation + " failed";
  if (saved_errno != 0) {
    msg += ": ";
    msg += std::strerror(saved_errno);
  }
  return msg;
}

/// The directory containing `path`.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

/// Fsyncs the directory containing `path` so a just-renamed entry is
/// durable. Best-effort: some filesystems refuse directory fsync; that is
/// not worth failing a run over once the data itself is synced.
void sync_parent_dir(const std::string& path) {
  const int fd = ::open(parent_dir(path).c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// The writer pid in a temp name `<prefix><pid>.<n>`, or 0 when `name` is
/// not such a name.
pid_t temp_writer(std::string_view name, std::string_view prefix) {
  if (!name.starts_with(prefix)) return 0;
  name.remove_prefix(prefix.size());
  const std::size_t dot = name.find('.');
  const std::string_view seq =
      dot == std::string_view::npos ? "" : name.substr(dot + 1);
  if (seq.empty() || seq.find_first_not_of("0123456789") != seq.npos) {
    return 0;
  }
  pid_t pid = 0;
  const auto [end, ec] = std::from_chars(name.data(), name.data() + dot, pid);
  return ec == std::errc() && end == name.data() + dot && pid > 0 ? pid : 0;
}

/// Removes the temps of `path` whose writer died mid-write (a SIGKILLed
/// grid leaves them; the resumed run rewrites the same artifacts). A temp
/// whose pid is still alive belongs to another thread or process in the
/// middle of its own write, so it stays. Best-effort, like the write's own
/// cleanup: a temp that cannot be removed is not worth failing a run over.
void remove_stale_temps(const std::string& path) {
  const std::string dir = parent_dir(path);
  const std::size_t slash = path.find_last_of('/');
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (const dirent* entry = ::readdir(d)) {
    const pid_t pid = temp_writer(entry->d_name, prefix);
    if (pid == 0 || pid == ::getpid()) continue;
    if (::kill(pid, 0) != 0 && errno == ESRCH) {
      ::unlink((dir + "/" + entry->d_name).c_str());
    }
  }
  ::closedir(d);
}

}  // namespace

IoError::IoError(const std::string& what_kind, const std::string& path,
                 const std::string& operation, int saved_errno)
    : std::runtime_error(
          format_io_error(what_kind, path, operation, saved_errno)),
      path_(path),
      operation_(operation),
      errno_(saved_errno) {}

void write_file_atomic(const std::string& path, const std::string& content,
                       const char* what_kind, bool durable) {
  // The temp name carries pid + a process-wide counter, so concurrent
  // writers of one destination (threads of one grid, or separate
  // processes) never share a temp file, and a later writer can tell a
  // leftover temp of a dead process from one still being written.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw IoError(what_kind, tmp, "open", errno);
  }
  if (std::fwrite(content.data(), 1, content.size(), f) != content.size()) {
    const int saved = errno;
    std::fclose(f);
    std::remove(tmp.c_str());
    throw IoError(what_kind, tmp, "write", saved);
  }
  if (std::fflush(f) != 0) {
    const int saved = errno;
    std::fclose(f);
    std::remove(tmp.c_str());
    throw IoError(what_kind, tmp, "flush", saved);
  }
  if (durable && ::fsync(::fileno(f)) != 0) {
    const int saved = errno;
    std::fclose(f);
    std::remove(tmp.c_str());
    throw IoError(what_kind, tmp, "fsync", saved);
  }
  if (std::fclose(f) != 0) {
    const int saved = errno;
    std::remove(tmp.c_str());
    throw IoError(what_kind, tmp, "close", saved);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    std::remove(tmp.c_str());
    throw IoError(what_kind, path, "rename", saved);
  }
  if (durable) sync_parent_dir(path);
  remove_stale_temps(path);
}

bool read_file_if_exists(const std::string& path, std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return false;
    throw IoError("file", path, "open", errno);
  }
  content.clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  const int saved = errno;
  std::fclose(f);
  if (failed) throw IoError("file", path, "read", saved);
  return true;
}

}  // namespace laps::util
