#include "durability/atomic_file.hpp"

#include <fcntl.h>
#include <limits.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace prodsort {

void write_fully(int fd, std::span<iovec> parts, const std::string& path) {
  std::size_t head = 0;
  while (head < parts.size()) {
    if (parts[head].iov_len == 0) {
      ++head;
      continue;
    }
    const auto count =
        static_cast<int>(std::min<std::size_t>(parts.size() - head, IOV_MAX));
    const ssize_t n = ::writev(fd, parts.data() + head, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("write failed: " + path + ": " +
                               std::strerror(errno));
    }
    // Advance past the bytes written; a short count leaves `head`
    // inside a part, and the next writev resumes there.
    for (auto done = static_cast<std::size_t>(n); done > 0;) {
      const std::size_t take = std::min(done, parts[head].iov_len);
      parts[head].iov_base = static_cast<char*>(parts[head].iov_base) + take;
      parts[head].iov_len -= take;
      done -= take;
      if (parts[head].iov_len == 0) ++head;
    }
  }
}

void write_fully(int fd, std::string_view bytes, const std::string& path) {
  iovec part{const_cast<char*>(bytes.data()), bytes.size()};
  write_fully(fd, std::span<iovec>(&part, 1), path);
}

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    throw std::runtime_error("cannot open " + tmp + ": " +
                             std::strerror(errno));
  try {
    write_fully(fd, contents, tmp);
    if (::fsync(fd) != 0)
      throw std::runtime_error("fsync failed: " + tmp + ": " +
                               std::strerror(errno));
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("rename failed: " + tmp + " -> " + path + ": " +
                             std::strerror(err));
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

}  // namespace prodsort
