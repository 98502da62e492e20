#include "durability/spill_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "durability/atomic_file.hpp"

namespace prodsort {

namespace {

constexpr std::int64_t kKeyBytes = sizeof(Key);

std::string group_name(std::int64_t id) {
  std::string name = "g";
  name += std::to_string(id);
  name += ".spill";
  return name;
}

/// The id of a group file name `g<id>.spill`, or -1 for any other name.
std::int64_t group_id(std::string_view name) {
  constexpr std::string_view kSuffix = ".spill";
  if (name.size() <= 1 + kSuffix.size() || name.front() != 'g' ||
      !name.ends_with(kSuffix))
    return -1;
  const std::string_view digits =
      name.substr(1, name.size() - 1 - kSuffix.size());
  std::int64_t id = -1;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), id);
  return ec == std::errc{} && ptr == digits.data() + digits.size() ? id : -1;
}

/// Creates (truncating) `path`, writes `parts`, fsyncs, closes.  The
/// write-ahead contract: the file is durable before any journal record
/// naming it commits, so this fsync is not droppable.
void write_synced(const std::string& path, std::span<iovec> parts) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    throw std::runtime_error("cannot open spill file: " + path + ": " +
                             std::strerror(errno));
  try {
    write_fully(fd, parts, path);
    if (::fsync(fd) != 0)
      throw std::runtime_error("spill fsync failed: " + path + ": " +
                               std::strerror(errno));
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

iovec key_part(std::span<const Key> keys) {
  return {const_cast<Key*>(keys.data()), keys.size_bytes()};
}

}  // namespace

SpillStore::SpillStore(std::string dir, IoFaultClock* clock)
    : dir_(std::move(dir)), clock_(clock) {
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::int64_t id = group_id(entry->d_name);
      if (id < 0) continue;
      orphans_.insert(entry->d_name);
      next_group_ = std::max(next_group_, id + 1);
    }
    ::closedir(d);
  }
}

std::string SpillStore::range_name(int range) {
  return "range" + std::to_string(range) + ".out";
}

std::string SpillStore::path_of(const std::string& name) const {
  return dir_ + "/" + name;
}

SpillRef SpillStore::stage(std::span<const Key> keys) {
  const SpillRef ref{group_name(next_group_), pending_bytes_,
                     static_cast<std::int64_t>(keys.size_bytes())};
  pending_.push_back(key_part(keys));
  pending_bytes_ += ref.bytes;
  return ref;
}

void SpillStore::flush() {
  if (pending_.empty()) return;
  const std::string name = group_name(next_group_++);
  ++created_;
  // Track first: the write consumes pending_'s lengths.
  for (const iovec& part : pending_)
    track(name, static_cast<std::int64_t>(part.iov_len));
  write_synced(path_of(name), pending_);
  pending_.clear();
  pending_bytes_ = 0;
}

SpillRef SpillStore::write_file(const std::string& name,
                                std::span<const Key> keys) {
  iovec part = key_part(keys);
  write_synced(path_of(name), std::span<iovec>(&part, 1));
  ++created_;
  const auto bytes = static_cast<std::int64_t>(keys.size_bytes());
  track(name, bytes);
  return {name, 0, bytes};
}

void SpillStore::track(const std::string& file, std::int64_t bytes) {
  LiveFile& live = files_[file];
  live.bytes += bytes;
  ++live.blobs;
  live_ += bytes;
  high_ = std::max(high_, live_);
}

std::vector<Key> SpillStore::read(const SpillRef& ref) {
  const std::string path = path_of(ref.file);
  if (ref.bytes < 0 || ref.bytes % kKeyBytes != 0)
    throw std::runtime_error("spill blob in " + path + " is " +
                             std::to_string(ref.bytes) +
                             " bytes, not a whole number of keys");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error("cannot open spill file: " + path + ": " +
                             std::strerror(errno));
  std::vector<Key> keys(static_cast<std::size_t>(ref.bytes / kKeyBytes));
  auto* bytes = reinterpret_cast<char*>(keys.data());
  for (std::int64_t done = 0; done < ref.bytes;) {
    const ssize_t n =
        ::pread(fd, bytes + done, static_cast<std::size_t>(ref.bytes - done),
                static_cast<off_t>(ref.offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string why = n < 0 ? std::strerror(errno) : "file too short";
      ::close(fd);
      throw std::runtime_error("spill read failed: " + path + " at offset " +
                               std::to_string(ref.offset + done) + ": " +
                               why);
    }
    done += n;
  }
  ::close(fd);
  if (clock_ != nullptr && !keys.empty()) {
    std::uint64_t bit_hash = 0;
    if (clock_->draw_read_corrupt(&bit_hash)) {
      const std::size_t bit =
          bit_hash % (static_cast<std::size_t>(ref.bytes) * 8);
      bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
  }
  return keys;
}

void SpillStore::release(const SpillRef& ref) {
  const auto it = files_.find(ref.file);
  if (it == files_.end() || it->second.blobs == 0) return;
  it->second.bytes -= ref.bytes;
  --it->second.blobs;
  live_ -= ref.bytes;
}

void SpillStore::reap() {
  std::erase_if(files_, [this](const auto& entry) {
    if (entry.second.blobs > 0) return false;
    ::unlink(path_of(entry.first).c_str());
    return true;
  });
}

bool SpillStore::adopt(const SpillRef& ref) {
  const std::string path = path_of(ref.file);
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return false;
    throw std::runtime_error("cannot stat spill file: " + path + ": " +
                             std::strerror(errno));
  }
  const auto size = static_cast<std::int64_t>(st.st_size);
  if (size < ref.offset + ref.bytes)
    throw std::runtime_error(
        "spill file " + path + " is " + std::to_string(size) +
        " bytes but the journal recorded a blob of " +
        std::to_string(ref.bytes) + " bytes at offset " +
        std::to_string(ref.offset));
  if (!files_.contains(ref.file)) ++created_;
  track(ref.file, ref.bytes);
  return true;
}

void SpillStore::reap_orphans() {
  for (const std::string& name : orphans_)
    if (!files_.contains(name)) ::unlink(path_of(name).c_str());
  orphans_.clear();
}

}  // namespace prodsort
