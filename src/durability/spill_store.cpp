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

constexpr std::string_view kGenerationSuffix = ".spill";

std::string generation_name(std::int64_t gen) {
  std::string name = "j";
  name += std::to_string(gen);
  name += kGenerationSuffix;
  return name;
}

/// The number of a generation file name `j<gen>.spill`, or -1 for any
/// other name.
std::int64_t generation_of(std::string_view name) {
  if (name.size() <= 1 + kGenerationSuffix.size() || name.front() != 'j' ||
      !name.ends_with(kGenerationSuffix))
    return -1;
  const std::string_view digits =
      name.substr(1, name.size() - 1 - kGenerationSuffix.size());
  std::int64_t gen = -1;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), gen);
  return ec == std::errc{} && ptr == digits.data() + digits.size() ? gen : -1;
}

/// Creates (truncating) `path`, writes `keys`, fsyncs, closes.  The
/// write-ahead contract: the file is durable before any journal record
/// naming it commits, so this fsync is not droppable.
void write_synced(const std::string& path, std::span<const Key> keys) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    throw std::runtime_error("cannot open spill file: " + path + ": " +
                             std::strerror(errno));
  try {
    iovec part{const_cast<Key*>(keys.data()), keys.size_bytes()};
    write_fully(fd, std::span<iovec>(&part, 1), path);
    if (::fsync(fd) != 0)
      throw std::runtime_error("spill fsync failed: " + path + ": " +
                               std::strerror(errno));
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

}  // namespace

SpillStore::SpillStore(std::string dir, IoFaultClock* clock)
    : dir_(std::move(dir)), clock_(clock) {
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::int64_t gen = generation_of(entry->d_name);
      if (gen < 0) continue;
      orphans_.insert(entry->d_name);
      next_generation_ = std::max(next_generation_, gen + 1);
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

SpillRef SpillStore::write_file(const std::string& name,
                                std::span<const Key> keys) {
  write_synced(path_of(name), keys);
  ++created_;
  const SpillRef ref{name, 0, static_cast<std::int64_t>(keys.size_bytes())};
  track(ref);
  return ref;
}

std::string SpillStore::link_generation(std::string_view name) {
  const std::string gen = generation_name(next_generation_++);
  const std::string from = path_of(std::string(name));
  if (::link(from.c_str(), path_of(gen).c_str()) != 0)
    throw std::runtime_error("cannot link " + from + " to generation " +
                             gen + ": " + std::strerror(errno));
  return gen;
}

std::string SpillStore::retire(std::string_view name) {
  const auto it = files_.find(std::string(name));
  if (it == files_.end()) return {};
  std::string gen;
  if (it->second.blobs > 0) {
    gen = link_generation(name);
    files_[gen] = it->second;
    ++created_;
  }
  files_.erase(std::string(name));
  return gen;
}

std::string SpillStore::retire_unadopted(std::string_view name) {
  std::string gen = link_generation(name);
  orphans_.insert(gen);
  return gen;
}

void SpillStore::track(const SpillRef& ref) {
  LiveFile& live = files_[ref.file];
  live.bytes += ref.bytes;
  ++live.blobs;
  live_ += ref.bytes;
  high_ = std::max(high_, live_);
}

std::vector<Key> read_spill_blob(const std::string& path,
                                 const SpillRef& ref) {
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
  return keys;
}

std::vector<Key> SpillStore::read(const SpillRef& ref) {
  std::vector<Key> keys = read_spill_blob(path_of(ref.file), ref);
  if (clock_ != nullptr && !keys.empty()) {
    std::uint64_t bit_hash = 0;
    if (clock_->draw_read_corrupt(&bit_hash)) {
      auto* bytes = reinterpret_cast<char*>(keys.data());
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
    if (entry.second.blobs > 0 || entry.first == kJournalFile) return false;
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
  track(ref);
  return true;
}

void SpillStore::reap_orphans() {
  for (const std::string& name : orphans_)
    if (!files_.contains(name)) ::unlink(path_of(name).c_str());
  orphans_.clear();
}

}  // namespace prodsort
