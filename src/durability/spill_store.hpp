#pragma once

// Real spill files for the streaming pipeline's retained slices, sorted
// runs and sealed ranges (docs/DURABILITY.md, "Spill files").
//
// The pipeline commits once per discrete event.  Every run slice and
// run output an event spills is staged as a *blob* of the event's
// group file `g<id>.spill`; flush() writes the whole group straight
// from the key vectors with one writev and one fsync, before the
// journal records that name the blobs commit.  A blob is named by
// (file, offset, bytes), keys as little-endian 64-bit integers.  The
// store counts each file's live bytes and live blobs: a released blob
// leaves the live set at once (so the byte-counter model reconciles
// against it, kLedgerDelta records), and a file whose last blob is
// released is unlinked by reap() once no committed record names it.
// A sealed range is the one exception to grouping: it is the whole of
// its own file `range<r>.out`, the stream's durable product.
//
// Reads go through the io-fault clock: a drawn read corruption flips
// one hashed bit of the returned keys, which the caller's fingerprint
// check then catches (spill corruption is detected by certification,
// not by per-file checksums — the journal already holds the
// authoritative fingerprint for every blob it references).

#include <sys/uio.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/multiway_merge.hpp"  // Key
#include "durability/io_faults.hpp"

namespace prodsort {

// Keys go to disk as their in-memory bytes: the file format is
// little-endian int64, so that needs a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "spill files store keys as little-endian int64");

/// Where a blob of keys lives on disk.
struct SpillRef {
  std::string file;  ///< file name inside the store's directory
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
};

class SpillStore {
 public:
  /// `dir` must exist; `clock` is borrowed and may be null.  Group
  /// files already in `dir` (a crashed run's) are remembered as
  /// orphans, and new group ids continue past them, so a file the old
  /// journal may name is never overwritten.
  SpillStore(std::string dir, IoFaultClock* clock);

  /// The sealed range file's conventional name.
  [[nodiscard]] static std::string range_name(int range);

  [[nodiscard]] std::string path_of(const std::string& name) const;

  /// Adds `keys` to the pending group and returns where they will
  /// live.  No I/O: flush() writes straight from `keys`, which must
  /// stay valid and unchanged until then.
  SpillRef stage(std::span<const Key> keys);

  /// Writes every staged blob to one new group file, fsync'd once, and
  /// tracks the blobs as live.  A no-op when nothing is staged.
  void flush();

  /// Writes `keys` as the whole of file `name`, fsync'd, and tracks it
  /// as one live blob (a sealed range's file).
  SpillRef write_file(const std::string& name, std::span<const Key> keys);

  /// Reads a blob back (read-corruption-injectable).  Throws a named
  /// error on a missing file, a short read, or a size that is not a
  /// whole number of keys.
  [[nodiscard]] std::vector<Key> read(const SpillRef& ref);

  /// Drops a blob from the live set; a file whose last live blob goes
  /// is left for reap().  Untracked files are ignored.
  void release(const SpillRef& ref);

  /// Unlinks every file with no live blob left.  Call only after the
  /// journal commit that stops naming them.
  void reap();

  /// Recovery adoption: marks a journaled blob live again.  Returns
  /// false if its file is missing; throws a named error if the file is
  /// too short to hold the blob — a journaled blob must be exactly as
  /// journaled or explicitly absent, never silently truncated.
  bool adopt(const SpillRef& ref);

  /// Unlinks every orphan group file that no adopt() claimed.  Call
  /// once the journal can no longer name an unadopted orphan.
  void reap_orphans();

  /// Sum of live blob sizes right now.
  [[nodiscard]] std::int64_t live_bytes() const noexcept { return live_; }
  /// High-water of live_bytes() — the measured counterpart of the
  /// ledger's accounted spill_high_bytes.
  [[nodiscard]] std::int64_t measured_high() const noexcept { return high_; }
  /// Distinct files written or adopted.
  [[nodiscard]] std::int64_t files_created() const noexcept {
    return created_;
  }

 private:
  struct LiveFile {
    std::int64_t bytes = 0;
    std::int64_t blobs = 0;
  };

  void track(const std::string& file, std::int64_t bytes);

  std::string dir_;
  IoFaultClock* clock_;
  /// Tracked files; an entry with no live blob awaits reap().
  std::unordered_map<std::string, LiveFile> files_;
  std::unordered_set<std::string> orphans_;
  std::vector<iovec> pending_;  ///< the staged group's blobs
  std::int64_t pending_bytes_ = 0;
  std::int64_t next_group_ = 0;
  std::int64_t live_ = 0;
  std::int64_t high_ = 0;
  std::int64_t created_ = 0;
};

}  // namespace prodsort
