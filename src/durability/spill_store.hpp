#pragma once

// Spill blobs for the streaming pipeline's retained slices, sorted runs
// and sealed ranges (docs/DURABILITY.md, "Spill files").
//
// The pipeline commits once per discrete event, and every run slice and
// run output the event spills is a *blob frame* of the event's journal
// group (JournalWriter::stage_blob): it lives in the journal file
// itself, written with the records that name it.  A blob is named by
// (file, offset, bytes), keys as little-endian 64-bit integers.  The
// store counts each file's live bytes and live blobs: a released blob
// leaves the live set at once (so the byte-counter model reconciles
// against it, kLedgerDelta records).  Before a compaction replaces the
// journal, retire() hard-links it to a generation file `j<gen>.spill`
// and moves its live blobs there; a generation whose last blob is
// released is unlinked by reap() once no committed record names it.
// A sealed range is the whole of its own file `range<r>.out`, the
// stream's durable product.
//
// Reads go through the io-fault clock: a drawn read corruption flips
// one hashed bit of the returned keys, which the caller's fingerprint
// check then catches (spill corruption is detected by certification,
// not by per-blob checksums — the journal already holds the
// authoritative fingerprint for every blob it references).

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
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

/// The journal's file name inside its directory; it also holds the
/// blobs of its groups until a compaction retires it.
inline constexpr std::string_view kJournalFile = "wal.log";

/// Where a blob of keys lives on disk.
struct SpillRef {
  std::string file;  ///< file name inside the store's directory
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
};

/// Reads the keys of `ref` from the file at `path`.  Throws a named
/// error on a missing file, a short read, or a size that is not a whole
/// number of keys.
[[nodiscard]] std::vector<Key> read_spill_blob(const std::string& path,
                                               const SpillRef& ref);

class SpillStore {
 public:
  /// `dir` must exist; `clock` is borrowed and may be null.  Generation
  /// files already in `dir` (a crashed run's) are remembered as
  /// orphans, and new generation numbers continue past them, so a file
  /// the old journal may name is never overwritten.
  SpillStore(std::string dir, IoFaultClock* clock);

  /// The sealed range file's conventional name.
  [[nodiscard]] static std::string range_name(int range);

  [[nodiscard]] std::string path_of(const std::string& name) const;

  /// Tracks a blob the journal holds (JournalWriter::stage_blob) as
  /// live.  No I/O: the blob is written with its commit group.
  void track(const SpillRef& ref);

  /// Writes `keys` as the whole of file `name`, fsync'd, and tracks it
  /// as one live blob (a sealed range's file).
  SpillRef write_file(const std::string& name, std::span<const Key> keys);

  /// Before the journal file `name` is replaced by a compaction:
  /// hard-links it to a new generation file `j<gen>.spill` and moves
  /// its live blobs there, so they outlive the replacement.  Returns the
  /// generation's name, or "" when no blob of `name` is live (no link
  /// is made: there is nothing to keep).
  std::string retire(std::string_view name);

  /// Recovery's retire(): links `name` whether or not a blob of it is
  /// tracked, and leaves the generation an orphan until adopt() claims
  /// a blob in it.  Returns the generation's name.
  std::string retire_unadopted(std::string_view name);

  /// Reads a blob back (read-corruption-injectable).  Throws like
  /// read_spill_blob.
  [[nodiscard]] std::vector<Key> read(const SpillRef& ref);

  /// Drops a blob from the live set; a file whose last live blob goes
  /// is left for reap().  Untracked files are ignored.
  void release(const SpillRef& ref);

  /// Unlinks every file with no live blob left, except the journal
  /// (its blobs move out at retire()).  Call only after the journal
  /// commit that stops naming them.
  void reap();

  /// Recovery adoption: marks a journaled blob live again.  Returns
  /// false if its file is missing; throws a named error if the file is
  /// too short to hold the blob — a journaled blob must be exactly as
  /// journaled or explicitly absent, never silently truncated.
  bool adopt(const SpillRef& ref);

  /// Unlinks every orphan generation file that no adopt() claimed.
  /// Call once the journal can no longer name an unadopted orphan.
  void reap_orphans();

  /// Sum of live blob sizes right now.
  [[nodiscard]] std::int64_t live_bytes() const noexcept { return live_; }
  /// High-water of live_bytes() — the measured counterpart of the
  /// ledger's accounted spill_high_bytes.
  [[nodiscard]] std::int64_t measured_high() const noexcept { return high_; }
  /// Distinct files written, retired to or adopted: range files and
  /// generations.  The journal holding fresh blobs is not counted.
  [[nodiscard]] std::int64_t files_created() const noexcept {
    return created_;
  }

 private:
  struct LiveFile {
    std::int64_t bytes = 0;
    std::int64_t blobs = 0;
  };

  std::string link_generation(std::string_view name);

  std::string dir_;
  IoFaultClock* clock_;
  /// Tracked files; an entry with no live blob awaits reap().
  std::unordered_map<std::string, LiveFile> files_;
  std::unordered_set<std::string> orphans_;
  std::int64_t next_generation_ = 0;
  std::int64_t live_ = 0;
  std::int64_t high_ = 0;
  std::int64_t created_ = 0;
};

}  // namespace prodsort
