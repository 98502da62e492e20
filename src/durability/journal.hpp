#pragma once

// Checksummed write-ahead journal for the streaming pipeline
// (docs/DURABILITY.md).
//
// Every externally visible state transition of a durable
// StreamingSorter — batch ingested, run cut to spill, run verified,
// ingestion flushed, range sealed, spill-ledger reconciliation — is one
// length-prefixed, CRC-checksummed, monotonically sequenced record in
// an append-only log.  Records are staged and committed in *groups*,
// one per discrete event of the pipeline.  A group also carries the
// spill blobs its records name (run slices, run outputs) as *blob
// frames* ahead of its records, and goes out in one write and one
// fsync: a record and the keys it names become durable together, and
// the group's closing record is written after every blob of the group.
//
// Replay (replay_journal) enforces four integrity rules:
//
//  * torn tail — an incomplete or checksum-failing record, or a blob
//    frame running past end-of-file, is the uncommitted write a crash
//    interrupted; it is discarded (reported, never an error);
//  * torn group — complete frames at end-of-file whose group never
//    closed (the last record carries the continues flag, or no record
//    followed the blobs) are the rest of that interrupted write,
//    discarded with it: a group commits whole;
//  * bit rot  — a bad magic or bad CRC *followed by more data* cannot
//    be a torn write (something was appended after it, so it had
//    committed); replay refuses loudly with a named error;
//  * sequence — records must be numbered 1, 2, 3, ... exactly; a
//    duplicate or a gap is named in the error (a replayed-over or
//    spliced journal, not a crash artifact).  Blob frames take no
//    sequence number.
//
// A blob frame's CRC covers its header only; its keys are checked by
// the fingerprint of the record that names them (stream/recovery.cpp
// also uses that check to discard a final group whose pages reached
// the disk out of order).
//
// Once a range seals, the whole prefix that produced it is dead
// weight; rewrite() compacts the journal — config + snapshot + the
// still-live records — into a new file that atomically replaces the
// old one (write_file_atomic), so journal size tracks *outstanding*
// work, not stream length.  The compaction copies no blob: before it,
// the caller retires the outgoing journal to a generation file
// (SpillStore::retire), where the live blobs stay until released.

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/certifier.hpp"  // FingerprintState
#include "core/multiway_merge.hpp"  // Key
#include "durability/io_faults.hpp"
#include "durability/spill_store.hpp"  // SpillRef

namespace prodsort {

/// Thrown by the deterministic kill hook (JournalWriter::set_kill_after):
/// once the commit group holding the N-th record commits, the journal
/// truncates its file to the *synced* size — exactly the bytes a power
/// cut would preserve, including the effect of any dropped fsyncs — and
/// throws this with `records` = N.  prodsort_stream treats it as SIGKILL: no
/// cleanup, exit.
struct DurabilityKill : std::runtime_error {
  explicit DurabilityKill(std::uint64_t record)
      : std::runtime_error("durability kill after record " +
                           std::to_string(record)),
        records(record) {}
  std::uint64_t records;
};

enum class RecordType : std::uint16_t {
  kConfig = 1,       ///< stream configuration (first record, always)
  kBatchIngested = 2,
  kRunDispatched = 3,  ///< run cut + slice durable; dispatchable
  kRunVerified = 4,    ///< run output durable + fingerprint-verified
  kIngestDone = 5,     ///< every batch ingested, every buffer cut
  kRangeSealed = 6,    ///< range output durable + certified
  kLedgerDelta = 7,    ///< spill byte-ledger reconciliation point
  kSnapshot = 8,       ///< compaction aggregate (follows kConfig)
};

[[nodiscard]] std::string to_string(RecordType type);

/// One replayed record: sequence, type, raw payload, the byte range it
/// occupied, and whether it closes its commit group (offsets of group
/// ends let tests truncate at exact commit boundaries to simulate a
/// kill after any given commit).
struct JournalRecord {
  std::uint64_t seq = 0;
  RecordType type = RecordType::kConfig;
  std::string payload;
  std::int64_t offset = 0;
  std::int64_t end_offset = 0;
  bool group_end = true;
};

struct JournalReplay {
  std::vector<JournalRecord> records;
  bool torn_tail = false;      ///< trailing uncommitted bytes discarded
  std::int64_t torn_bytes = 0; ///< size of the discarded tail
  std::int64_t valid_bytes = 0;
  /// Where the last closed group begins, its blob frames included.
  std::int64_t last_group_offset = 0;
};

/// CRC-32 (IEEE 802.3, reflected) over `data` — the per-record
/// checksum.  Exposed for the fuzz tests.
[[nodiscard]] std::uint32_t crc32_ieee(std::string_view data);

/// Encodes one record: magic, sequence, type, flags, length-prefixed
/// payload, CRC over everything before it.  `group_end` false sets the
/// continues flag: more records of the same commit group follow.
[[nodiscard]] std::string encode_record(std::uint64_t seq, RecordType type,
                                        std::string_view payload,
                                        bool group_end = true);

/// Encodes a blob frame's header for a blob of `bytes` key bytes: magic,
/// no sequence, the blob frame type, length, CRC over the header alone.
/// The keys follow the header raw.
[[nodiscard]] std::string encode_blob_header(std::uint32_t bytes);

/// Replays an encoded record stream (the journal file's bytes),
/// applying the integrity rules above.  Throws std::runtime_error
/// naming the offense on bit rot or sequence violations; a torn tail
/// is reported, not thrown.
[[nodiscard]] JournalReplay replay_journal_buffer(std::string_view buffer);

/// Reads `path` (read-corruption-injectable through `clock`) and
/// replays it.  Throws std::runtime_error on a missing/unreadable file.
[[nodiscard]] JournalReplay replay_journal(const std::string& path,
                                           IoFaultClock* clock = nullptr);

// --- payload packing -----------------------------------------------------

/// Little-endian payload builder; the inverse of PayloadReader.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view v);
  void fp(const FingerprintState& v);
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Little-endian payload parser.  Throws std::runtime_error naming the
/// record type on truncation or trailing garbage — a structurally
/// valid (CRC-passing) record with a mis-shaped payload is corruption
/// the CRC cannot see, so it is refused loudly.
class PayloadReader {
 public:
  PayloadReader(std::string_view data, const char* what)
      : data_(data), what_(what) {}
  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] FingerprintState fp();
  /// Throws unless every payload byte was consumed.
  void finish() const;

 private:
  void need(std::size_t bytes) const;
  std::string_view data_;
  const char* what_;
  std::size_t pos_ = 0;
};

// --- typed records -------------------------------------------------------

struct BatchIngestedRecord {
  std::int64_t batch = 0;
  std::int64_t keys = 0;
  std::uint64_t checksum = 0;     ///< finalized per-batch fingerprint
  std::uint64_t chain_after = 0;  ///< stream chain after this batch
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static BatchIngestedRecord decode(std::string_view payload);
};

struct RunDispatchedRecord {
  std::int64_t run = 0;
  std::int32_t range = 0;
  std::int64_t pad = 0;
  std::int64_t keys = 0;         ///< real keys in the retained slice
  FingerprintState fp;           ///< slice fingerprint (== output's)
  std::int64_t file_bytes = 0;   ///< slice blob size, fsync'd first
  std::string file{};            ///< spill file holding the slice blob
  std::int64_t offset = 0;       ///< the blob's byte offset in `file`
  [[nodiscard]] SpillRef blob() const { return {file, offset, file_bytes}; }
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static RunDispatchedRecord decode(std::string_view payload);
};

struct RunVerifiedRecord {
  std::int64_t run = 0;
  std::int64_t keys = 0;
  FingerprintState fp;
  std::int64_t file_bytes = 0;   ///< output blob size, fsync'd first
  std::string file{};            ///< spill file holding the output blob
  std::int64_t offset = 0;       ///< the blob's byte offset in `file`
  [[nodiscard]] SpillRef blob() const { return {file, offset, file_bytes}; }
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static RunVerifiedRecord decode(std::string_view payload);
};

struct IngestDoneRecord {
  std::int64_t batches = 0;
  FingerprintState ingest;
  std::uint64_t chain = 0;
  std::int64_t keys_ingested = 0;
  std::int64_t runs_total = 0;
  std::int64_t padded_keys = 0;
  std::int64_t forced_cuts = 0;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static IngestDoneRecord decode(std::string_view payload);
};

struct RangeSealedRecord {
  std::int32_t range = 0;
  std::int64_t keys = 0;
  FingerprintState fp;           ///< the sealed range's fingerprint
  std::uint8_t has_keys = 0;
  Key first = 0;
  Key last = 0;
  std::int64_t file_bytes = 0;   ///< range<r>.out size, fsync'd first
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static RangeSealedRecord decode(std::string_view payload);
};

struct LedgerDeltaRecord {
  std::int64_t spill_accounted = 0;  ///< the byte-counter model's view
  std::int64_t spill_measured = 0;   ///< sum of live spill file sizes
  std::int64_t resident_used = 0;    ///< MemoryBudget::used at this point
  std::int64_t spill_high = 0;       ///< accounted high-water so far
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static LedgerDeltaRecord decode(std::string_view payload);
};

/// Compaction aggregate: everything the dropped kBatchIngested /
/// kIngestDone prefix proved.  Only written post-flush (sealing — the
/// compaction trigger — requires a flushed stream).
struct SnapshotRecord {
  std::int64_t batches = 0;
  FingerprintState ingest;
  std::uint64_t chain = 0;
  std::int64_t keys_ingested = 0;
  std::int64_t runs_total = 0;
  std::int64_t padded_keys = 0;
  std::int64_t forced_cuts = 0;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static SnapshotRecord decode(std::string_view payload);
};

// --- the writer ----------------------------------------------------------

/// Append-only journal writer over one file, with the io-fault clock
/// threaded through every group write and sync.  Not thread-safe; the
/// streaming pipeline journals from its (single-threaded) event loop.
class JournalWriter {
 public:
  /// Opens `path` fresh (truncating any previous journal).  `clock`
  /// is borrowed and may be null (no injected faults).  With
  /// `open_now` false the writer starts closed — the existing journal
  /// file is left untouched until the first rewrite() replaces it
  /// atomically (how recovery re-journals without risking the old log).
  JournalWriter(std::string path, IoFaultClock* clock, bool open_now = true);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Adds one record to the open commit group and returns its sequence
  /// number.  Nothing reaches the file until commit().
  std::uint64_t stage(RecordType type, std::string_view payload);

  /// Adds a blob frame holding `keys` to the open commit group and
  /// returns where the keys will lie in the journal file.  No copy:
  /// commit() writes straight from `keys`, which must stay valid and
  /// unchanged until then.  A group's blobs precede its records.
  SpillRef stage_blob(std::span<const Key> keys);

  /// Commits the staged group — its blob frames, then its records — as
  /// one write (one short-write draw; a short write is completed, never
  /// torn) and one fsync (one drop-sync draw), then the kill hook.  A
  /// no-op when no record is staged.
  void commit();

  /// stage() + commit(): a one-record group.
  std::uint64_t append(RecordType type, std::string_view payload);

  /// Atomically replaces the journal with `records` (compaction),
  /// discarding any staged group — the caller's records supersede it.
  /// The records are encoded as one group, sequences 1..n, and written
  /// with write_file_atomic; no blob is copied, so the caller retires
  /// the outgoing file first when its blobs must outlive it.  If a
  /// dropped sync left the outgoing journal's tail unsynced, it is
  /// synced first: the compacted records may name its blobs.  The
  /// writer then re-opens for append with seq = n.  The rename is the
  /// commit point: a crash before it leaves the *old* journal intact.
  /// The kill hook counts these records too and fires after the rename.
  void rewrite(
      const std::vector<std::pair<RecordType, std::string>>& records);

  /// Deterministic crash: once the group holding the N-th committed
  /// record (counting from the writer's construction) commits, truncate
  /// to the synced size and throw DurabilityKill.  0 disables.
  void set_kill_after(std::int64_t records) { kill_after_ = records; }

  [[nodiscard]] std::int64_t records_committed() const noexcept {
    return committed_;
  }
  /// Record bytes written, compactions included; blob frames are not
  /// counted.
  [[nodiscard]] std::int64_t bytes_written() const noexcept { return bytes_; }
  [[nodiscard]] std::int64_t syncs() const noexcept { return syncs_; }
  [[nodiscard]] std::int64_t compactions() const noexcept {
    return compactions_;
  }

 private:
  void open_fresh(const std::string& path);
  void close_group();
  void maybe_kill();

  /// A staged blob frame: its encoded header and the caller's keys.
  struct StagedBlob {
    std::string header;
    std::span<const Key> keys;
  };

  std::string path_;
  std::string name_;  ///< path_'s file name, as blob refs name it
  IoFaultClock* clock_;
  int fd_ = -1;
  std::uint64_t seq_ = 0;
  std::vector<StagedBlob> blobs_;
  std::int64_t blob_bytes_ = 0;  ///< staged blob frames, headers included
  std::vector<iovec> parts_;     ///< the group write, rebuilt per commit
  std::string group_;  ///< the staged records, encoded
  std::uint64_t group_records_ = 0;
  std::size_t last_record_ = 0;  ///< offset of the last staged record
  std::int64_t written_size_ = 0;
  std::int64_t synced_size_ = 0;
  std::int64_t committed_ = 0;
  std::int64_t bytes_ = 0;
  std::int64_t syncs_ = 0;
  std::int64_t compactions_ = 0;
  std::int64_t kill_after_ = 0;
};

}  // namespace prodsort
