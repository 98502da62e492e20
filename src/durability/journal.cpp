#include "durability/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "durability/atomic_file.hpp"

namespace prodsort {

namespace {

constexpr std::uint32_t kRecordMagic = 0x50534a4cu;  // "PSJL"
// Header: magic(4) + seq(8) + type(2) + flags(2) + len(4); the CRC(4)
// trails the payload.
constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kFlagsOffset = 14;
constexpr std::size_t kCrcBytes = 4;
// Flags bit 0: more records of this commit group follow.  A record
// without it closes its group; a journal written one record per group
// (flags 0) replays exactly as before groups existed.
constexpr std::uint16_t kGroupContinues = 1;
// Payloads are small (a few dozen bytes); anything above this is a
// corrupted length field, not a real record — refusing early keeps a
// flipped length bit from swallowing the rest of the file as "payload".
constexpr std::uint32_t kMaxPayloadBytes = 1u << 24;
// A blob frame shares the record header's layout (sequence 0, flags 0)
// under a type no record uses, far from every record type in bits, and
// its CRC follows the header directly: the raw keys come after it.
constexpr std::uint16_t kBlobFrameType = 0x8000;
constexpr std::size_t kBlobHeaderBytes = kHeaderBytes + kCrcBytes;

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint16_t get_u16(std::string_view data, std::size_t pos) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint8_t>(data[pos]) |
      (static_cast<std::uint16_t>(static_cast<std::uint8_t>(data[pos + 1]))
       << 8));
}

std::uint32_t get_u32(std::string_view data, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) |
        static_cast<std::uint8_t>(data[pos + static_cast<std::size_t>(i)]);
  return v;
}

std::uint64_t get_u64(std::string_view data, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) |
        static_cast<std::uint8_t>(data[pos + static_cast<std::size_t>(i)]);
  return v;
}

[[noreturn]] void replay_fail(std::int64_t offset, const std::string& why) {
  throw std::runtime_error("journal corrupt at offset " +
                           std::to_string(offset) + ": " + why);
}

void append_record(std::string& out, std::uint64_t seq, RecordType type,
                   std::string_view payload, bool group_end) {
  if (payload.size() > kMaxPayloadBytes)
    throw std::runtime_error("journal payload too large: " +
                             std::to_string(payload.size()) + " bytes");
  const std::size_t start = out.size();
  put_u32(out, kRecordMagic);
  put_u64(out, seq);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u16(out, group_end ? 0 : kGroupContinues);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_u32(out, crc32_ieee(std::string_view(out).substr(start)));
}

}  // namespace

std::string to_string(RecordType type) {
  switch (type) {
    case RecordType::kConfig: return "config";
    case RecordType::kBatchIngested: return "batch-ingested";
    case RecordType::kRunDispatched: return "run-dispatched";
    case RecordType::kRunVerified: return "run-verified";
    case RecordType::kIngestDone: return "ingest-done";
    case RecordType::kRangeSealed: return "range-sealed";
    case RecordType::kLedgerDelta: return "ledger-delta";
    case RecordType::kSnapshot: return "snapshot";
  }
  return "unknown(" +
         std::to_string(static_cast<std::uint16_t>(type)) + ")";
}

std::uint32_t crc32_ieee(std::string_view data) {
  std::uint32_t crc = 0xffffffffu;
  for (const char c : data)
    crc = kCrcTable[(crc ^ static_cast<std::uint8_t>(c)) & 0xffu] ^
          (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::string encode_record(std::uint64_t seq, RecordType type,
                          std::string_view payload, bool group_end) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + kCrcBytes);
  append_record(out, seq, type, payload, group_end);
  return out;
}

std::string encode_blob_header(std::uint32_t bytes) {
  std::string out;
  out.reserve(kBlobHeaderBytes);
  put_u32(out, kRecordMagic);
  put_u64(out, 0);
  put_u16(out, kBlobFrameType);
  put_u16(out, 0);
  put_u32(out, bytes);
  put_u32(out, crc32_ieee(out));
  return out;
}

JournalReplay replay_journal_buffer(std::string_view buffer) {
  JournalReplay replay;
  std::size_t pos = 0;
  std::uint64_t expect_seq = 1;
  // Where the open commit group began, and its first record's index:
  // whatever replays past here commits only when a record closes it.
  std::size_t group_start = 0;
  std::size_t group_first = 0;
  // A record that fails *because the file ends* is a torn tail; the
  // same failure with bytes after it is bit rot.  torn() decides which.
  const auto torn = [&](std::size_t record_end, const std::string& why) {
    if (record_end >= buffer.size()) return true;
    replay_fail(static_cast<std::int64_t>(pos), why);
  };
  while (pos < buffer.size()) {
    if (pos + kHeaderBytes > buffer.size()) break;  // truncated header
    const std::uint32_t magic = get_u32(buffer, pos);
    const std::uint64_t seq = get_u64(buffer, pos + 4);
    const std::uint16_t type_raw = get_u16(buffer, pos + 12);
    const std::uint16_t flags = get_u16(buffer, pos + kFlagsOffset);
    const std::uint32_t len = get_u32(buffer, pos + 16);
    // A torn append leaves a *prefix* of a valid record; with the full
    // header present, its fields are genuine.  A bad magic or an
    // implausible length here is therefore rot, never a tear — even at
    // end-of-file.
    if (magic != kRecordMagic)
      replay_fail(static_cast<std::int64_t>(pos), "bad magic");
    if (type_raw == kBlobFrameType) {
      // A blob frame: skipped by its header, which its own CRC checks.
      // It belongs to the group its next records close; one running past
      // end-of-file ends the loop with that group unclosed (torn).
      if (pos + kBlobHeaderBytes > buffer.size()) break;  // truncated header
      const std::size_t frame_end = pos + kBlobHeaderBytes + len;
      const std::uint32_t stored_crc = get_u32(buffer, pos + kHeaderBytes);
      if (stored_crc != crc32_ieee(buffer.substr(pos, kHeaderBytes)) &&
          torn(frame_end, "bad CRC on blob frame header"))
        break;
      pos = frame_end;
      continue;
    }
    if (len > kMaxPayloadBytes)
      replay_fail(static_cast<std::int64_t>(pos),
                  "implausible payload length " + std::to_string(len));
    const std::size_t record_end = pos + kHeaderBytes + len + kCrcBytes;
    if (record_end > buffer.size()) break;  // truncated record
    const std::uint32_t stored_crc =
        get_u32(buffer, record_end - kCrcBytes);
    const std::uint32_t actual_crc =
        crc32_ieee(buffer.substr(pos, kHeaderBytes + len));
    if (stored_crc != actual_crc &&
        torn(record_end, "bad CRC on record seq " + std::to_string(seq) +
                             " (stored " + std::to_string(stored_crc) +
                             ", computed " + std::to_string(actual_crc) +
                             ")"))
      break;
    // CRC passed: the record committed, so structural violations from
    // here on are real errors even at EOF.
    if (type_raw < 1 ||
        type_raw > static_cast<std::uint16_t>(RecordType::kSnapshot))
      replay_fail(static_cast<std::int64_t>(pos),
                  "unknown record type " + std::to_string(type_raw));
    if (seq < expect_seq)
      replay_fail(static_cast<std::int64_t>(pos),
                  "duplicate sequence " + std::to_string(seq) +
                      " (expected " + std::to_string(expect_seq) + ")");
    if (seq > expect_seq)
      replay_fail(static_cast<std::int64_t>(pos),
                  "sequence gap: got " + std::to_string(seq) +
                      ", expected " + std::to_string(expect_seq));
    JournalRecord record;
    record.seq = seq;
    record.type = static_cast<RecordType>(type_raw);
    record.payload = std::string(buffer.substr(pos + kHeaderBytes, len));
    record.offset = static_cast<std::int64_t>(pos);
    record.end_offset = static_cast<std::int64_t>(record_end);
    record.group_end = (flags & kGroupContinues) == 0;
    replay.records.push_back(std::move(record));
    ++expect_seq;
    pos = record_end;
    if (replay.records.back().group_end) {
      replay.last_group_offset = static_cast<std::int64_t>(group_start);
      group_start = pos;
      group_first = replay.records.size();
    }
  }
  // Everything past the last closed group is the uncommitted write a
  // crash interrupted: a torn record, or whole records of an open group.
  replay.records.resize(group_first);
  replay.valid_bytes = static_cast<std::int64_t>(group_start);
  replay.torn_bytes = static_cast<std::int64_t>(buffer.size() - group_start);
  replay.torn_tail = replay.torn_bytes > 0;
  return replay;
}

JournalReplay replay_journal(const std::string& path, IoFaultClock* clock) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open journal: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  if (clock != nullptr && !bytes.empty()) {
    std::uint64_t bit_hash = 0;
    if (clock->draw_read_corrupt(&bit_hash)) {
      const std::size_t bit = bit_hash % (bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
  }
  return replay_journal_buffer(bytes);
}

// --- payload packing -----------------------------------------------------

void PayloadWriter::u32(std::uint32_t v) { put_u32(out_, v); }
void PayloadWriter::u64(std::uint64_t v) { put_u64(out_, v); }

void PayloadWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void PayloadWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  out_.append(v);
}

void PayloadWriter::fp(const FingerprintState& v) {
  u64(v.sum);
  u64(v.xor_mix);
  u64(v.count);
}

void PayloadReader::need(std::size_t bytes) const {
  if (pos_ + bytes > data_.size())
    throw std::runtime_error(std::string("truncated ") + what_ +
                             " payload at byte " + std::to_string(pos_));
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t PayloadReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(data_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(data_, pos_);
  pos_ += 8;
  return v;
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string PayloadReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string v(data_.substr(pos_, len));
  pos_ += len;
  return v;
}

FingerprintState PayloadReader::fp() {
  FingerprintState v;
  v.sum = u64();
  v.xor_mix = u64();
  v.count = u64();
  return v;
}

void PayloadReader::finish() const {
  if (pos_ != data_.size())
    throw std::runtime_error(std::string("trailing garbage in ") + what_ +
                             " payload: " +
                             std::to_string(data_.size() - pos_) +
                             " unconsumed bytes");
}

// --- typed records -------------------------------------------------------

std::string BatchIngestedRecord::encode() const {
  PayloadWriter w;
  w.i64(batch);
  w.i64(keys);
  w.u64(checksum);
  w.u64(chain_after);
  return w.take();
}

BatchIngestedRecord BatchIngestedRecord::decode(std::string_view payload) {
  PayloadReader r(payload, "batch-ingested");
  BatchIngestedRecord v;
  v.batch = r.i64();
  v.keys = r.i64();
  v.checksum = r.u64();
  v.chain_after = r.u64();
  r.finish();
  return v;
}

std::string RunDispatchedRecord::encode() const {
  PayloadWriter w;
  w.i64(run);
  w.i32(range);
  w.i64(pad);
  w.i64(keys);
  w.fp(fp);
  w.i64(file_bytes);
  w.str(file);
  w.i64(offset);
  return w.take();
}

RunDispatchedRecord RunDispatchedRecord::decode(std::string_view payload) {
  PayloadReader r(payload, "run-dispatched");
  RunDispatchedRecord v;
  v.run = r.i64();
  v.range = r.i32();
  v.pad = r.i64();
  v.keys = r.i64();
  v.fp = r.fp();
  v.file_bytes = r.i64();
  v.file = r.str();
  v.offset = r.i64();
  r.finish();
  return v;
}

std::string RunVerifiedRecord::encode() const {
  PayloadWriter w;
  w.i64(run);
  w.i64(keys);
  w.fp(fp);
  w.i64(file_bytes);
  w.str(file);
  w.i64(offset);
  return w.take();
}

RunVerifiedRecord RunVerifiedRecord::decode(std::string_view payload) {
  PayloadReader r(payload, "run-verified");
  RunVerifiedRecord v;
  v.run = r.i64();
  v.keys = r.i64();
  v.fp = r.fp();
  v.file_bytes = r.i64();
  v.file = r.str();
  v.offset = r.i64();
  r.finish();
  return v;
}

std::string IngestDoneRecord::encode() const {
  PayloadWriter w;
  w.i64(batches);
  w.fp(ingest);
  w.u64(chain);
  w.i64(keys_ingested);
  w.i64(runs_total);
  w.i64(padded_keys);
  w.i64(forced_cuts);
  return w.take();
}

IngestDoneRecord IngestDoneRecord::decode(std::string_view payload) {
  PayloadReader r(payload, "ingest-done");
  IngestDoneRecord v;
  v.batches = r.i64();
  v.ingest = r.fp();
  v.chain = r.u64();
  v.keys_ingested = r.i64();
  v.runs_total = r.i64();
  v.padded_keys = r.i64();
  v.forced_cuts = r.i64();
  r.finish();
  return v;
}

std::string RangeSealedRecord::encode() const {
  PayloadWriter w;
  w.i32(range);
  w.i64(keys);
  w.fp(fp);
  w.u8(has_keys);
  w.i64(static_cast<std::int64_t>(first));
  w.i64(static_cast<std::int64_t>(last));
  w.i64(file_bytes);
  return w.take();
}

RangeSealedRecord RangeSealedRecord::decode(std::string_view payload) {
  PayloadReader r(payload, "range-sealed");
  RangeSealedRecord v;
  v.range = r.i32();
  v.keys = r.i64();
  v.fp = r.fp();
  v.has_keys = r.u8();
  v.first = static_cast<Key>(r.i64());
  v.last = static_cast<Key>(r.i64());
  v.file_bytes = r.i64();
  r.finish();
  return v;
}

std::string LedgerDeltaRecord::encode() const {
  PayloadWriter w;
  w.i64(spill_accounted);
  w.i64(spill_measured);
  w.i64(resident_used);
  w.i64(spill_high);
  return w.take();
}

LedgerDeltaRecord LedgerDeltaRecord::decode(std::string_view payload) {
  PayloadReader r(payload, "ledger-delta");
  LedgerDeltaRecord v;
  v.spill_accounted = r.i64();
  v.spill_measured = r.i64();
  v.resident_used = r.i64();
  v.spill_high = r.i64();
  r.finish();
  return v;
}

std::string SnapshotRecord::encode() const {
  PayloadWriter w;
  w.i64(batches);
  w.fp(ingest);
  w.u64(chain);
  w.i64(keys_ingested);
  w.i64(runs_total);
  w.i64(padded_keys);
  w.i64(forced_cuts);
  return w.take();
}

SnapshotRecord SnapshotRecord::decode(std::string_view payload) {
  PayloadReader r(payload, "snapshot");
  SnapshotRecord v;
  v.batches = r.i64();
  v.ingest = r.fp();
  v.chain = r.u64();
  v.keys_ingested = r.i64();
  v.runs_total = r.i64();
  v.padded_keys = r.i64();
  v.forced_cuts = r.i64();
  r.finish();
  return v;
}

// --- the writer ----------------------------------------------------------

JournalWriter::JournalWriter(std::string path, IoFaultClock* clock,
                             bool open_now)
    : path_(std::move(path)),
      name_(path_.substr(path_.find_last_of('/') + 1)),
      clock_(clock) {
  if (open_now) open_fresh(path_);
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::open_fresh(const std::string& path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0)
    throw std::runtime_error("cannot open journal for append: " + path +
                             ": " + std::strerror(errno));
  written_size_ = 0;
  synced_size_ = 0;
}

void JournalWriter::maybe_kill() {
  if (kill_after_ <= 0 || committed_ < kill_after_) return;
  // Model the power cut: everything past the last *successful* fsync
  // is gone, which is how dropped-fsync injections become observable.
  if (::ftruncate(fd_, static_cast<off_t>(synced_size_)) != 0)
    throw std::runtime_error("journal truncate failed: " + path_ + ": " +
                             std::strerror(errno));
  ::fsync(fd_);
  throw DurabilityKill(static_cast<std::uint64_t>(kill_after_));
}

std::uint64_t JournalWriter::stage(RecordType type,
                                   std::string_view payload) {
  // Staged with the continues flag set; close_group() clears it on the
  // group's last record.
  last_record_ = group_.size();
  append_record(group_, seq_ + group_records_ + 1, type, payload,
                /*group_end=*/false);
  return seq_ + ++group_records_;
}

SpillRef JournalWriter::stage_blob(std::span<const Key> keys) {
  if (keys.size_bytes() > UINT32_MAX)
    throw std::runtime_error("journal blob too large: " +
                             std::to_string(keys.size_bytes()) + " bytes");
  const auto bytes = static_cast<std::int64_t>(keys.size_bytes());
  const SpillRef ref{name_,
                     written_size_ + blob_bytes_ +
                         static_cast<std::int64_t>(kBlobHeaderBytes),
                     bytes};
  blobs_.push_back(
      {encode_blob_header(static_cast<std::uint32_t>(bytes)), keys});
  blob_bytes_ += static_cast<std::int64_t>(kBlobHeaderBytes) + bytes;
  return ref;
}

void JournalWriter::close_group() {
  group_[last_record_ + kFlagsOffset] = 0;  // kGroupContinues, the only bit
  const std::uint32_t crc = crc32_ieee(std::string_view(group_).substr(
      last_record_, group_.size() - kCrcBytes - last_record_));
  group_.resize(group_.size() - kCrcBytes);
  put_u32(group_, crc);
}

void JournalWriter::commit() {
  if (group_records_ == 0) return;
  if (fd_ < 0)
    throw std::logic_error("journal commit before rewrite on a deferred "
                           "writer: " +
                           path_);
  close_group();
  // One write: the blob frames, then the records that name them.
  parts_.clear();
  for (StagedBlob& blob : blobs_) {
    parts_.push_back({blob.header.data(), blob.header.size()});
    parts_.push_back(
        {const_cast<Key*>(blob.keys.data()), blob.keys.size_bytes()});
  }
  parts_.push_back({group_.data(), group_.size()});
  const std::int64_t total =
      blob_bytes_ + static_cast<std::int64_t>(group_.size());
  // An injected short write lands the first half alone; the writer
  // completes the remainder, exactly how it handles a real short count.
  if (clock_ != nullptr && total > 1 && clock_->draw_short_write()) {
    std::vector<iovec> half;
    auto want = static_cast<std::size_t>(total / 2);
    std::size_t i = 0;
    for (; want >= parts_[i].iov_len; ++i) {
      want -= parts_[i].iov_len;
      half.push_back(parts_[i]);
    }
    half.push_back({parts_[i].iov_base, want});
    parts_[i].iov_base = static_cast<char*>(parts_[i].iov_base) + want;
    parts_[i].iov_len -= want;
    parts_.erase(parts_.begin(), parts_.begin() + static_cast<std::ptrdiff_t>(i));
    write_fully(fd_, half, path_);
  }
  write_fully(fd_, parts_, path_);
  written_size_ += total;
  bytes_ += static_cast<std::int64_t>(group_.size());
  seq_ += group_records_;
  committed_ += static_cast<std::int64_t>(group_records_);
  group_.clear();
  group_records_ = 0;
  blobs_.clear();
  blob_bytes_ = 0;
  ++syncs_;
  if (clock_ == nullptr || !clock_->draw_drop_sync()) {  // else fsync lied
    if (::fsync(fd_) != 0)
      throw std::runtime_error("journal fsync failed: " + path_ + ": " +
                               std::strerror(errno));
    synced_size_ = written_size_;
  }
  maybe_kill();
}

std::uint64_t JournalWriter::append(RecordType type,
                                    std::string_view payload) {
  const std::uint64_t seq = stage(type, payload);
  commit();
  return seq;
}

void JournalWriter::rewrite(
    const std::vector<std::pair<RecordType, std::string>>& records) {
  // The compacted records may name blobs of the outgoing file, so a
  // tail a dropped sync left unsynced is made durable before the rename.
  if (fd_ >= 0 && synced_size_ < written_size_ && ::fsync(fd_) != 0)
    throw std::runtime_error("journal fsync failed: " + path_ + ": " +
                             std::strerror(errno));
  // The compacted journal is one group numbered from 1; it supersedes
  // whatever was staged.
  group_.clear();
  group_records_ = 0;
  blobs_.clear();
  blob_bytes_ = 0;
  seq_ = 0;
  for (const auto& [type, payload] : records) stage(type, payload);
  if (group_records_ > 0) close_group();
  // The point of no return is the rename inside: before it the old
  // journal is untouched, so a crash replays the pre-compaction state;
  // after it, the compacted journal is the journal.
  write_file_atomic(path_, group_);
  // Re-open for append at the compacted tail.
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0)
    throw std::runtime_error("cannot re-open compacted journal: " + path_ +
                             ": " + std::strerror(errno));
  seq_ = group_records_;
  written_size_ = static_cast<std::int64_t>(group_.size());
  synced_size_ = written_size_;
  bytes_ += written_size_;
  committed_ += static_cast<std::int64_t>(group_records_);
  group_.clear();
  group_records_ = 0;
  ++compactions_;
  maybe_kill();
}

}  // namespace prodsort
