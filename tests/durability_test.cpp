// Durability layer (src/durability/, docs/DURABILITY.md): the
// CRC-checksummed write-ahead journal and its replay integrity rules
// (torn tail and torn group vs bit rot vs sequence violations), the
// typed record payloads, spill blobs in the journal's groups, the
// generations a compaction retires them to and the spill ledger's
// reconciliation, one commit group per stream event, atomic whole-file
// replacement, deterministic I/O fault injection —
// and the headline contract: killing a durable StreamingSorter after
// *every* journal record boundary and recovering yields output,
// certificate chain, and fingerprints bit-identical to an
// uninterrupted run, with zero batches re-ingested once the stream
// flushed.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/certifier.hpp"
#include "durability/atomic_file.hpp"
#include "durability/io_faults.hpp"
#include "durability/journal.hpp"
#include "durability/spill_store.hpp"
#include "graph/labeled_factor.hpp"
#include "network/parallel_executor.hpp"
#include "stream/recovery.hpp"
#include "stream/streaming_sorter.hpp"

namespace prodsort {
namespace {

// --- scratch directories -------------------------------------------------

/// Fresh empty scratch directory under the gtest temp root; any
/// leftover from a previous (crashed) test run is cleared first.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "prodsort_dur_" + name;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string leaf = entry->d_name;
      if (leaf != "." && leaf != "..") ::unlink((dir + "/" + leaf).c_str());
    }
    ::closedir(d);
  } else {
    ::mkdir(dir.c_str(), 0755);
  }
  return dir;
}

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_whole_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<std::string> dir_entries(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* entry = ::readdir(d)) {
    const std::string leaf = entry->d_name;
    if (leaf != "." && leaf != "..") out.push_back(leaf);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

// --- CRC and record encoding ---------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32/ISO-HDLC check vector.
  EXPECT_EQ(crc32_ieee("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32_ieee(""), 0u);
  EXPECT_NE(crc32_ieee("abc"), crc32_ieee("abd"));
}

TEST(Journal, EncodeReplayRoundTrip) {
  std::string buffer;
  buffer += encode_record(1, RecordType::kConfig, "cfg");
  buffer += encode_record(2, RecordType::kBatchIngested, "");
  buffer += encode_record(3, RecordType::kRangeSealed, std::string(1000, 'x'));
  const JournalReplay replay = replay_journal_buffer(buffer);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.torn_bytes, 0);
  EXPECT_EQ(replay.valid_bytes, static_cast<std::int64_t>(buffer.size()));
  EXPECT_EQ(replay.records[0].payload, "cfg");
  EXPECT_EQ(replay.records[1].type, RecordType::kBatchIngested);
  EXPECT_EQ(replay.records[2].payload.size(), 1000u);
  EXPECT_EQ(replay.records[0].offset, 0);
  EXPECT_EQ(replay.records[1].offset, replay.records[0].end_offset);
}

TEST(Journal, EveryTruncationPointIsATornTailNeverAnError) {
  // A crash can cut the file at *any* byte.  Whatever the cut point,
  // replay must keep every fully committed record and report — never
  // throw on — the incomplete tail.
  std::string buffer;
  std::vector<std::size_t> boundaries = {0};
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    buffer += encode_record(seq, RecordType::kLedgerDelta,
                            std::string(7 * seq, static_cast<char>(seq)));
    boundaries.push_back(buffer.size());
  }
  for (std::size_t cut = 0; cut <= buffer.size(); ++cut) {
    const JournalReplay replay =
        replay_journal_buffer(std::string_view(buffer).substr(0, cut));
    const std::size_t complete = static_cast<std::size_t>(
        std::upper_bound(boundaries.begin(), boundaries.end(), cut) -
        boundaries.begin() - 1);
    EXPECT_EQ(replay.records.size(), complete) << "cut at byte " << cut;
    EXPECT_EQ(replay.torn_tail, cut != boundaries[complete])
        << "cut at byte " << cut;
    EXPECT_EQ(static_cast<std::size_t>(replay.valid_bytes),
              boundaries[complete]);
  }
}

TEST(Journal, AGroupReplaysWholeOrNotAtAll) {
  // Records 2-4 form one commit group (2 and 3 carry the continues
  // flag).  A crash can cut the group's single write anywhere; records
  // of the group that survive intact must still be discarded, because
  // the group never closed.
  std::string buffer = encode_record(1, RecordType::kConfig, "cfg");
  const std::size_t group_start = buffer.size();
  buffer += encode_record(2, RecordType::kBatchIngested, "b", false);
  buffer += encode_record(3, RecordType::kRunDispatched, "r", false);
  buffer += encode_record(4, RecordType::kIngestDone, "d");
  for (std::size_t cut = group_start; cut < buffer.size(); ++cut) {
    const JournalReplay replay =
        replay_journal_buffer(std::string_view(buffer).substr(0, cut));
    ASSERT_EQ(replay.records.size(), 1u) << "cut at byte " << cut;
    EXPECT_EQ(replay.valid_bytes, static_cast<std::int64_t>(group_start));
    EXPECT_EQ(replay.torn_tail, cut > group_start) << "cut at byte " << cut;
  }
  const JournalReplay whole = replay_journal_buffer(buffer);
  ASSERT_EQ(whole.records.size(), 4u);
  EXPECT_FALSE(whole.torn_tail);
  EXPECT_FALSE(whole.records[1].group_end);
  EXPECT_FALSE(whole.records[2].group_end);
  EXPECT_TRUE(whole.records[3].group_end);
}

TEST(Journal, BadCrcMidFileIsRotButAtEofIsTorn) {
  std::string two = encode_record(1, RecordType::kConfig, "aaaa");
  const std::size_t first_size = two.size();
  two += encode_record(2, RecordType::kBatchIngested, "bbbb");
  // Flip a payload bit of the *first* record: more data follows, so
  // this cannot be a torn write — replay must refuse loudly.
  std::string rotted = two;
  rotted[20] = static_cast<char>(rotted[20] ^ 0x01);
  try {
    (void)replay_journal_buffer(rotted);
    FAIL() << "mid-file bad CRC must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad CRC"), std::string::npos)
        << e.what();
  }
  // The same flip in a record that runs to end-of-file is the classic
  // torn append (half a record made it to disk): discarded, reported.
  std::string torn = two.substr(0, first_size);
  torn[20] = static_cast<char>(torn[20] ^ 0x01);
  const JournalReplay replay = replay_journal_buffer(torn);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(static_cast<std::size_t>(replay.torn_bytes), torn.size());
}

TEST(Journal, BadMagicIsAlwaysRotEvenAtEof) {
  // A torn append leaves a *prefix* of a valid record, so any present
  // header byte is genuine: wrong magic means the bytes were never a
  // record — rot, even with nothing after it.
  std::string buffer = encode_record(1, RecordType::kConfig, "x");
  buffer[0] = static_cast<char>(buffer[0] ^ 0xff);
  try {
    (void)replay_journal_buffer(buffer);
    FAIL() << "bad magic must throw even at EOF";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(Journal, SequenceViolationsAreNamed) {
  std::string dup = encode_record(1, RecordType::kConfig, "a");
  dup += encode_record(1, RecordType::kConfig, "b");
  try {
    (void)replay_journal_buffer(dup);
    FAIL() << "duplicate sequence must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate sequence"),
              std::string::npos)
        << e.what();
  }
  std::string gap = encode_record(1, RecordType::kConfig, "a");
  gap += encode_record(3, RecordType::kConfig, "b");
  try {
    (void)replay_journal_buffer(gap);
    FAIL() << "sequence gap must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sequence gap"), std::string::npos)
        << e.what();
  }
  const std::string unknown =
      encode_record(1, static_cast<RecordType>(99), "a");
  try {
    (void)replay_journal_buffer(unknown);
    FAIL() << "unknown record type must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown record type"),
              std::string::npos)
        << e.what();
  }
}

// --- typed payloads ------------------------------------------------------

FingerprintState sample_fp() {
  FingerprintAccumulator acc;
  for (Key k : {3, 1, 4, 1, 5}) acc.absorb(k);
  return acc.state();
}

TEST(JournalRecords, EveryTypeRoundTrips) {
  const FingerprintState fp = sample_fp();
  {
    const BatchIngestedRecord r{7, 512, 0xdeadbeefu, 0xfeedfaceu};
    const BatchIngestedRecord back = BatchIngestedRecord::decode(r.encode());
    EXPECT_EQ(back.batch, r.batch);
    EXPECT_EQ(back.keys, r.keys);
    EXPECT_EQ(back.checksum, r.checksum);
    EXPECT_EQ(back.chain_after, r.chain_after);
  }
  {
    const RunDispatchedRecord r{9, 2, 3, 61, fp, 512};
    const RunDispatchedRecord back = RunDispatchedRecord::decode(r.encode());
    EXPECT_EQ(back.run, r.run);
    EXPECT_EQ(back.range, r.range);
    EXPECT_EQ(back.pad, r.pad);
    EXPECT_EQ(back.keys, r.keys);
    EXPECT_EQ(back.fp, r.fp);
    EXPECT_EQ(back.file_bytes, r.file_bytes);
  }
  {
    const RunVerifiedRecord r{9, 61, fp, 488};
    const RunVerifiedRecord back = RunVerifiedRecord::decode(r.encode());
    EXPECT_EQ(back.run, r.run);
    EXPECT_EQ(back.keys, r.keys);
    EXPECT_EQ(back.fp, r.fp);
    EXPECT_EQ(back.file_bytes, r.file_bytes);
  }
  {
    const IngestDoneRecord r{6, fp, 0xabcdu, 600, 10, 3, 1};
    const IngestDoneRecord back = IngestDoneRecord::decode(r.encode());
    EXPECT_EQ(back.batches, r.batches);
    EXPECT_EQ(back.ingest, r.ingest);
    EXPECT_EQ(back.chain, r.chain);
    EXPECT_EQ(back.keys_ingested, r.keys_ingested);
    EXPECT_EQ(back.runs_total, r.runs_total);
    EXPECT_EQ(back.padded_keys, r.padded_keys);
    EXPECT_EQ(back.forced_cuts, r.forced_cuts);
  }
  {
    const RangeSealedRecord r{3, 128, fp, 1, -50, 999, 1024};
    const RangeSealedRecord back = RangeSealedRecord::decode(r.encode());
    EXPECT_EQ(back.range, r.range);
    EXPECT_EQ(back.keys, r.keys);
    EXPECT_EQ(back.fp, r.fp);
    EXPECT_EQ(back.has_keys, r.has_keys);
    EXPECT_EQ(back.first, r.first);
    EXPECT_EQ(back.last, r.last);
    EXPECT_EQ(back.file_bytes, r.file_bytes);
  }
  {
    const LedgerDeltaRecord r{100, 100, 64, 4096};
    const LedgerDeltaRecord back = LedgerDeltaRecord::decode(r.encode());
    EXPECT_EQ(back.spill_accounted, r.spill_accounted);
    EXPECT_EQ(back.spill_measured, r.spill_measured);
    EXPECT_EQ(back.resident_used, r.resident_used);
    EXPECT_EQ(back.spill_high, r.spill_high);
  }
  {
    const SnapshotRecord r{6, fp, 0xabcdu, 600, 10, 3, 1};
    const SnapshotRecord back = SnapshotRecord::decode(r.encode());
    EXPECT_EQ(back.batches, r.batches);
    EXPECT_EQ(back.ingest, r.ingest);
    EXPECT_EQ(back.chain, r.chain);
  }
}

TEST(JournalRecords, TruncatedAndOversizedPayloadsAreNamedErrors) {
  const RunDispatchedRecord r{9, 2, 3, 61, sample_fp(), 512};
  const std::string good = r.encode();
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    try {
      (void)RunDispatchedRecord::decode(good.substr(0, cut));
      FAIL() << "truncated payload (cut " << cut << ") must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("run-dispatched"),
                std::string::npos)
          << e.what();
    }
  }
  try {
    (void)RunDispatchedRecord::decode(good + "extra");
    FAIL() << "trailing garbage must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
  }
}

TEST(Certifier, FingerprintStateRoundTripsThroughTheAccumulator) {
  FingerprintAccumulator acc;
  for (int i = 0; i < 100; ++i) acc.absorb(static_cast<Key>(i * 37 - 50));
  const FingerprintState state = acc.state();
  const FingerprintAccumulator back = FingerprintAccumulator::from_state(state);
  EXPECT_EQ(back.state(), state);
  EXPECT_EQ(back.finalize().checksum, acc.finalize().checksum);
  EXPECT_EQ(back.finalize().count, acc.finalize().count);
}

// --- io-fault schedule token ---------------------------------------------

TEST(IoFaults, TokenRoundTripsBitIdentically) {
  EXPECT_EQ(format_io_faults(IoFaultConfig{}), "none");
  EXPECT_EQ(parse_io_faults("none"), IoFaultConfig{});
  IoFaultConfig cfg;
  cfg.seed = 99;
  cfg.short_write_rate = 0.125;
  cfg.drop_sync_rate = 1.0 / 3.0;
  cfg.read_corrupt_rate = 0.0078125;
  EXPECT_EQ(parse_io_faults(format_io_faults(cfg)), cfg);
}

TEST(IoFaults, MalformedTokensAreNamed) {
  for (const char* bad :
       {"", "bogus@1", "shortw@", "shortw@1.5", "shortw@-0.1", "shortw@x",
        "shortw@0.1+shortw@0.2", "ioseed@", "shortw@0.1++corrupt@0.1"}) {
    try {
      (void)parse_io_faults(bad);
      FAIL() << "'" << bad << "' must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("journal token"), std::string::npos)
          << e.what();
    }
  }
}

TEST(IoFaults, ClockDrawsAreDeterministicAndCounted) {
  IoFaultConfig cfg;
  cfg.seed = 5;
  cfg.short_write_rate = 0.5;
  IoFaultClock a(cfg);
  IoFaultClock b(cfg);
  std::int64_t fired = 0;
  for (int i = 0; i < 64; ++i) {
    const bool hit = a.draw_short_write();
    EXPECT_EQ(hit, b.draw_short_write()) << "draw " << i;
    fired += hit ? 1 : 0;
  }
  EXPECT_EQ(a.short_writes(), fired);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
  EXPECT_EQ(a.dropped_syncs(), 0);
}

// --- journal writer ------------------------------------------------------

TEST(JournalWriter, AppendsReplayAndCompactionsReplaceAtomically) {
  const std::string dir = scratch_dir("writer");
  const std::string path = dir + "/wal.log";
  JournalWriter writer(path, nullptr);
  EXPECT_EQ(writer.append(RecordType::kConfig, "cfg"), 1u);
  EXPECT_EQ(writer.append(RecordType::kBatchIngested, "b0"), 2u);
  EXPECT_EQ(writer.append(RecordType::kBatchIngested, "b1"), 3u);
  JournalReplay replay = replay_journal(path);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_FALSE(replay.torn_tail);

  // Compaction: the surviving set renumbers from 1 and the old prefix
  // is gone; appends continue from the new tail.
  writer.rewrite({{RecordType::kConfig, "cfg"},
                  {RecordType::kRangeSealed, "sealed"}});
  EXPECT_EQ(writer.compactions(), 1);
  EXPECT_EQ(writer.append(RecordType::kLedgerDelta, "delta"), 3u);
  replay = replay_journal(path);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[1].type, RecordType::kRangeSealed);
  EXPECT_EQ(replay.records[2].payload, "delta");
  EXPECT_EQ(writer.records_committed(), 6);
}

TEST(JournalWriter, StagedRecordsCommitAsOneGroupWithOneSync) {
  const std::string dir = scratch_dir("group");
  const std::string path = dir + "/wal.log";
  JournalWriter writer(path, nullptr);
  EXPECT_EQ(writer.stage(RecordType::kConfig, "cfg"), 1u);
  EXPECT_EQ(writer.stage(RecordType::kBatchIngested, "b0"), 2u);
  EXPECT_EQ(writer.stage(RecordType::kRunDispatched, "r0"), 3u);
  EXPECT_EQ(read_whole_file(path), "") << "nothing is written before commit";
  writer.commit();
  writer.commit();  // nothing staged: no write, no sync
  EXPECT_EQ(writer.syncs(), 1);
  EXPECT_EQ(writer.records_committed(), 3);
  EXPECT_EQ(writer.append(RecordType::kIngestDone, "done"), 4u);
  EXPECT_EQ(writer.syncs(), 2);
  const JournalReplay replay = replay_journal(path);
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_FALSE(replay.records[0].group_end);
  EXPECT_FALSE(replay.records[1].group_end);
  EXPECT_TRUE(replay.records[2].group_end);
  EXPECT_TRUE(replay.records[3].group_end);
  EXPECT_EQ(replay.records[2].payload, "r0");

  // A rewrite supersedes a staged group; the compacted journal is one
  // group of its own.
  writer.stage(RecordType::kBatchIngested, "dropped");
  writer.rewrite({{RecordType::kConfig, "cfg"},
                  {RecordType::kSnapshot, "snap"}});
  writer.commit();
  const JournalReplay compacted = replay_journal(path);
  ASSERT_EQ(compacted.records.size(), 2u);
  EXPECT_FALSE(compacted.records[0].group_end);
  EXPECT_TRUE(compacted.records[1].group_end);
  EXPECT_EQ(writer.syncs(), 2) << "compaction is not a journal append";
}

TEST(JournalWriter, ShortWritesAreCompletedNotTorn) {
  const std::string dir = scratch_dir("shortw");
  IoFaultConfig cfg;
  cfg.seed = 3;
  cfg.short_write_rate = 0.999;  // nearly every append lands short first
  IoFaultClock clock(cfg);
  JournalWriter writer(dir + "/wal.log", &clock);
  for (std::uint64_t i = 1; i <= 8; ++i)
    writer.append(RecordType::kLedgerDelta, std::string(100, 'z'));
  EXPECT_GT(clock.short_writes(), 0);
  const JournalReplay replay = replay_journal(dir + "/wal.log");
  EXPECT_EQ(replay.records.size(), 8u);
  EXPECT_FALSE(replay.torn_tail) << "a completed short write is not a tear";
}

TEST(JournalWriter, DroppedSyncsShrinkTheKillSurvivingPrefix) {
  // With fsync lying half the time, a kill preserves only the synced
  // prefix — strictly less than was written — and what survives still
  // replays as a clean (possibly torn-tailed) journal.
  const std::string dir = scratch_dir("dropsync");
  IoFaultConfig cfg;
  cfg.drop_sync_rate = 0.5;
  // fsync syncs the whole file, so only a drop on the *last* pre-kill
  // sync (the 6th) leaves the durable size short — pick a seed whose
  // 6th draw fires.
  for (cfg.seed = 1; cfg.seed < 200; ++cfg.seed) {
    IoFaultClock probe(cfg);
    bool last = false;
    for (int i = 0; i < 6; ++i) last = probe.draw_drop_sync();
    if (last) break;
  }
  ASSERT_LT(cfg.seed, 200u) << "no seed drops the 6th sync?";
  IoFaultClock clock(cfg);
  JournalWriter writer(dir + "/wal.log", &clock);
  writer.set_kill_after(6);
  try {
    for (std::uint64_t i = 1; i <= 8; ++i)
      writer.append(RecordType::kLedgerDelta, std::string(64, 'q'));
    FAIL() << "kill hook must fire";
  } catch (const DurabilityKill& kill) {
    EXPECT_EQ(kill.records, 6u);
  }
  EXPECT_GT(clock.dropped_syncs(), 0);
  const JournalReplay replay = replay_journal(dir + "/wal.log");
  EXPECT_LT(replay.records.size(), 6u)
      << "dropped fsyncs must cost records at the power cut";
  EXPECT_FALSE(replay.torn_tail)
      << "truncation to the synced size lands on a record boundary";
}

TEST(JournalWriter, DeferredWriterRefusesAppendBeforeRewrite) {
  const std::string dir = scratch_dir("deferred");
  const std::string path = dir + "/wal.log";
  write_whole_file(path, "precious old journal bytes");
  JournalWriter writer(path, nullptr, /*open_now=*/false);
  EXPECT_THROW((void)writer.append(RecordType::kConfig, "x"),
               std::logic_error);
  EXPECT_EQ(read_whole_file(path), "precious old journal bytes")
      << "a deferred writer must not touch the old journal";
  writer.rewrite({{RecordType::kConfig, "fresh"}});
  const JournalReplay replay = replay_journal(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "fresh");
}

TEST(JournalWriter, ReadCorruptionIsCaughtByTheCrc) {
  const std::string dir = scratch_dir("readrot");
  const std::string path = dir + "/wal.log";
  {
    JournalWriter writer(path, nullptr);
    for (std::uint64_t i = 1; i <= 6; ++i)
      writer.append(RecordType::kBatchIngested, std::string(50, 'r'));
  }
  IoFaultConfig cfg;
  cfg.seed = 8;
  cfg.read_corrupt_rate = 0.999;
  IoFaultClock clock(cfg);
  // One hashed bit of the read-back flips; wherever it lands, the CRC
  // discipline classifies it — mid-file rot throws, a flip in the last
  // record is indistinguishable from a torn tail and is discarded.
  // Either way it is *detected*, never absorbed into replayed state.
  try {
    const JournalReplay replay = replay_journal(path, &clock);
    EXPECT_TRUE(replay.torn_tail);
    EXPECT_LT(replay.records.size(), 6u);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("journal corrupt"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(clock.read_corruptions(), 1);
}

// --- spill store ---------------------------------------------------------

/// Little-endian int64 bytes of `keys`: the on-disk form of a blob.
std::string key_bytes(const std::vector<Key>& keys) {
  std::string out;
  for (const Key key : keys)
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<char>(
          (static_cast<std::uint64_t>(key) >> (8 * i)) & 0xff));
  return out;
}

/// Stages `keys` as a blob of the writer's open group, tracked live by
/// `store`, the way the durable stream spills.
SpillRef spill(JournalWriter& writer, SpillStore& store,
               const std::vector<Key>& keys) {
  const SpillRef ref = writer.stage_blob(keys);
  store.track(ref);
  return ref;
}

TEST(SpillStore, RoundTripsKeysAndMeasuresLiveBytes) {
  const std::string dir = scratch_dir("spill");
  const std::string path = dir + "/wal.log";
  JournalWriter writer(path, nullptr);
  SpillStore store(dir, nullptr);
  const std::vector<Key> keys = {5, -3, 0, 1 << 20, -(1LL << 40)};
  const std::vector<Key> more = {7, 8};
  // Two blobs staged in one group land in the journal back to back, each
  // behind its frame header, ahead of the group's records.
  const SpillRef a = spill(writer, store, keys);
  const SpillRef b = spill(writer, store, more);
  writer.stage(RecordType::kRunDispatched, "names a and b");
  const auto header = static_cast<std::int64_t>(encode_blob_header(0).size());
  EXPECT_EQ(a.file, "wal.log");
  EXPECT_EQ(b.file, a.file);
  EXPECT_EQ(a.offset, header);
  EXPECT_EQ(a.bytes, static_cast<std::int64_t>(keys.size() * sizeof(Key)));
  EXPECT_EQ(b.offset, a.offset + a.bytes + header);
  EXPECT_EQ(read_whole_file(path), "") << "nothing is written before commit";
  writer.commit();
  EXPECT_EQ(writer.syncs(), 1) << "blobs and records share one fsync";
  EXPECT_EQ(store.files_created(), 0) << "the journal is not a spill file";
  EXPECT_EQ(store.live_bytes(), a.bytes + b.bytes);
  EXPECT_EQ(store.read(a), keys);
  EXPECT_EQ(store.read(b), more);
  // A blob's bytes are the keys as little-endian int64, nothing else.
  const std::string file = read_whole_file(path);
  EXPECT_EQ(file.substr(0, static_cast<std::size_t>(header)),
            encode_blob_header(static_cast<std::uint32_t>(a.bytes)));
  EXPECT_EQ(file.substr(static_cast<std::size_t>(a.offset),
                        static_cast<std::size_t>(a.bytes)),
            key_bytes(keys));
  EXPECT_EQ(file.substr(static_cast<std::size_t>(b.offset),
                        static_cast<std::size_t>(b.bytes)),
            key_bytes(more));
  EXPECT_EQ(writer.bytes_written(),
            static_cast<std::int64_t>(file.size()) - b.offset - b.bytes)
      << "journal bytes count records only";

  // A second group's blob follows the first group; a sealed range is a
  // whole file of its own.
  const SpillRef c = spill(writer, store, more);
  writer.stage(RecordType::kRunVerified, "names c");
  writer.commit();
  EXPECT_GT(c.offset, static_cast<std::int64_t>(file.size()));
  const SpillRef r = store.write_file(SpillStore::range_name(0), keys);
  EXPECT_EQ(store.files_created(), 1);
  EXPECT_EQ(read_whole_file(store.path_of(r.file)), key_bytes(keys));
  EXPECT_EQ(store.measured_high(), 2 * a.bytes + 2 * b.bytes);

  // Releasing a blob drops its bytes at once; a file goes only with its
  // last blob, only at reap(), and the journal itself never.
  store.release(a);
  EXPECT_EQ(store.live_bytes(), 2 * b.bytes + r.bytes);
  store.release(b);
  store.release(c);
  store.reap();
  EXPECT_EQ(store.read(c), more) << "reap() never unlinks the journal";
  store.release(r);
  EXPECT_EQ(store.read(r), keys) << "a released file stays until reap()";
  store.reap();
  EXPECT_THROW((void)store.read(r), std::runtime_error);
  EXPECT_EQ(store.measured_high(), 2 * a.bytes + 2 * b.bytes)
      << "high-water never recedes";
  EXPECT_THROW((void)store.read(SpillRef{"absent.spill", 0, 8}),
               std::runtime_error);
  EXPECT_THROW(
      (void)store.read(SpillRef{c.file, c.offset, c.bytes + 4096}),
      std::runtime_error)
      << "a blob running past the end of its file is a short read";
}

TEST(SpillStore, AdoptChecksTheJournaledSize) {
  const std::string dir = scratch_dir("adopt");
  const std::vector<Key> keys = {1, 2, 3};
  JournalWriter writer(dir + "/wal.log", nullptr);
  SpillStore store(dir, nullptr);
  spill(writer, store, keys);
  SpillRef ref = spill(writer, store, keys);
  writer.stage(RecordType::kRunDispatched, "r");
  writer.commit();
  ref.file = store.retire(kJournalFile);
  ASSERT_EQ(ref.file, "j0.spill");

  SpillStore fresh(dir, nullptr);
  EXPECT_TRUE(fresh.adopt(ref));
  EXPECT_EQ(fresh.live_bytes(), ref.bytes);
  EXPECT_FALSE(fresh.adopt(SpillRef{"j99.spill", 0, 24}))
      << "an absent file is a recoverable condition, not an error";
  try {
    (void)fresh.adopt(SpillRef{ref.file, ref.offset, ref.bytes + 4096});
    FAIL() << "a blob past the end of its file must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("journal recorded"),
              std::string::npos)
        << e.what();
  }
  // New generations never reuse an existing file name: a crashed run's
  // generations may still be named by its journal.
  spill(writer, fresh, keys);
  writer.stage(RecordType::kRunVerified, "v");
  writer.commit();
  const std::string next = fresh.retire(kJournalFile);
  EXPECT_EQ(next, "j1.spill");
  fresh.reap_orphans();
  EXPECT_EQ(fresh.read(ref), keys) << "an adopted orphan is kept";
}

TEST(SpillStore, UnadoptedOrphansAreReaped) {
  const std::string dir = scratch_dir("orphans");
  const std::vector<Key> keys = {4, 5};
  SpillRef kept;
  SpillRef lost;
  {
    // Two compactions, each retiring a journal that holds one blob.
    JournalWriter writer(dir + "/wal.log", nullptr);
    SpillStore store(dir, nullptr);
    for (SpillRef* ref : {&kept, &lost}) {
      *ref = spill(writer, store, keys);
      writer.stage(RecordType::kRunDispatched, "r");
      writer.commit();
      ref->file = store.retire(kJournalFile);
      writer.rewrite({{RecordType::kConfig, "cfg"}});
    }
  }
  SpillStore fresh(dir, nullptr);
  ASSERT_TRUE(fresh.adopt(kept));
  // Recovery links the replayed journal too; a link nothing adopts is
  // an orphan like any other.
  EXPECT_EQ(fresh.retire_unadopted(kJournalFile), "j2.spill");
  fresh.reap_orphans();
  const std::vector<std::string> left = dir_entries(dir);
  EXPECT_EQ(left, (std::vector<std::string>{kept.file, "wal.log"}));
  EXPECT_NE(kept.file, lost.file);
}

// --- atomic file replacement ---------------------------------------------

TEST(AtomicFile, ReplacesWholeFilesAndSurvivesAStrayTemp) {
  const std::string dir = scratch_dir("atomic");
  const std::string path = dir + "/ledger.json";
  write_file_atomic(path, "{\"v\":1}");
  EXPECT_EQ(read_whole_file(path), "{\"v\":1}");
  write_file_atomic(path, "{\"v\":2}");
  EXPECT_EQ(read_whole_file(path), "{\"v\":2}");
  // A crash mid-persist leaves a truncated `.tmp` beside the file; the
  // real path — what any loader opens — still holds the previous good
  // copy, and the next atomic write simply overwrites the stray temp.
  write_whole_file(path + ".tmp", "{\"v\":3,\"trunc");
  EXPECT_EQ(read_whole_file(path), "{\"v\":2}")
      << "the previous ledger survives an interrupted persist";
  write_file_atomic(path, "{\"v\":4}");
  EXPECT_EQ(read_whole_file(path), "{\"v\":4}");
  EXPECT_THROW(write_file_atomic(dir + "/no_such_dir/x", "y"),
               std::runtime_error);
  EXPECT_EQ(read_whole_file(path), "{\"v\":4}")
      << "a failed atomic write leaves the original untouched";
}

// --- durable streaming: end to end ---------------------------------------

StreamConfig small_config() {
  StreamConfig cfg;
  cfg.seed = 7;
  cfg.batches = 5;
  cfg.batch_keys = 96;
  cfg.ranges = 3;
  cfg.block = 4;  // run_keys = 16 * 4 = 64 on cycle(4)^2
  cfg.budget_bytes = 1 << 14;
  cfg.backends = 2;
  cfg.domains = 2;
  return cfg;
}

struct StreamOutcome {
  StreamReport report;
  std::vector<Key> emitted;
};

StreamOutcome run_stream(const StreamConfig& cfg) {
  const LabeledFactor factor = labeled_cycle(4);
  const ProductGraph pg(factor, 2);
  ParallelExecutor executor(1);
  StreamingSorter sorter(pg, cfg, &executor);
  StreamOutcome out;
  out.report = sorter.run();
  out.emitted = sorter.emitted();
  return out;
}

/// The recovery bit-identity gate: same emitted bytes, same chain,
/// same ingest/sealed multiset fingerprints.  (report.hash() is *not*
/// compared — a recovered run legitimately skips work, so its
/// counters differ.)
void expect_same_stream(const StreamOutcome& expect, const StreamReport& got,
                        const std::vector<Key>& got_emitted,
                        const std::string& label) {
  EXPECT_EQ(got_emitted, expect.emitted) << label;
  EXPECT_EQ(got.chain_hash, expect.report.chain_hash) << label;
  EXPECT_EQ(got.ingest_fp.checksum, expect.report.ingest_fp.checksum)
      << label;
  EXPECT_EQ(got.sealed_fp.checksum, expect.report.sealed_fp.checksum)
      << label;
  EXPECT_EQ(got.keys_emitted, expect.report.keys_emitted) << label;
  EXPECT_TRUE(got.conserved()) << label;
  EXPECT_EQ(got.spill_reconcile_failures, 0) << label;
}

TEST(DurableStream, JournalingDoesNotChangeTheStreamsOutput) {
  const StreamConfig plain = small_config();
  const StreamOutcome baseline = run_stream(plain);
  ASSERT_TRUE(baseline.report.conserved());

  StreamConfig durable = plain;
  durable.journal_dir = scratch_dir("durable_same");
  const StreamOutcome journaled = run_stream(durable);
  expect_same_stream(baseline, journaled.report, journaled.emitted,
                     "durable vs in-memory");
  EXPECT_GT(journaled.report.journal_records, 0);
  EXPECT_GT(journaled.report.journal_compactions, 0)
      << "every seal compacts the log";
  EXPECT_GT(journaled.report.spill_files, 0);
  EXPECT_GT(journaled.report.spill_measured_high_bytes, 0);
  // After a clean finish the journal plus the certified range files —
  // the stream's durable product — remain; every run slice and run
  // output was reaped at seal.
  bool saw_wal = false;
  for (const std::string& leaf : dir_entries(durable.journal_dir)) {
    if (leaf == "wal.log") saw_wal = true;
    EXPECT_NE(leaf.rfind("run", 0), 0u)
        << "sealing must reap every run spill file, found " << leaf;
    EXPECT_FALSE(leaf.ends_with(".spill"))
        << "sealing must reap every generation, found " << leaf;
  }
  EXPECT_TRUE(saw_wal);
}

TEST(DurableStream, FaultPressureStillConvergesBitIdentically) {
  StreamConfig plain = small_config();
  plain.crash_rate = 0.2;
  plain.tear_rate = 0.2;
  plain.faulty = 1;
  const StreamOutcome baseline = run_stream(plain);
  ASSERT_TRUE(baseline.report.conserved());

  StreamConfig durable = plain;
  durable.journal_dir = scratch_dir("durable_faults");
  durable.io_faults.seed = 21;
  durable.io_faults.short_write_rate = 0.3;
  const StreamOutcome journaled = run_stream(durable);
  expect_same_stream(baseline, journaled.report, journaled.emitted,
                     "durable under faults");
  EXPECT_GT(journaled.report.journal_short_writes, 0);
}

TEST(DurableStream, KillAtEveryRecordBoundaryRecoversBitIdentically) {
  // The headline contract.  Run once uninterrupted for the reference
  // and the record count; then for every kill point N, crash after the
  // N-th journal record commits and recover — output, chain, and
  // fingerprints must match the uninterrupted run exactly, and any
  // recovery that restores a sealed range (a post-flush crash) must
  // re-ingest zero batches.
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("kill_ref");
  const StreamOutcome reference = run_stream(cfg);
  ASSERT_TRUE(reference.report.conserved());
  const std::int64_t records = reference.report.journal_records;
  ASSERT_GT(records, 10);

  const LabeledFactor factor = labeled_cycle(4);
  const ProductGraph pg(factor, 2);
  for (std::int64_t kill = 1; kill <= records; ++kill) {
    StreamConfig crashing = cfg;
    crashing.journal_dir = scratch_dir("kill_point");
    crashing.kill_after_records = kill;
    bool killed = false;
    try {
      ParallelExecutor executor(1);
      StreamingSorter sorter(pg, crashing, &executor);
      (void)sorter.run();
    } catch (const DurabilityKill&) {
      killed = true;
    }
    if (!killed) {
      // Kill points past the stream's natural record count (the
      // reference includes compaction rewrites) finish normally.
      continue;
    }
    ParallelExecutor executor(1);
    const StreamRecoveryResult recovered =
        recover_stream(crashing.journal_dir, &executor);
    const std::string label = "kill after record " + std::to_string(kill);
    expect_same_stream(reference, recovered.report, recovered.emitted, label);
    if (recovered.report.recovered_ranges > 0) {
      EXPECT_EQ(recovered.report.reingested_batches, 0)
          << label << ": a sealed range proves the stream flushed — "
          << "recovery must not re-ingest";
    }
  }
}

TEST(DurableStream, RecoveringACompletedJournalReemitsFromDisk) {
  // A wall-clock SIGKILL can land *after* the stream finished; recovery
  // then finds every range sealed and re-emits the whole output from
  // the certified range files — zero batches re-ingested, zero runs
  // re-dispatched, still bit-identical.
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("complete");
  const StreamOutcome reference = run_stream(cfg);
  ASSERT_TRUE(reference.report.conserved());
  ParallelExecutor executor(1);
  const StreamRecoveryResult recovered =
      recover_stream(cfg.journal_dir, &executor);
  expect_same_stream(reference, recovered.report, recovered.emitted,
                     "recovery of a completed journal");
  EXPECT_EQ(recovered.report.reingested_batches, 0);
  EXPECT_EQ(recovered.report.run_attempts, 0)
      << "every range was sealed; nothing should dispatch";
  EXPECT_EQ(recovered.report.recovered_ranges, cfg.ranges);
}

TEST(DurableStream, RecoveryUnderDroppedFsyncsStillConverges) {
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("dropsync_ref");
  const StreamOutcome reference = run_stream(cfg);

  StreamConfig crashing = cfg;
  crashing.journal_dir = scratch_dir("dropsync_crash");
  crashing.io_faults.seed = 4;
  crashing.io_faults.drop_sync_rate = 0.5;
  crashing.kill_after_records = reference.report.journal_records / 2;
  try {
    (void)run_stream(crashing);
    FAIL() << "kill hook must fire";
  } catch (const DurabilityKill&) {
  }
  ParallelExecutor executor(1);
  const StreamRecoveryResult recovered =
      recover_stream(crashing.journal_dir, &executor);
  expect_same_stream(reference, recovered.report, recovered.emitted,
                     "recovery after lying fsyncs");
}

/// Crashes the durable stream after `kill` records and returns the
/// journal dir, ready for recovery (or pre-recovery sabotage).
std::string crash_at(const StreamConfig& base, std::int64_t kill,
                     const std::string& dir_name) {
  StreamConfig crashing = base;
  crashing.journal_dir = scratch_dir(dir_name);
  crashing.kill_after_records = kill;
  try {
    (void)run_stream(crashing);
    ADD_FAILURE() << "kill hook must fire at record " << kill;
  } catch (const DurabilityKill&) {
  }
  return crashing.journal_dir;
}

/// True when `ref` lies outside the last closed group of `replay`: in
/// a generation file, or in an earlier group of the journal.  Damage
/// there is disk damage; damage inside the last group is a torn write.
bool before_last_group(const SpillRef& ref, const JournalReplay& replay) {
  return ref.file != kJournalFile || ref.offset < replay.last_group_offset;
}

/// Overwrites the bytes of `ref` in `dir` with `fill`(old bytes).
template <typename Fill>
void damage_blob(const std::string& dir, const SpillRef& ref, Fill fill) {
  const std::string path = dir + "/" + ref.file;
  std::string bytes = read_whole_file(path);
  ASSERT_LE(ref.offset + ref.bytes, static_cast<std::int64_t>(bytes.size()));
  std::string blob = bytes.substr(static_cast<std::size_t>(ref.offset),
                                  static_cast<std::size_t>(ref.bytes));
  fill(blob);
  bytes.replace(static_cast<std::size_t>(ref.offset), blob.size(), blob);
  write_whole_file(path, bytes);
}

void zero_bytes(std::string& blob) { std::fill(blob.begin(), blob.end(), '\0'); }

TEST(DurableStream, DamagedVerifiedOutputFallsBackToTheSlice) {
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("spill_loss_ref");
  const StreamOutcome reference = run_stream(cfg);
  const std::int64_t records = reference.report.journal_records;

  // Find a kill point whose journal names a verified run output outside
  // its last group (inside it, damage is a torn write, tested below).
  for (std::int64_t kill = records; kill >= 1; --kill) {
    const std::string dir = crash_at(cfg, kill, "spill_loss");
    const JournalReplay replay = replay_journal(dir + "/wal.log");
    std::optional<RunVerifiedRecord> verified;
    for (const JournalRecord& rec : replay.records) {
      if (rec.type != RecordType::kRunVerified) continue;
      const RunVerifiedRecord v = RunVerifiedRecord::decode(rec.payload);
      if (before_last_group(v.blob(), replay)) verified = v;
    }
    if (!verified) continue;
    const std::string label = verified->file + " @" +
                              std::to_string(verified->offset) + " at kill " +
                              std::to_string(kill);

    // Corrupt it: the journaled fingerprint catches it and the run
    // re-dispatches from its retained slice instead.
    damage_blob(dir, verified->blob(), [](std::string& blob) {
      blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x10);
    });
    ParallelExecutor executor(1);
    const StreamRecoveryResult recovered = recover_stream(dir, &executor);
    expect_same_stream(reference, recovered.report, recovered.emitted,
                       "corrupted " + label);

    // And a lost blob — its keys zeroed, as pages that never reached
    // the disk — is the same story.
    const std::string dir2 = crash_at(cfg, kill, "spill_loss2");
    damage_blob(dir2, verified->blob(), zero_bytes);
    ParallelExecutor executor2(1);
    const StreamRecoveryResult recovered2 = recover_stream(dir2, &executor2);
    expect_same_stream(reference, recovered2.report, recovered2.emitted,
                       "zeroed " + label);
    return;
  }
  FAIL() << "no kill point left a verified run output on disk";
}

TEST(DurableStream, CorruptSealedRangeIsRefusedNotAbsorbed) {
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("sealed_rot_ref");
  const StreamOutcome reference = run_stream(cfg);
  const std::int64_t records = reference.report.journal_records;

  for (std::int64_t kill = records; kill >= 1; --kill) {
    const std::string dir = crash_at(cfg, kill, "sealed_rot");
    std::string range_file;
    for (const std::string& leaf : dir_entries(dir))
      if (leaf.rfind("range", 0) == 0) range_file = leaf;
    if (range_file.empty()) continue;

    std::string bytes = read_whole_file(dir + "/" + range_file);
    ASSERT_FALSE(bytes.empty());
    bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
    write_whole_file(dir + "/" + range_file, bytes);

    // A sealed range's keys exist nowhere else (its runs were reaped
    // at seal): silent damage here is unrecoverable data loss, and
    // recovery must say so loudly instead of emitting wrong bytes.
    ParallelExecutor executor(1);
    try {
      (void)recover_stream(dir, &executor);
      FAIL() << "corrupt sealed range must refuse recovery";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unrecoverable"),
                std::string::npos)
          << e.what();
    }
    return;
  }
  FAIL() << "no kill point left a sealed range file on disk";
}

TEST(DurableStream, ForeignJournalIsRefusedOnReingestMismatch) {
  // A mid-ingest journal from seed A replayed against... itself is
  // fine; but recovery cross-checks every re-ingested batch, so a
  // journal whose batch fingerprints were forged must be refused.
  StreamConfig cfg = small_config();
  const std::string dir = crash_at(cfg, 3, "foreign");

  // Rewrite the journal, corrupting a batch record's checksum but
  // keeping the journal itself structurally pristine (fresh CRCs).
  const JournalReplay replay = replay_journal(dir + "/wal.log");
  ASSERT_GE(replay.records.size(), 2u);
  std::string forged;
  for (const JournalRecord& rec : replay.records) {
    std::string payload = rec.payload;
    if (rec.type == RecordType::kBatchIngested) {
      BatchIngestedRecord batch = BatchIngestedRecord::decode(payload);
      batch.checksum ^= 0x1;
      payload = batch.encode();
    }
    forged += encode_record(rec.seq, rec.type, payload);
  }
  write_whole_file(dir + "/wal.log", forged);

  ParallelExecutor executor(1);
  try {
    (void)recover_stream(dir, &executor);
    FAIL() << "a journal from a different stream must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("journal"), std::string::npos)
        << e.what();
  }
}

TEST(DurableStream, RecoveryManifestReportsTheTornTail) {
  StreamConfig cfg = small_config();
  const std::string dir = crash_at(cfg, 4, "manifest");
  // Append half a record: the torn tail a crash mid-append leaves.
  std::string bytes = read_whole_file(dir + "/wal.log");
  const std::string extra =
      encode_record(99999, RecordType::kLedgerDelta, "xxxx");
  bytes += extra.substr(0, extra.size() / 2);
  write_whole_file(dir + "/wal.log", bytes);

  StreamConfig decoded;
  int size = 0;
  int dims = 0;
  const RecoveryManifest manifest =
      load_recovery_manifest(dir, &decoded, &size, &dims);
  EXPECT_TRUE(manifest.torn_tail);
  EXPECT_GT(manifest.torn_bytes, 0);
  EXPECT_EQ(size, 4);
  EXPECT_EQ(dims, 2);
  EXPECT_EQ(decoded.seed, cfg.seed);
  EXPECT_EQ(decoded.batches, cfg.batches);
  EXPECT_EQ(decoded.ranges, cfg.ranges);

  // And the torn tail does not change the recovered stream.
  StreamConfig ref = cfg;
  ref.journal_dir = scratch_dir("manifest_ref");
  const StreamOutcome reference = run_stream(ref);
  ParallelExecutor executor(1);
  const StreamRecoveryResult recovered = recover_stream(dir, &executor);
  expect_same_stream(reference, recovered.report, recovered.emitted,
                     "recovery past a torn tail");
  EXPECT_GT(recovered.report.torn_tail_bytes, 0);
}

TEST(DurableStream, StreamConfigPayloadRoundTrips) {
  StreamConfig cfg = small_config();
  cfg.outage = "0@100~200+1@300~400";
  cfg.tear_rate = 0.125;
  cfg.crash_rate = 0.0625;
  cfg.io_faults.seed = 12;
  cfg.io_faults.read_corrupt_rate = 0.25;
  const std::string payload = encode_stream_config(cfg, 5, 3);
  StreamConfig back;
  int size = 0;
  int dims = 0;
  decode_stream_config(payload, &back, &size, &dims);
  EXPECT_EQ(size, 5);
  EXPECT_EQ(dims, 3);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.batches, cfg.batches);
  EXPECT_EQ(back.batch_keys, cfg.batch_keys);
  EXPECT_EQ(back.outage, cfg.outage);
  EXPECT_EQ(back.tear_rate, cfg.tear_rate);
  EXPECT_EQ(back.crash_rate, cfg.crash_rate);
  EXPECT_EQ(back.io_faults, cfg.io_faults);
  EXPECT_EQ(back.breaker.failure_threshold, cfg.breaker.failure_threshold);
  EXPECT_THROW(decode_stream_config(payload.substr(0, payload.size() - 1),
                                    &back, &size, &dims),
               std::runtime_error);
}

TEST(DurableStream, RecoveryWithoutAJournalDirIsRejected) {
  const std::string dir = scratch_dir("nojournal");
  ParallelExecutor executor(1);
  EXPECT_THROW((void)recover_stream(dir + "/does_not_exist", &executor),
               std::runtime_error);
  // An empty journal (zero records) is not a stream either.
  write_whole_file(dir + "/wal.log", "");
  EXPECT_THROW((void)recover_stream(dir, &executor), std::runtime_error);
}

// --- commit groups -------------------------------------------------------

TEST(DurableStream, FaultFreeCommitCountsFollowTheGroupFormula) {
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("formula");
  const StreamReport report = run_stream(cfg).report;
  ASSERT_TRUE(report.conserved());
  ASSERT_EQ(report.run_attempts, report.runs)
      << "fault-free: every run verifies on its first attempt";
  // One journal fsync for the config record, one per arrival and one
  // per completion; each seal commits by compaction instead.
  EXPECT_EQ(report.journal_syncs, 1 + report.batches + report.runs);
  EXPECT_EQ(report.journal_compactions, cfg.ranges);
  // Blobs ride in the journal's groups, so the spill files are the
  // range files of the non-empty ranges plus the generations the
  // compactions retired the journal to: one per compaction whose
  // outgoing journal still held a live blob.  Every run verifies before
  // range 0's merge ends, so the first compaction retires a journal
  // holding every live blob, and the later ones find none.
  const std::int64_t generations = 1;
  EXPECT_LE(generations, report.journal_compactions);
  EXPECT_EQ(report.spill_files,
            (cfg.ranges - report.empty_ranges) + generations);
  EXPECT_EQ(report.batches, 5);
  EXPECT_EQ(report.runs, 9);
  EXPECT_EQ(report.empty_ranges, 0);
  EXPECT_EQ(report.journal_syncs, 15);
  EXPECT_EQ(report.spill_files, 4);
}

/// Copies every file of `from` into a fresh scratch directory `name`.
std::string copy_dir(const std::string& from, const std::string& name) {
  const std::string to = scratch_dir(name);
  for (const std::string& leaf : dir_entries(from))
    write_whole_file(to + "/" + leaf, read_whole_file(from + "/" + leaf));
  return to;
}

/// The generation files (`j<gen>.spill`) in `dir`.
std::vector<std::string> generations_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& leaf : dir_entries(dir))
    if (leaf.ends_with(".spill")) out.push_back(leaf);
  return out;
}

TEST(DurableStream, RecoveryFromEveryEarlierGroupReapsLaterGroupDebris) {
  // A power cut can lose the last commit groups of the journal, blobs
  // and all, while a generation file a later compaction linked
  // survives.  Truncating wal.log back to every earlier group boundary,
  // with a generation holding the untruncated journal beside it, models
  // exactly that; recovery must ignore the debris (no record names it),
  // never overwrite it (new generations number past it), and reap it.
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("debris_ref");
  const StreamOutcome reference = run_stream(cfg);
  const std::int64_t records = reference.report.journal_records;
  std::int64_t truncations = 0;
  for (const std::int64_t kill : {records / 3, 2 * records / 3, records}) {
    const std::string crashed = crash_at(cfg, kill, "debris_crash");
    const JournalReplay replay = replay_journal(crashed + "/wal.log");
    for (const JournalRecord& rec : replay.records) {
      if (!rec.group_end) continue;
      const std::string dir = copy_dir(crashed, "debris");
      write_whole_file(dir + "/j1000.spill",
                       read_whole_file(dir + "/wal.log"));
      ASSERT_EQ(::truncate((dir + "/wal.log").c_str(), rec.end_offset), 0);
      ParallelExecutor executor(1);
      const StreamRecoveryResult recovered = recover_stream(dir, &executor);
      const std::string label = "kill " + std::to_string(kill) +
                                ", truncated after record " +
                                std::to_string(rec.seq);
      expect_same_stream(reference, recovered.report, recovered.emitted,
                         label);
      EXPECT_EQ(recovered.report.torn_tail_bytes, 0) << label;
      EXPECT_EQ(generations_in(dir), std::vector<std::string>{})
          << label << ": generation files left after recovery";
      ++truncations;
    }
  }
  EXPECT_GT(truncations, 10);
}

TEST(DurableStream, CrashBeforeTheCompactionRenameKeepsTheSealingRunsReadable) {
  // A seal commits by compaction: the range file is fsync'd, the
  // outgoing journal is hard-linked to a generation file, then the
  // rewritten journal is renamed over wal.log, and only then are
  // emptied generations reaped.  Block the rename (a directory squats
  // on the compaction's temp path, so the rewrite fails after the link)
  // and wal.log must still hold every blob its records name for the
  // sealing range, readable with its journaled fingerprint; the link is
  // an orphan that recovery reaps.
  StreamConfig plain = small_config();
  plain.journal_dir = scratch_dir("compaction_ref");
  const StreamOutcome reference = run_stream(plain);

  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("compaction_crash");
  const std::string squat = cfg.journal_dir + "/wal.log.tmp";
  ASSERT_EQ(::mkdir(squat.c_str(), 0755), 0);
  EXPECT_THROW((void)run_stream(cfg), std::runtime_error);
  ASSERT_EQ(::rmdir(squat.c_str()), 0);
  EXPECT_EQ(generations_in(cfg.journal_dir),
            std::vector<std::string>{"j0.spill"})
      << "the link precedes the failed rename";

  const JournalReplay replay = replay_journal(cfg.journal_dir + "/wal.log");
  std::vector<RunDispatchedRecord> cuts;
  std::vector<RunVerifiedRecord> verifies;
  for (const JournalRecord& rec : replay.records) {
    ASSERT_NE(rec.type, RecordType::kRangeSealed)
        << "the seal must not commit before the rename";
    if (rec.type == RecordType::kRunDispatched)
      cuts.push_back(RunDispatchedRecord::decode(rec.payload));
    if (rec.type == RecordType::kRunVerified)
      verifies.push_back(RunVerifiedRecord::decode(rec.payload));
  }
  SpillStore store(cfg.journal_dir, nullptr);
  const auto expect_readable = [&](const SpillRef& ref,
                                   const FingerprintState& fp) {
    EXPECT_EQ(ref.file, "wal.log");
    FingerprintAccumulator acc;
    acc.absorb(store.read(ref));
    EXPECT_EQ(acc.state(), fp) << ref.file << " @" << ref.offset;
  };
  int sealing_runs = 0;
  for (const RunDispatchedRecord& cut : cuts) {
    if (cut.range != 0) continue;
    ++sealing_runs;
    expect_readable(cut.blob(), cut.fp);
    const auto verify =
        std::find_if(verifies.begin(), verifies.end(),
                     [&](const RunVerifiedRecord& v) { return v.run == cut.run; });
    ASSERT_NE(verify, verifies.end())
        << "range 0 was merging, so run " << cut.run << " had verified";
    expect_readable(verify->blob(), verify->fp);
  }
  EXPECT_GT(sealing_runs, 0);

  ParallelExecutor executor(1);
  const StreamRecoveryResult recovered =
      recover_stream(cfg.journal_dir, &executor);
  expect_same_stream(reference, recovered.report, recovered.emitted,
                     "recovery after a failed compaction");
  EXPECT_EQ(generations_in(cfg.journal_dir), std::vector<std::string>{})
      << "the orphan link and every retired generation are reaped";
}

TEST(DurableStream, CrashBeforeALaterCompactionRenameKeepsItsGenerations) {
  // The test above blocks the stream's first compaction, when no older
  // generation exists to empty.  Here a recovered stream, whose
  // journal names every live blob in generation files, is blocked at
  // its first compaction: the last range's seal, which releases every
  // blob those generations still hold.  They may be reaped only after
  // the rewritten journal is renamed in; until then wal.log names them,
  // and recovery must still read them.
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("late_compaction_ref");
  const StreamOutcome reference = run_stream(cfg);
  const std::int64_t records = reference.report.journal_records;

  int blocked = 0;
  for (std::int64_t kill = 1; kill <= records; ++kill) {
    StreamConfig crashing = cfg;
    crashing.journal_dir = scratch_dir("late_compaction");
    crashing.kill_after_records = kill;
    try {
      (void)run_stream(crashing);
      continue;  // past the stream's natural record count
    } catch (const DurabilityKill&) {
    }
    StreamConfig journaled;
    int size = 0;
    int dims = 0;
    const RecoveryManifest manifest =
        load_recovery_manifest(crashing.journal_dir, &journaled, &size, &dims);
    if (static_cast<int>(manifest.sealed.size()) != cfg.ranges - 1) continue;
    ++blocked;
    const std::string label = "kill after record " + std::to_string(kill);
    journaled.kill_after_records = 0;
    const std::string squat = crashing.journal_dir + "/wal.log.tmp";
    {
      const LabeledFactor factor = labeled_cycle(size);
      const ProductGraph pg(factor, dims);
      ParallelExecutor executor(1);
      StreamingSorter sorter(pg, journaled, &executor, &manifest);
      ASSERT_EQ(::mkdir(squat.c_str(), 0755), 0) << label;
      EXPECT_THROW((void)sorter.run(), std::runtime_error) << label;
    }
    ASSERT_EQ(::rmdir(squat.c_str()), 0) << label;
    EXPECT_FALSE(generations_in(crashing.journal_dir).empty())
        << label << ": the generations wal.log names outlive the failed rename";

    ParallelExecutor executor(1);
    const StreamRecoveryResult recovered =
        recover_stream(crashing.journal_dir, &executor);
    expect_same_stream(reference, recovered.report, recovered.emitted,
                       "recovery after a failed late compaction, " + label);
  }
  EXPECT_GT(blocked, 0) << "no kill point left exactly one range unsealed";
}

// --- blobs in the journal ------------------------------------------------

/// The blobs the records of `replay` name, with their fingerprints.
struct NamedBlob {
  RecordType type;
  std::int64_t run = 0;
  SpillRef ref;
  FingerprintState fp;
};

std::vector<NamedBlob> named_blobs(const JournalReplay& replay) {
  std::vector<NamedBlob> out;
  for (const JournalRecord& rec : replay.records) {
    if (rec.type == RecordType::kRunDispatched) {
      const RunDispatchedRecord cut = RunDispatchedRecord::decode(rec.payload);
      out.push_back({rec.type, cut.run, cut.blob(), cut.fp});
    } else if (rec.type == RecordType::kRunVerified) {
      const RunVerifiedRecord v = RunVerifiedRecord::decode(rec.payload);
      out.push_back({rec.type, v.run, v.blob(), v.fp});
    }
  }
  return out;
}

bool flushed_journal(const JournalReplay& replay) {
  return std::any_of(replay.records.begin(), replay.records.end(),
                     [](const JournalRecord& rec) {
                       return rec.type == RecordType::kIngestDone ||
                              rec.type == RecordType::kSnapshot;
                     });
}

std::int64_t records_before(const JournalReplay& replay,
                            std::int64_t offset) {
  return std::count_if(
      replay.records.begin(), replay.records.end(),
      [offset](const JournalRecord& rec) { return rec.offset < offset; });
}

TEST(Journal, BlobFramesTakeNoSequenceAndTearWithTheirGroup) {
  std::string buffer = encode_record(1, RecordType::kConfig, "cfg");
  const std::size_t group_start = buffer.size();
  const std::string keys(64, 'k');
  buffer += encode_blob_header(64) + keys;
  const std::size_t records_start = buffer.size();
  buffer += encode_record(2, RecordType::kRunDispatched, "r");
  const JournalReplay replay = replay_journal_buffer(buffer);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.records[1].seq, 2u) << "a blob frame takes no sequence";
  EXPECT_EQ(replay.records[1].offset,
            static_cast<std::int64_t>(records_start));
  EXPECT_EQ(replay.last_group_offset, static_cast<std::int64_t>(group_start));
  // A cut anywhere in the group — header, keys or records — tears it.
  for (std::size_t cut = group_start + 1; cut < buffer.size(); ++cut) {
    const JournalReplay torn =
        replay_journal_buffer(std::string_view(buffer).substr(0, cut));
    ASSERT_EQ(torn.records.size(), 1u) << "cut at byte " << cut;
    EXPECT_TRUE(torn.torn_tail) << "cut at byte " << cut;
    EXPECT_EQ(torn.valid_bytes, static_cast<std::int64_t>(group_start));
  }
  // The keys carry no CRC (their record's fingerprint checks them), but
  // a damaged header with data after it is rot.
  std::string rotted_keys = buffer;
  rotted_keys[records_start - 1] ^= 0x01;
  EXPECT_EQ(replay_journal_buffer(rotted_keys).records.size(), 2u);
  std::string rotted_header = buffer;
  rotted_header[group_start + 4] ^= 0x01;
  try {
    (void)replay_journal_buffer(rotted_header);
    FAIL() << "a damaged blob header mid-file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("blob frame header"),
              std::string::npos)
        << e.what();
  }
}

TEST(DurableStream, ZeroedBlobsInTheFinalGroupAreATornWrite) {
  // Pages of the one unsynced write can reach the disk out of order, and
  // blob keys carry no CRC.  A closed final group whose blob keys are
  // zeroed is therefore a torn write: discarded, recovered bit-
  // identically.  The same damage in an earlier group is disk damage: a
  // verified output falls back to its slice, a slice is a named error.
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("zeroed_ref");
  const StreamOutcome reference = run_stream(cfg);
  const std::int64_t records = reference.report.journal_records;
  bool final_group = false;
  bool earlier_output = false;
  bool earlier_slice = false;
  for (std::int64_t kill = 1; kill <= records; ++kill) {
    if (final_group && earlier_output && earlier_slice) break;
    const std::string crashed = crash_at(cfg, kill, "zeroed_crash");
    const JournalReplay replay = replay_journal(crashed + "/wal.log");
    const std::vector<NamedBlob> blobs = named_blobs(replay);
    const std::string label = "kill " + std::to_string(kill);

    const auto in_final = [&](const NamedBlob& b) {
      return !before_last_group(b.ref, replay);
    };
    if (!final_group && std::any_of(blobs.begin(), blobs.end(), in_final)) {
      final_group = true;
      const std::string dir = copy_dir(crashed, "zeroed_final");
      for (const NamedBlob& b : blobs)
        if (in_final(b)) damage_blob(dir, b.ref, zero_bytes);
      StreamConfig decoded;
      int size = 0;
      int dims = 0;
      const RecoveryManifest manifest =
          load_recovery_manifest(dir, &decoded, &size, &dims);
      EXPECT_TRUE(manifest.torn_tail) << label;
      EXPECT_EQ(manifest.replayed_records,
                records_before(replay, replay.last_group_offset))
          << label << ": the final group is discarded whole";
      ParallelExecutor executor(1);
      const StreamRecoveryResult recovered = recover_stream(dir, &executor);
      expect_same_stream(reference, recovered.report, recovered.emitted,
                         label + ", final group zeroed");
    }
    if (!flushed_journal(replay)) continue;
    for (const NamedBlob& b : blobs) {
      if (in_final(b)) continue;
      const bool verified = std::any_of(
          blobs.begin(), blobs.end(), [&](const NamedBlob& o) {
            return o.run == b.run && o.type == RecordType::kRunVerified;
          });
      if (b.type == RecordType::kRunVerified && !earlier_output) {
        earlier_output = true;
        const std::string dir = copy_dir(crashed, "zeroed_output");
        damage_blob(dir, b.ref, zero_bytes);
        ParallelExecutor executor(1);
        const StreamRecoveryResult recovered = recover_stream(dir, &executor);
        EXPECT_EQ(recovered.report.replayed_records,
                  static_cast<std::int64_t>(replay.records.size()))
            << label << ": an earlier group is not torn";
        expect_same_stream(reference, recovered.report, recovered.emitted,
                           label + ", earlier output zeroed");
      } else if (b.type == RecordType::kRunDispatched && !verified &&
                 !earlier_slice) {
        earlier_slice = true;
        const std::string dir = copy_dir(crashed, "zeroed_slice");
        damage_blob(dir, b.ref, zero_bytes);
        ParallelExecutor executor(1);
        try {
          (void)recover_stream(dir, &executor);
          FAIL() << label << ": a damaged slice must refuse recovery";
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("slice"), std::string::npos)
              << e.what();
        }
      }
    }
  }
  EXPECT_TRUE(final_group) << "no kill point ended in a group with blobs";
  EXPECT_TRUE(earlier_output) << "no verified output outside a last group";
  EXPECT_TRUE(earlier_slice) << "no unverified slice outside a last group";
}

/// A stream whose runs are 16 KiB blobs, so one group's blob frames
/// span several 4 KiB pages.
StreamConfig page_spanning_config() {
  StreamConfig cfg = small_config();
  cfg.batches = 3;
  cfg.batch_keys = 4096;
  cfg.ranges = 2;
  cfg.block = 128;  // run_keys = 16 * 128 = 2048 keys
  cfg.budget_bytes = 1 << 17;
  return cfg;
}

TEST(DurableStream, EveryPageCutInsideTheLastGroupsBlobsIsATornGroup) {
  StreamConfig cfg = page_spanning_config();
  cfg.journal_dir = scratch_dir("pages_ref");
  const StreamOutcome reference = run_stream(cfg);
  ASSERT_TRUE(reference.report.conserved());
  constexpr std::int64_t kPage = 4096;
  std::int64_t cuts = 0;
  for (std::int64_t kill = 1;
       kill <= reference.report.journal_records && cuts == 0; ++kill) {
    const std::string crashed = crash_at(cfg, kill, "pages_crash");
    const JournalReplay replay = replay_journal(crashed + "/wal.log");
    const std::int64_t start = replay.last_group_offset;
    const auto first_record = std::find_if(
        replay.records.begin(), replay.records.end(),
        [start](const JournalRecord& r) { return r.offset >= start; });
    ASSERT_NE(first_record, replay.records.end());
    const std::int64_t blobs_end = first_record->offset;
    const std::int64_t kept = records_before(replay, start);
    for (std::int64_t at = (start / kPage + 1) * kPage; at < blobs_end;
         at += kPage) {
      const std::string dir = copy_dir(crashed, "pages_cut");
      ASSERT_EQ(::truncate((dir + "/wal.log").c_str(), at), 0);
      const std::string label = "kill " + std::to_string(kill) +
                                ", cut at byte " + std::to_string(at);
      const JournalReplay torn = replay_journal(dir + "/wal.log");
      EXPECT_TRUE(torn.torn_tail) << label;
      EXPECT_EQ(torn.valid_bytes, start) << label;
      EXPECT_EQ(static_cast<std::int64_t>(torn.records.size()), kept)
          << label;
      ParallelExecutor executor(1);
      const StreamRecoveryResult recovered = recover_stream(dir, &executor);
      expect_same_stream(reference, recovered.report, recovered.emitted,
                         label);
      ++cuts;
    }
  }
  EXPECT_GE(cuts, 2) << "no final group's blobs spanned two pages";
}

TEST(DurableStream, ACompactionCopiesNoBlobAndRetiresTheJournal) {
  // Kill right after the first compaction: wal.log then holds exactly
  // the compacted group.  Its size is its encoded records alone, every
  // blob its records name reads back by fingerprint from the retired
  // generation, and that file is unlinked once its last blob goes.
  StreamConfig cfg = small_config();
  cfg.journal_dir = scratch_dir("retire_ref");
  const StreamOutcome reference = run_stream(cfg);
  for (std::int64_t kill = 1; kill <= reference.report.journal_records;
       ++kill) {
    const std::string dir = crash_at(cfg, kill, "retire");
    const JournalReplay replay = replay_journal(dir + "/wal.log");
    if (replay.records.size() < 2 ||
        replay.records[1].type != RecordType::kSnapshot ||
        replay.last_group_offset != 0)
      continue;
    std::int64_t record_bytes = 0;
    for (const JournalRecord& rec : replay.records)
      record_bytes += rec.end_offset - rec.offset;
    EXPECT_EQ(static_cast<std::int64_t>(read_whole_file(dir + "/wal.log")
                                            .size()),
              record_bytes)
        << "a compaction writes no blob bytes";
    const std::vector<NamedBlob> blobs = named_blobs(replay);
    ASSERT_FALSE(blobs.empty());
    for (const NamedBlob& b : blobs) {
      EXPECT_EQ(b.ref.file, "j0.spill");
      FingerprintAccumulator acc;
      acc.absorb(read_spill_blob(dir + "/" + b.ref.file, b.ref));
      EXPECT_EQ(acc.state(), b.fp) << "run " << b.run;
    }
    ParallelExecutor executor(1);
    const StreamRecoveryResult recovered = recover_stream(dir, &executor);
    expect_same_stream(reference, recovered.report, recovered.emitted,
                       "recovery after the first compaction");
    EXPECT_EQ(generations_in(dir), std::vector<std::string>{})
        << "a generation is unlinked after its last release";
    return;
  }
  FAIL() << "no kill point landed right after a compaction";
}

}  // namespace
}  // namespace prodsort
