#include "stream/recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/certifier.hpp"
#include "graph/labeled_factor.hpp"
#include "product/product_graph.hpp"

namespace prodsort {

std::string encode_stream_config(const StreamConfig& config, int size,
                                 int dims) {
  PayloadWriter w;
  w.u64(config.seed);
  w.i32(config.batches);
  w.i64(config.batch_keys);
  w.i32(config.pattern);
  w.i64(config.batch_interval);
  w.i32(config.ranges);
  w.i64(config.sample_keys);
  w.i32(config.block);
  w.i64(config.budget_bytes);
  w.i32(config.backends);
  w.i32(config.domains);
  w.i32(config.faulty);
  w.str(config.outage);
  w.f64(config.tear_rate);
  w.f64(config.crash_rate);
  w.i32(config.retry_limit);
  w.i64(config.backoff_base);
  w.i64(config.backoff_cap);
  w.i32(config.breaker.failure_threshold);
  w.i64(config.breaker.cooldown);
  w.u64(config.io_faults.seed);
  w.f64(config.io_faults.short_write_rate);
  w.f64(config.io_faults.drop_sync_rate);
  w.f64(config.io_faults.read_corrupt_rate);
  w.i32(size);
  w.i32(dims);
  return w.take();
}

void decode_stream_config(std::string_view payload, StreamConfig* config,
                          int* size, int* dims) {
  PayloadReader r(payload, "config");
  config->seed = r.u64();
  config->batches = r.i32();
  config->batch_keys = r.i64();
  config->pattern = r.i32();
  config->batch_interval = r.i64();
  config->ranges = r.i32();
  config->sample_keys = r.i64();
  config->block = r.i32();
  config->budget_bytes = r.i64();
  config->backends = r.i32();
  config->domains = r.i32();
  config->faulty = r.i32();
  config->outage = r.str();
  config->tear_rate = r.f64();
  config->crash_rate = r.f64();
  config->retry_limit = r.i32();
  config->backoff_base = r.i64();
  config->backoff_cap = r.i64();
  config->breaker.failure_threshold = r.i32();
  config->breaker.cooldown = r.i64();
  config->io_faults.seed = r.u64();
  config->io_faults.short_write_rate = r.f64();
  config->io_faults.drop_sync_rate = r.f64();
  config->io_faults.read_corrupt_rate = r.f64();
  *size = r.i32();
  *dims = r.i32();
  r.finish();
}

namespace {

/// The last closed group is the one write a crash may have caught
/// before its fsync.  An append reaches the disk as a prefix, but pages
/// of one unsynced write may land out of order, and a blob's keys carry
/// no CRC: so a blob of that group failing its record's fingerprint
/// means the group never fully reached the disk, and it is discarded
/// as torn.  (In an earlier group the same damage is disk damage, left
/// to the recovery ladder.)
void discard_torn_final_group(const std::string& journal_path,
                              JournalReplay* replay) {
  const std::int64_t start = replay->last_group_offset;
  const auto intact = [&](const SpillRef& blob, const FingerprintState& fp) {
    if (blob.file != kJournalFile || blob.offset < start) return true;
    try {
      FingerprintAccumulator acc;
      acc.absorb(read_spill_blob(journal_path, blob));
      return acc.state() == fp;
    } catch (const std::runtime_error&) {
      return false;
    }
  };
  const auto first = std::find_if(
      replay->records.begin(), replay->records.end(),
      [start](const JournalRecord& r) { return r.offset >= start; });
  for (auto it = first; it != replay->records.end(); ++it) {
    if (it->type == RecordType::kRunDispatched) {
      const RunDispatchedRecord rec = RunDispatchedRecord::decode(it->payload);
      if (intact(rec.blob(), rec.fp)) continue;
    } else if (it->type == RecordType::kRunVerified) {
      const RunVerifiedRecord rec = RunVerifiedRecord::decode(it->payload);
      if (intact(rec.blob(), rec.fp)) continue;
    } else {
      continue;
    }
    replay->records.erase(first, replay->records.end());
    replay->torn_bytes += replay->valid_bytes - start;
    replay->valid_bytes = start;
    replay->torn_tail = true;
    return;
  }
}

}  // namespace

RecoveryManifest load_recovery_manifest(const std::string& journal_dir,
                                        StreamConfig* config, int* size,
                                        int* dims) {
  // The journal is read without corruption injection: the io-fault
  // config lives *inside* the config record, so the clock cannot exist
  // before the read.  Injected journal-read corruption is exercised
  // through replay_journal(path, clock) directly.
  const std::string path = journal_dir + "/" + std::string(kJournalFile);
  JournalReplay replay = replay_journal(path, nullptr);
  discard_torn_final_group(path, &replay);
  if (replay.records.empty())
    throw std::runtime_error(
        "recovery: journal " + path +
        " holds no committed records — nothing to recover");
  if (replay.records.front().type != RecordType::kConfig)
    throw std::runtime_error(
        "recovery: journal does not start with a config record (got " +
        to_string(replay.records.front().type) + ")");
  decode_stream_config(replay.records.front().payload, config, size, dims);
  config->journal_dir = journal_dir;

  RecoveryManifest manifest;
  manifest.replayed_records =
      static_cast<std::int64_t>(replay.records.size());
  manifest.torn_tail = replay.torn_tail;
  manifest.torn_bytes = replay.torn_bytes;

  std::unordered_map<std::int64_t, std::size_t> run_index;
  for (std::size_t i = 1; i < replay.records.size(); ++i) {
    const JournalRecord& record = replay.records[i];
    switch (record.type) {
      case RecordType::kConfig:
        throw std::runtime_error(
            "recovery: duplicate config record at sequence " +
            std::to_string(record.seq));
      case RecordType::kBatchIngested: {
        BatchIngestedRecord rec = BatchIngestedRecord::decode(record.payload);
        if (rec.batch !=
            static_cast<std::int64_t>(manifest.batches.size()))
          throw std::runtime_error(
              "recovery: batch record " + std::to_string(rec.batch) +
              " out of order (expected " +
              std::to_string(manifest.batches.size()) + ")");
        manifest.batches.push_back(rec);
        break;
      }
      case RecordType::kRunDispatched: {
        RecoveredRun run;
        run.cut = RunDispatchedRecord::decode(record.payload);
        if (run_index.count(run.cut.run) != 0)
          throw std::runtime_error("recovery: duplicate run-dispatched for "
                                   "run " +
                                   std::to_string(run.cut.run));
        run_index[run.cut.run] = manifest.runs.size();
        manifest.runs.push_back(std::move(run));
        break;
      }
      case RecordType::kRunVerified: {
        RunVerifiedRecord rec = RunVerifiedRecord::decode(record.payload);
        const auto it = run_index.find(rec.run);
        if (it == run_index.end())
          throw std::runtime_error(
              "recovery: run-verified for unknown run " +
              std::to_string(rec.run));
        manifest.runs[it->second].verified = true;
        manifest.runs[it->second].verify = rec;
        break;
      }
      case RecordType::kIngestDone: {
        const IngestDoneRecord rec = IngestDoneRecord::decode(record.payload);
        manifest.flushed = true;
        manifest.aggregate =
            SnapshotRecord{rec.batches,       rec.ingest,
                           rec.chain,         rec.keys_ingested,
                           rec.runs_total,    rec.padded_keys,
                           rec.forced_cuts};
        break;
      }
      case RecordType::kSnapshot:
        manifest.flushed = true;
        manifest.aggregate = SnapshotRecord::decode(record.payload);
        break;
      case RecordType::kRangeSealed: {
        RangeSealedRecord rec = RangeSealedRecord::decode(record.payload);
        if (rec.range != static_cast<int>(manifest.sealed.size()))
          throw std::runtime_error(
              "recovery: sealed ranges not contiguous — got range " +
              std::to_string(rec.range) + ", expected " +
              std::to_string(manifest.sealed.size()));
        manifest.sealed.push_back(rec);
        break;
      }
      case RecordType::kLedgerDelta:
        (void)LedgerDeltaRecord::decode(record.payload);  // shape-check only
        break;
    }
  }

  // Runs of sealed ranges were released at seal.  The compaction that
  // commits a seal drops them, so a journal naming one after its
  // range's seal was not written that way; drop the stragglers.
  const int sealed_ranges = static_cast<int>(manifest.sealed.size());
  std::erase_if(manifest.runs, [sealed_ranges](const RecoveredRun& run) {
    return run.cut.range < sealed_ranges;
  });
  std::sort(manifest.runs.begin(), manifest.runs.end(),
            [](const RecoveredRun& a, const RecoveredRun& b) {
              return a.cut.run < b.cut.run;
            });
  return manifest;
}

StreamRecoveryResult recover_stream(const std::string& journal_dir,
                                    ParallelExecutor* executor,
                                    std::int64_t kill_after_records) {
  StreamRecoveryResult result;
  const RecoveryManifest manifest = load_recovery_manifest(
      journal_dir, &result.config, &result.size, &result.dims);
  result.config.kill_after_records = kill_after_records;
  const LabeledFactor factor = labeled_cycle(result.size);
  const ProductGraph pg(factor, result.dims);
  StreamingSorter sorter(pg, result.config, executor, &manifest);
  result.report = sorter.run();
  result.emitted = sorter.emitted();
  return result;
}

}  // namespace prodsort
