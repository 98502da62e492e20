#include "stream/streaming_sorter.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/certifier.hpp"
#include "core/hashing.hpp"
#include "core/host_merge.hpp"
#include "core/splitters.hpp"
#include "durability/journal.hpp"
#include "durability/spill_store.hpp"
#include "service/backend.hpp"
#include "service/event_queue.hpp"
#include "service/service_types.hpp"
#include "stream/memory_budget.hpp"
#include "stream/recovery.hpp"

namespace prodsort {

namespace {

constexpr std::int64_t kKeyBytes = sizeof(Key);
// Purpose salts so the sample, crash, and tear hash streams never
// collide with each other or with any other subsystem's draws.
constexpr std::uint64_t kSampleSalt = 0x57ea3u;
constexpr std::uint64_t kCrashSalt = 0xc7a54u;
constexpr std::uint64_t kTearSalt = 0x7ea7u;

}  // namespace

struct StreamingSorter::Impl {
  struct Run {
    std::int64_t id = 0;
    int range = 0;
    std::vector<Key> slice;  ///< retained real keys (spill) until verified
    std::int64_t pad = 0;    ///< sentinels appended at dispatch
    FingerprintAccumulator acc;  ///< fingerprint of the real keys
    int attempts = 0;
    bool done = false;
    std::vector<Key> output;  ///< stripped sorted output (spill) once done
    /// Durable mode: the slice blob — retained (with its bytes in the
    /// spill ledger) until the range seals, so a lost output can still
    /// re-dispatch.  Empty when journaling is off (slice bytes release
    /// at verify).
    SpillRef slice_ref;
    SpillRef output_ref;  ///< durable mode: the verified output's blob
  };
  // A commit group's spill blobs are written straight from run slices
  // and outputs at the end of the event, so growing `runs` mid-event
  // must move the key vectors (keeping their buffers), never copy them.
  static_assert(std::is_nothrow_move_constructible_v<Run>);

  // Event ids: batch (arrival), run (completion/requeue), range
  // (merge-done); -1 = dispatch poke.  aux: completion: backend;
  // merge-done: 1 = torn.
  enum Kind { kArrival = 0, kCompletion = 1, kMergeDone = 2, kRequeue = 3 };

  struct InFlight {
    std::int64_t run = 0;
    AttemptResult result;
    std::int64_t dispatched = 0;
  };

  struct PendingMerge {
    int range = 0;
    std::size_t base = 0;  ///< the merged range starts at (*emitted)[base]
    HostMergeStats stats;
    std::int64_t cursor_bytes = 0;
    std::int64_t started = 0;
  };

  const ProductGraph* pg;
  StreamConfig cfg;
  ParallelExecutor* executor;
  std::vector<Key>* emitted;

  std::int64_t run_keys = 0;
  int domains = 1;
  std::vector<std::vector<OutageWindow>> outages;
  std::vector<std::unique_ptr<SortBackend>> backends;
  std::vector<std::optional<InFlight>> busy;

  MemoryBudget ram;
  std::int64_t spill_used = 0;
  std::int64_t spill_high = 0;

  EventQueue events;
  std::int64_t next_poke = -1;

  std::vector<Key> splitters;
  bool have_splitters = false;
  std::vector<std::vector<Key>> buffers;  ///< per-range partial runs (RAM)
  std::vector<Run> runs;
  std::deque<std::int64_t> ready;

  FingerprintAccumulator ingest_acc;
  FingerprintAccumulator sealed_acc;
  std::uint64_t chain = 0;
  int batches_ingested = 0;
  bool flushed = false;

  int next_seal = 0;
  bool merge_busy = false;
  std::vector<int> merge_attempts;
  std::optional<PendingMerge> pending;
  Key last_sealed = 0;
  bool has_last_sealed = false;

  std::vector<std::int64_t> latencies;
  bool failed = false;
  StreamReport report;

  // Durability (all null/zero when cfg.journal_dir is empty).
  std::unique_ptr<IoFaultClock> io_clock;
  std::unique_ptr<SpillStore> store;
  std::unique_ptr<JournalWriter> journal;
  const RecoveryManifest* recovery = nullptr;
  std::vector<RangeSealedRecord> sealed_records;  ///< for compaction
  std::int64_t range_bytes_live = 0;  ///< sealed range files on disk
  bool seal_pending = false;  ///< this event sealed: compact after commit
  /// Slices dropped mid-event whose blobs are staged but not yet
  /// written; freed once the event's group is on disk.
  std::vector<std::vector<Key>> held_until_commit;
  /// Recovery: the generation the replayed journal was retired to,
  /// which holds every blob its records name in kJournalFile.
  std::string replayed_journal;

  [[nodiscard]] bool durable() const noexcept { return journal != nullptr; }

  Impl(const ProductGraph& graph, const StreamConfig& config,
       ParallelExecutor* exec, std::vector<Key>* emitted_out,
       const RecoveryManifest* manifest)
      : pg(&graph),
        cfg(config),
        executor(exec),
        emitted(emitted_out),
        ram(config.budget_bytes),
        recovery(manifest) {
    if (cfg.batches < 1) throw std::invalid_argument("stream: batches < 1");
    if (cfg.batch_keys < 1)
      throw std::invalid_argument("stream: batch_keys < 1");
    if (cfg.batch_interval < 1)
      throw std::invalid_argument("stream: batch_interval < 1");
    if (cfg.ranges < 1) throw std::invalid_argument("stream: ranges < 1");
    if (cfg.sample_keys < 1)
      throw std::invalid_argument("stream: sample_keys < 1");
    if (cfg.block < 1) throw std::invalid_argument("stream: block < 1");
    if (cfg.backends < 1) throw std::invalid_argument("stream: backends < 1");
    if (cfg.domains < 1) throw std::invalid_argument("stream: domains < 1");
    if (cfg.retry_limit < 1)
      throw std::invalid_argument("stream: retry_limit < 1");
    check_backoff(cfg.backoff_base, cfg.backoff_cap, "stream:");
    if (cfg.tear_rate < 0 || cfg.tear_rate >= 1)
      throw std::invalid_argument("stream: tear_rate outside [0, 1)");
    if (cfg.crash_rate < 0 || cfg.crash_rate >= 1)
      throw std::invalid_argument("stream: crash_rate outside [0, 1)");
    if (pg->dims() < 2)
      throw std::invalid_argument("stream: block sorting needs dims >= 2");
    if (cfg.budget_bytes < cfg.batch_keys * kKeyBytes)
      throw std::invalid_argument(
          "stream: budget below one batch — backpressure could never "
          "admit an arrival");
    run_keys = pg->num_nodes() * static_cast<std::int64_t>(cfg.block);
    domains = std::min(cfg.domains, cfg.backends);
    outages = parse_domain_outages(cfg.outage, domains);

    buffers.resize(static_cast<std::size_t>(cfg.ranges));
    merge_attempts.assign(static_cast<std::size_t>(cfg.ranges), 0);
    busy.resize(static_cast<std::size_t>(cfg.backends));
    for (int i = 0; i < cfg.backends; ++i) {
      BackendConfig bc;
      if (i < cfg.faulty) {
        // A silently inverted comparator active over the early
        // merge-split phases — the fault class only the end-to-end
        // certificate (and then block repair) can handle.  Pure
        // function of the seed, so STREAM-REPRO rebuilds the pool.
        const std::uint64_t h = mix64(cfg.seed, 0xfab17u + static_cast<std::uint64_t>(i));
        const auto node = static_cast<long long>(
            h % static_cast<std::uint64_t>(pg->num_nodes()));
        char schedule[96];
        std::snprintf(schedule, sizeof schedule,
                      "seed=%" PRIu64 ",comparators=%lld@2~34I", h, node);
        bc.fault_schedule = schedule;
      }
      backends.push_back(std::make_unique<SortBackend>(
          *pg, i, bc, nullptr, executor, cfg.breaker));
    }

    if (recovery != nullptr && cfg.journal_dir.empty())
      throw std::invalid_argument(
          "stream: recovery requires a journal directory");
    if (!cfg.journal_dir.empty()) {
      if (::mkdir(cfg.journal_dir.c_str(), 0755) != 0 && errno != EEXIST)
        throw std::invalid_argument("stream: cannot create journal dir " +
                                    cfg.journal_dir + ": " +
                                    std::strerror(errno));
      io_clock = std::make_unique<IoFaultClock>(cfg.io_faults);
      store = std::make_unique<SpillStore>(cfg.journal_dir, io_clock.get());
      // Recovery must not truncate the old journal before the new one
      // is durable: the deferred writer leaves wal.log untouched until
      // the first rewrite() atomically replaces it.
      journal = std::make_unique<JournalWriter>(
          cfg.journal_dir + "/" + std::string(kJournalFile), io_clock.get(),
          /*open_now=*/recovery == nullptr);
      journal->set_kill_after(cfg.kill_after_records);
      if (recovery == nullptr) {
        journal->append(RecordType::kConfig, config_payload());
      } else {
        init_from_recovery();
      }
    }
  }

  // --- spill accounting (the model's disk; never budget-gated) ----------
  void spill_add(std::int64_t bytes) {
    spill_used += bytes;
    if (spill_used > spill_high) spill_high = spill_used;
  }
  void spill_release(std::int64_t bytes) { spill_used -= bytes; }

  // --- durability --------------------------------------------------------
  [[nodiscard]] std::string config_payload() const {
    return encode_stream_config(cfg, static_cast<int>(pg->radix()),
                                pg->dims());
  }

  /// Reads a spill blob and checks it against the journaled fingerprint
  /// state, re-reading once on a mismatch (a read-back corruption is
  /// transient; a bad file is not).  Returns false when the blob is
  /// missing or fails the check both times.
  bool read_checked(const SpillRef& ref, const FingerprintState& expect,
                    std::vector<Key>* out) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      std::vector<Key> keys;
      try {
        keys = store->read(ref);
      } catch (const std::runtime_error&) {
        return false;
      }
      FingerprintAccumulator acc;
      acc.absorb(keys);
      if (acc.state() == expect) {
        *out = std::move(keys);
        return true;
      }
    }
    return false;
  }

  /// Stages `keys` as a blob of the event's commit group and tracks it
  /// live; the keys are written from `keys` itself at commit.
  SpillRef spill_blob(std::span<const Key> keys) {
    SpillRef ref = journal->stage_blob(keys);
    store->track(ref);
    return ref;
  }

  /// A blob ref from the replayed journal: blobs it held itself now
  /// live in the generation recovery retired it to.
  [[nodiscard]] SpillRef replayed(SpillRef ref) const {
    if (ref.file == kJournalFile) ref.file = replayed_journal;
    return ref;
  }

  /// Seals range r durably: the range file is written and fsync'd now,
  /// and the range's run blobs leave the live set (and the slice bytes
  /// the ledger), but the seal commits only with the compaction that
  /// ends the event (commit_event), and emptied generations are reaped
  /// after.
  void seal_durable(int r, std::span<const Key> output,
                    const FingerprintState& range_fp) {
    RangeSealedRecord rec;
    rec.range = r;
    rec.keys = static_cast<std::int64_t>(output.size());
    rec.fp = range_fp;
    rec.has_keys = output.empty() ? 0 : 1;
    if (!output.empty()) {
      rec.first = output.front();
      rec.last = output.back();
      rec.file_bytes =
          store->write_file(SpillStore::range_name(r), output).bytes;
      range_bytes_live += rec.file_bytes;
    }
    sealed_records.push_back(rec);
    for (Run& run : runs) {
      if (run.range != r) continue;
      store->release(run.slice_ref);
      store->release(run.output_ref);
      // Durable retention ends at seal: release the slice bytes the
      // non-durable model would have released at verify.
      spill_release(run.slice_ref.bytes);
      run.slice_ref = {};
      run.output_ref = {};
    }
    seal_pending = true;
  }

  /// Commits the event that just ran as one group — its spill blobs,
  /// then its journal records — in one write and one fsync.  An event
  /// that sealed then compacts: the journal is retired to a generation
  /// holding its live blobs, the seal and ledger records go into the
  /// rewritten journal, whose rename is the seal's commit point, and
  /// only then are emptied generations reaped.
  void commit_event() {
    journal->commit();
    held_until_commit.clear();
    if (seal_pending) {
      seal_pending = false;
      retire_journal();
      std::vector<std::pair<RecordType, std::string>> records =
          live_records();
      records.emplace_back(RecordType::kLedgerDelta,
                           reconcile_ledger().encode());
      journal->rewrite(records);
      store->reap();
    }
    // Once flushed, the journal can name no generation an earlier
    // process left behind except those recovery adopted.
    if (flushed) store->reap_orphans();
  }

  /// Moves the journal's live blobs to a generation file before a
  /// compaction replaces it, and points every run's refs there.
  void retire_journal() {
    const std::string generation = store->retire(kJournalFile);
    if (generation.empty()) return;
    for (Run& run : runs)
      for (SpillRef* ref : {&run.slice_ref, &run.output_ref})
        if (ref->file == kJournalFile) ref->file = generation;
  }

  /// Compares the byte-counter spill model against the measured live
  /// blob bytes: the reconciliation point the compaction journals.  A
  /// disagreement is a modeling bug (gate: zero), counted loudly, never
  /// absorbed.
  LedgerDeltaRecord reconcile_ledger() {
    const std::int64_t measured = store->live_bytes() - range_bytes_live;
    if (measured != spill_used) ++report.spill_reconcile_failures;
    LedgerDeltaRecord delta;
    delta.spill_accounted = spill_used;
    delta.spill_measured = measured;
    delta.resident_used = ram.used();
    delta.spill_high = spill_high;
    return delta;
  }

  /// The compacted journal: config + aggregate snapshot + sealed-range
  /// records + the live (unsealed) runs' cut/verify records.
  [[nodiscard]] std::vector<std::pair<RecordType, std::string>>
  live_records() const {
    std::vector<std::pair<RecordType, std::string>> records;
    records.emplace_back(RecordType::kConfig, config_payload());
    SnapshotRecord snap;
    snap.batches = batches_ingested;
    snap.ingest = ingest_acc.state();
    snap.chain = chain;
    snap.keys_ingested = report.keys_ingested;
    snap.runs_total = static_cast<std::int64_t>(runs.size());
    snap.padded_keys = report.padded_keys;
    snap.forced_cuts = report.forced_cuts;
    records.emplace_back(RecordType::kSnapshot, snap.encode());
    for (const RangeSealedRecord& rec : sealed_records)
      records.emplace_back(RecordType::kRangeSealed, rec.encode());
    for (const Run& run : runs) {
      // Skip recovery placeholders and sealed ranges' (released) runs.
      if (run.range < 0 ||
          run.range < static_cast<int>(sealed_records.size()))
        continue;
      const RunDispatchedRecord cut = cut_record(run);
      records.emplace_back(RecordType::kRunDispatched, cut.encode());
      if (run.done)
        records.emplace_back(RecordType::kRunVerified,
                             verify_record(run).encode());
    }
    return records;
  }

  [[nodiscard]] static RunDispatchedRecord cut_record(const Run& run) {
    RunDispatchedRecord rec;
    rec.run = run.id;
    rec.range = run.range;
    rec.pad = run.pad;
    rec.keys = static_cast<std::int64_t>(run.acc.state().count);
    rec.fp = run.acc.state();
    rec.file_bytes = run.slice_ref.bytes;
    rec.file = run.slice_ref.file;
    rec.offset = run.slice_ref.offset;
    return rec;
  }

  [[nodiscard]] static RunVerifiedRecord verify_record(const Run& run) {
    RunVerifiedRecord rec;
    rec.run = run.id;
    rec.keys = static_cast<std::int64_t>(run.acc.state().count);
    rec.fp = run.acc.state();
    rec.file_bytes = run.output_ref.bytes;
    rec.file = run.output_ref.file;
    rec.offset = run.output_ref.offset;
    return rec;
  }

  /// Rebuilds pipeline state from a replayed journal (flushed mode) or
  /// arms the cross-check manifest (mid-ingest mode) — see
  /// stream/recovery.hpp for the two regimes.
  void init_from_recovery() {
    const RecoveryManifest& m = *recovery;
    report.replayed_records = m.replayed_records;
    report.torn_tail_bytes = m.torn_bytes;
    // The replayed journal's blobs must outlive its replacement: they
    // stay in a generation file, adopted blob by blob below.
    replayed_journal = store->retire_unadopted(kJournalFile);
    // Re-journal the recovered state first: wal.log is replaced
    // atomically, so a crash during recovery replays the same manifest.
    if (!m.flushed) {
      // Mid-ingest: ingestion replays from batch 0 under journal
      // cross-checks; the fresh journal starts from config alone.
      journal->rewrite({{RecordType::kConfig, config_payload()}});
      return;
    }

    flushed = true;
    batches_ingested = static_cast<int>(m.aggregate.batches);
    ingest_acc = FingerprintAccumulator::from_state(m.aggregate.ingest);
    chain = m.aggregate.chain;
    report.batches = m.aggregate.batches;
    report.keys_ingested = m.aggregate.keys_ingested;
    report.padded_keys = m.aggregate.padded_keys;
    report.forced_cuts = m.aggregate.forced_cuts;
    report.runs = m.aggregate.runs_total;

    // Sealed ranges re-emit from their certified range files.  A
    // sealed range's runs are gone (released at seal), so a range file
    // that fails its certificate is unrecoverable — refused loudly.
    for (const RangeSealedRecord& rec : m.sealed) {
      sealed_records.push_back(rec);
      if (rec.keys > 0) {
        const SpillRef ref{SpillStore::range_name(rec.range), 0,
                           rec.file_bytes};
        store->adopt(ref);
        range_bytes_live += rec.file_bytes;
        std::vector<Key> keys;
        if (!read_checked(ref, rec.fp, &keys))
          throw std::runtime_error(
              "recovery: sealed range " + std::to_string(rec.range) +
              " fails its journaled fingerprint and its runs were "
              "released at seal — unrecoverable");
        const bool sorted = std::is_sorted(keys.begin(), keys.end());
        if (!sorted || keys.front() != rec.first || keys.back() != rec.last ||
            (has_last_sealed && keys.front() < last_sealed))
          throw std::runtime_error(
              "recovery: sealed range " + std::to_string(rec.range) +
              " violates its journaled order/boundary — unrecoverable");
        sealed_acc.absorb(FingerprintAccumulator::from_state(rec.fp));
        report.keys_emitted += rec.keys;
        last_sealed = keys.back();
        has_last_sealed = true;
        emitted->insert(emitted->end(), keys.begin(), keys.end());
      } else {
        ++report.empty_ranges;
      }
      ++report.ranges_sealed;
      ++report.recovered_ranges;
      ++next_seal;
    }

    // Live runs: verified outputs load and re-certify; anything else
    // (unverified, or a verified run whose output file is damaged)
    // reloads its retained slice and re-dispatches.
    Run placeholder;
    placeholder.range = -1;
    placeholder.done = true;
    runs.assign(static_cast<std::size_t>(m.aggregate.runs_total),
                placeholder);
    for (const RecoveredRun& rr : m.runs) {
      if (rr.cut.run < 0 ||
          rr.cut.run >= static_cast<std::int64_t>(runs.size()))
        throw std::runtime_error("recovery: run id " +
                                 std::to_string(rr.cut.run) +
                                 " outside the journaled run count");
      Run run;
      run.id = rr.cut.run;
      run.range = rr.cut.range;
      run.pad = rr.cut.pad;
      run.acc = FingerprintAccumulator::from_state(rr.cut.fp);
      run.slice_ref = replayed(rr.cut.blob());
      store->adopt(run.slice_ref);
      spill_add(run.slice_ref.bytes);
      bool adopted = false;
      if (rr.verified) {
        const SpillRef ref = replayed(rr.verify.blob());
        std::vector<Key> output;
        if (read_checked(ref, rr.verify.fp, &output) &&
            std::is_sorted(output.begin(), output.end()) &&
            store->adopt(ref)) {
          spill_add(static_cast<std::int64_t>(output.size()) * kKeyBytes);
          run.done = true;
          run.output = std::move(output);
          run.output_ref = ref;
          adopted = true;
        }
      }
      if (!adopted) {
        std::vector<Key> slice;
        if (!read_checked(run.slice_ref, rr.cut.fp, &slice))
          throw std::runtime_error(
              "recovery: run " + std::to_string(run.id) +
              " slice file fails its journaled fingerprint — the journal "
              "committed after the slice was durable, so this is disk "
              "damage, not a crash artifact");
        run.slice = std::move(slice);
        ready.push_back(run.id);
      }
      ++report.recovered_runs;
      runs[static_cast<std::size_t>(run.id)] = std::move(run);
    }
    journal->rewrite(live_records());
  }

  /// The end of the outage darkening backend i's domain at `now`, or
  /// `now` when its domain is up.
  [[nodiscard]] std::int64_t dark_until(std::size_t i, std::int64_t now) const {
    return outage_until(outages[i % static_cast<std::size_t>(domains)], now);
  }

  // --- ingest ------------------------------------------------------------
  void ingest(std::int64_t batch, std::int64_t /*now*/) {
    const std::int64_t bytes = cfg.batch_keys * kKeyBytes;
    while (!ram.try_reserve(bytes)) {
      // Backpressure: shed resident bytes by cutting the fullest
      // partial run out to spill.  Validated budget >= one batch, so
      // this always converges: once every buffer is empty the reserve
      // must succeed.
      if (!force_cut()) throw std::logic_error("stream: backpressure deadlock");
    }
    JobSpec spec;
    spec.key_seed = mix64(cfg.seed, static_cast<std::uint64_t>(batch));
    spec.pattern = cfg.pattern;
    const std::vector<Key> keys = service_job_keys(cfg.batch_keys, spec);

    FingerprintAccumulator batch_acc;
    batch_acc.absorb(keys);
    ingest_acc.absorb(batch_acc);
    chain = mix64(chain, batch_acc.finalize().checksum);
    ++report.batches;
    report.keys_ingested += static_cast<std::int64_t>(keys.size());

    if (recovery != nullptr) {
      // Mid-ingest recovery: every re-ingested batch must reproduce its
      // journaled fingerprint — a mismatch means this journal belongs
      // to a different stream, refused loudly, never absorbed.
      ++report.reingested_batches;
      if (batch < static_cast<std::int64_t>(recovery->batches.size())) {
        const BatchIngestedRecord& rec =
            recovery->batches[static_cast<std::size_t>(batch)];
        if (rec.checksum != batch_acc.finalize().checksum ||
            rec.chain_after != chain)
          throw std::runtime_error(
              "recovery: re-ingested batch " + std::to_string(batch) +
              " does not reproduce its journaled fingerprint/chain — the "
              "journal belongs to a different stream");
      }
    }
    if (durable()) {
      BatchIngestedRecord rec;
      rec.batch = batch;
      rec.keys = static_cast<std::int64_t>(keys.size());
      rec.checksum = batch_acc.finalize().checksum;
      rec.chain_after = chain;
      journal->stage(RecordType::kBatchIngested, rec.encode());
    }

    if (!have_splitters) {
      const std::vector<Key> sample =
          sample_prefix(keys, cfg.sample_keys, mix64(cfg.seed, kSampleSalt));
      splitters = pick_splitters(sample, cfg.ranges);
      have_splitters = true;
    }

    std::vector<std::vector<Key>> frags = scatter_keys(keys, splitters);
    FingerprintAccumulator scatter_acc;
    for (const auto& frag : frags) scatter_acc.absorb(frag);
    // Scatter conservation: the fragments must re-assemble the batch
    // multiset exactly.  A mismatch is a pipeline bug surfacing as a
    // certificate escape, never silent output.
    if (!(scatter_acc == batch_acc)) ++report.cert_escapes;

    for (int r = 0; r < cfg.ranges; ++r) {
      auto& buffer = buffers[static_cast<std::size_t>(r)];
      buffer.insert(buffer.end(), frags[static_cast<std::size_t>(r)].begin(),
                    frags[static_cast<std::size_t>(r)].end());
      while (static_cast<std::int64_t>(buffer.size()) >= run_keys)
        cut_run(r, /*pressure=*/false);
    }

    if (++batches_ingested == cfg.batches) {
      for (int r = 0; r < cfg.ranges; ++r)
        if (!buffers[static_cast<std::size_t>(r)].empty())
          cut_run(r, /*pressure=*/false);
      flushed = true;
      if (durable()) {
        IngestDoneRecord rec;
        rec.batches = batches_ingested;
        rec.ingest = ingest_acc.state();
        rec.chain = chain;
        rec.keys_ingested = report.keys_ingested;
        rec.runs_total = static_cast<std::int64_t>(runs.size());
        rec.padded_keys = report.padded_keys;
        rec.forced_cuts = report.forced_cuts;
        journal->stage(RecordType::kIngestDone, rec.encode());
      }
    }
  }

  /// Cuts a run from the front of range r's buffer: the first run_keys
  /// keys, or everything the buffer holds (a padded partial run) when
  /// it is shorter.  The cut keys leave RAM for spill (retained slice).
  void cut_run(int r, bool pressure) {
    auto& buffer = buffers[static_cast<std::size_t>(r)];
    const auto take = std::min<std::int64_t>(
        run_keys, static_cast<std::int64_t>(buffer.size()));
    Run run;
    run.id = static_cast<std::int64_t>(runs.size());
    run.range = r;
    run.slice.assign(buffer.begin(), buffer.begin() + take);
    buffer.erase(buffer.begin(), buffer.begin() + take);
    run.pad = run_keys - take;
    run.acc.absorb(run.slice);
    ram.release(take * kKeyBytes);
    spill_add(take * kKeyBytes);
    if (pressure) ++report.forced_cuts;
    report.padded_keys += run.pad;
    ++report.runs;

    bool adopted = false;
    if (durable()) {
      run.slice_ref = spill_blob(run.slice);
      journal->stage(RecordType::kRunDispatched, cut_record(run).encode());
      adopted = adopt_verified_cut(run);
    }
    if (!adopted) ready.push_back(run.id);
    runs.push_back(std::move(run));
  }

  /// Mid-ingest recovery short-circuit: a run the old journal proves
  /// verified skips the backend — its re-cut slice must match the
  /// journaled cut fingerprint (else the journal is for a different
  /// stream), and its surviving output file must re-certify; a damaged
  /// output falls back to normal dispatch from the fresh slice.
  bool adopt_verified_cut(Run& run) {
    if (recovery == nullptr) return false;
    const RecoveredRun* match = nullptr;
    for (const RecoveredRun& rr : recovery->runs)
      if (rr.cut.run == run.id) {
        match = &rr;
        break;
      }
    if (match == nullptr) return false;
    if (!(match->cut.fp == run.acc.state()) || match->cut.range != run.range ||
        match->cut.pad != run.pad)
      throw std::runtime_error(
          "recovery: re-cut run " + std::to_string(run.id) +
          " diverges from its journaled cut — the journal belongs to a "
          "different stream");
    if (!match->verified) return false;
    const SpillRef ref = replayed(match->verify.blob());
    std::vector<Key> output;
    if (!read_checked(ref, match->verify.fp, &output) ||
        !std::is_sorted(output.begin(), output.end()) || !store->adopt(ref))
      return false;  // damaged output: re-dispatch from the fresh slice
    spill_add(static_cast<std::int64_t>(output.size()) * kKeyBytes);
    run.done = true;
    run.output = std::move(output);
    run.output_ref = ref;
    // The slice's staged blob is written at the end of the event.
    held_until_commit.push_back(std::move(run.slice));
    run.slice = {};
    ++report.recovered_runs;
    journal->stage(RecordType::kRunVerified, verify_record(run).encode());
    return true;
  }

  /// Relieves memory pressure by cutting the fullest partial run out to
  /// spill.  False when every buffer is already empty.
  bool force_cut() {
    int best = -1;
    std::size_t best_size = 0;
    for (int r = 0; r < cfg.ranges; ++r) {
      const std::size_t size = buffers[static_cast<std::size_t>(r)].size();
      if (size > best_size) {
        best = r;
        best_size = size;
      }
    }
    if (best < 0) return false;
    cut_run(best, /*pressure=*/true);
    return true;
  }

  // --- dispatch ----------------------------------------------------------
  void try_dispatch(std::int64_t now) {
    while (!ready.empty()) {
      bool outage_blocked = false;
      const int target = pick_backend(
          busy.size(), 0, now,
          [&](std::size_t i) -> CircuitBreaker* {
            return busy[i] ? nullptr : &backends[i]->breaker();
          },
          [&](std::size_t i) {
            const bool dark = dark_until(i, now) > now;
            outage_blocked = outage_blocked || dark;
            return dark;
          });
      if (target < 0) {
        if (outage_blocked) ++report.outage_refusals;
        schedule_poke(now);
        return;
      }
      const std::int64_t run_id = ready.front();
      ready.pop_front();
      dispatch(run_id, target, now);
    }
  }

  void dispatch(std::int64_t run_id, int backend, std::int64_t now) {
    Run& run = runs[static_cast<std::size_t>(run_id)];
    ++run.attempts;
    ++report.run_attempts;
    if (run.attempts > 1) ++report.retries;
    SortBackend& be = *backends[static_cast<std::size_t>(backend)];
    be.breaker().on_dispatch();

    JobSpec spec;
    spec.id = run.id;
    spec.key_seed = mix64(cfg.seed, static_cast<std::uint64_t>(run.id));
    spec.block = cfg.block;
    // The machine's keys, padding included, built from the retained
    // slice in one copy on every (re-)dispatch; the backend takes them.
    spec.payload.reserve(static_cast<std::size_t>(run_keys));
    spec.payload.assign(run.slice.begin(), run.slice.end());
    spec.payload.resize(static_cast<std::size_t>(run_keys), kStreamSentinel);

    AttemptResult result = be.run_attempt(std::move(spec), now);
    report.sdc_detected += result.sdc_detected ? 1 : 0;
    report.repair_passes += result.repair_passes;

    // Whole-run crash injection on the dispatch clock: the backend dies
    // partway (half the steps are burned) and the run must be
    // re-dispatched from its retained slice.  Pure hash of (seed, run,
    // attempt), so replay is bit-identical.
    const double u = hash_to_unit(
        mix64(mix64(cfg.seed, kCrashSalt),
              mix64(static_cast<std::uint64_t>(run.id),
                    static_cast<std::uint64_t>(run.attempts))));
    if (u < cfg.crash_rate) {
      result.success = false;
      result.output.clear();
      result.steps = std::max<std::int64_t>(1, result.steps / 2);
      ++report.crash_injected;
    }

    const std::int64_t completion = now + result.steps;
    busy[static_cast<std::size_t>(backend)] =
        InFlight{run.id, std::move(result), now};
    events.push(completion, kCompletion, run.id, backend);
  }

  void on_completion(std::size_t b, std::int64_t now) {
    InFlight fl = std::move(*busy[b]);
    busy[b].reset();
    SortBackend& be = *backends[b];
    Run& run = runs[static_cast<std::size_t>(fl.run)];

    bool success = fl.result.success;
    // PoolRouter semantics: a completion landing inside its domain's
    // outage window is lost — the work happened, the result did not
    // make it out of the dark rack.
    if (success && dark_until(b, now) > now) {
      success = false;
      ++report.outage_failures;
    }

    if (success) {
      std::vector<Key>& out = fl.result.output;
      bool ok = static_cast<std::int64_t>(out.size()) == run_keys;
      if (ok) {
        std::int64_t pad_seen = 0;
        while (pad_seen < static_cast<std::int64_t>(out.size()) &&
               out[out.size() - 1 - static_cast<std::size_t>(pad_seen)] ==
                   kStreamSentinel)
          ++pad_seen;
        ok = pad_seen == run.pad;
      }
      if (ok) {
        out.resize(out.size() - static_cast<std::size_t>(run.pad));
        FingerprintAccumulator out_acc;
        out_acc.absorb(out);
        ok = out_acc == run.acc;
      }
      if (!ok) {
        // The backend's own certificate passed but the stream-level
        // check disagrees: a silent escape, caught here.  Gate: zero.
        ++report.cert_escapes;
        success = false;
      } else {
        be.breaker().record_success();
        run.done = true;
        spill_add(static_cast<std::int64_t>(out.size()) * kKeyBytes);
        run.output = std::move(out);
        if (durable()) {
          // The output blob commits in the event's group, ahead of the
          // verify record.  The slice blob (and its ledger bytes) is
          // retained until seal so a lost output can still re-dispatch.
          run.output_ref = spill_blob(run.output);
          journal->stage(RecordType::kRunVerified,
                         verify_record(run).encode());
        } else {
          spill_release(static_cast<std::int64_t>(run.slice.size()) *
                        kKeyBytes);
        }
        run.slice.clear();
        run.slice.shrink_to_fit();
        latencies.push_back(now - fl.dispatched);
      }
    }

    if (!success) {
      ++report.run_failures;
      be.breaker().record_failure(now);
      if (run.attempts >= cfg.retry_limit) {
        ++report.runs_failed;
        failed = true;
      } else {
        events.push(now + retry_backoff(cfg.backoff_base, cfg.backoff_cap,
                                        run.attempts),
                    kRequeue, run.id, 0);
      }
    }
    try_dispatch(now);
  }

  void schedule_poke(std::int64_t now) {
    std::int64_t wake = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < busy.size(); ++i) {
      if (busy[i].has_value()) continue;
      const std::int64_t dark = dark_until(i, now);
      if (dark > now)
        wake = std::min(wake, dark);
      else if (backends[i]->breaker().state() == BreakerState::kOpen)
        wake = std::min(wake, backends[i]->breaker().open_until());
    }
    if (wake == std::numeric_limits<std::int64_t>::max()) return;
    wake = std::max(wake, now + 1);
    if (wake == next_poke) return;
    next_poke = wake;
    events.push(wake, kRequeue, -1, 0);
  }

  // --- egress ------------------------------------------------------------
  void try_start_merge(std::int64_t now) {
    if (!flushed || merge_busy || failed) return;
    while (next_seal < cfg.ranges) {
      bool any = false;
      bool all_done = true;
      for (const Run& run : runs) {
        if (run.range != next_seal) continue;
        any = true;
        if (!run.done) {
          all_done = false;
          break;
        }
      }
      if (!all_done) return;
      if (!any) {
        if (durable()) seal_durable(next_seal, {}, FingerprintState{});
        ++report.ranges_sealed;
        ++report.empty_ranges;
        ++next_seal;
        report.horizon = std::max(report.horizon, now);
        continue;
      }
      start_merge(next_seal, now);
      return;
    }
  }

  void start_merge(int r, std::int64_t now) {
    merge_busy = true;
    const int attempt = ++merge_attempts[static_cast<std::size_t>(r)];

    std::vector<std::span<const Key>> inputs;
    for (const Run& run : runs)
      if (run.range == r) inputs.emplace_back(run.output);

    PendingMerge pm;
    pm.range = r;
    pm.started = now;
    // The merge cursors (one head per run) are the only resident bytes
    // egress needs: emitted keys stream to the consumer as produced.
    pm.cursor_bytes = static_cast<std::int64_t>(inputs.size()) * 2 * kKeyBytes;
    if (!ram.try_reserve(pm.cursor_bytes)) pm.cursor_bytes = 0;
    // One merge is in flight at a time and nothing else appends to
    // `emitted` until it is done, so the range is merged straight onto
    // its tail; a tear or a failed seal certificate truncates it away.
    pm.base = emitted->size();
    measured_multiway_merge(inputs, pm.stats, *emitted);
    const auto total = static_cast<std::int64_t>(emitted->size() - pm.base);
    const std::int64_t steps =
        pm.stats.steps() +
        certificate_steps(total, std::max<std::int64_t>(0, total - 1), true);

    // Torn-egress draw: pure hash of (seed, range, merge attempt).
    const double u = hash_to_unit(
        mix64(mix64(cfg.seed, kTearSalt),
              mix64(static_cast<std::uint64_t>(r),
                    static_cast<std::uint64_t>(attempt))));
    const bool tear = u < cfg.tear_rate;
    const std::int64_t duration =
        tear ? std::max<std::int64_t>(1, steps / 2)
             : std::max<std::int64_t>(1, steps);
    pending = std::move(pm);
    events.push(now + duration, kMergeDone, r, tear ? 1 : 0);
  }

  void on_merge_done(bool torn, std::int64_t now) {
    merge_busy = false;
    // `pending` stays set until the range's keys on emitted's tail are
    // sealed or truncated away.
    const PendingMerge pm = *pending;
    ram.release(pm.cursor_bytes);
    report.merge_steps += now - pm.started;

    if (torn) {
      // Torn merge: the partial output is discarded, the pipeline rolls
      // back to the last sealed range, and the range re-merges from the
      // retained sorted runs in spill.  Half the merge work was burned
      // — charged, not hidden.
      ++report.merge_rollbacks;
      report.merge_comparisons += pm.stats.comparisons / 2;
      report.merge_moves += pm.stats.moves / 2;
      emitted->resize(pm.base);
      pending.reset();
      if (merge_attempts[static_cast<std::size_t>(pm.range)] >=
          cfg.retry_limit) {
        failed = true;
        return;
      }
      start_merge(pm.range, now);
      return;
    }

    report.merge_comparisons += pm.stats.comparisons;
    report.merge_moves += pm.stats.moves;

    // Seal certificate: the merged range must be sorted, carry exactly
    // the multiset of its runs, and start at or above the previous
    // sealed range's last key (the splitter partition boundary).
    FingerprintAccumulator range_acc;
    for (const Run& run : runs)
      if (run.range == pm.range) range_acc.absorb(run.acc);
    const std::span<const Key> output =
        std::span<const Key>(*emitted).subspan(pm.base);
    const Certifier certifier(range_acc.finalize(), executor);
    const EndToEndCertificate cert = certifier.certify(output);
    bool ok = cert.pass();
    if (ok && has_last_sealed && !output.empty())
      ok = output.front() >= last_sealed;
    if (!ok) {
      ++report.cert_escapes;
      failed = true;
      emitted->resize(pm.base);
      pending.reset();
      return;
    }

    sealed_acc.absorb(range_acc);
    report.keys_emitted += static_cast<std::int64_t>(output.size());
    if (!output.empty()) {
      last_sealed = output.back();
      has_last_sealed = true;
    }
    if (durable()) seal_durable(pm.range, output, range_acc.state());
    pending.reset();
    for (Run& run : runs) {
      if (run.range != pm.range || run.output.empty()) continue;
      spill_release(static_cast<std::int64_t>(run.output.size()) * kKeyBytes);
      run.output.clear();
      run.output.shrink_to_fit();
    }
    ++report.ranges_sealed;
    ++next_seal;
    report.horizon = std::max(report.horizon, now);
    try_start_merge(now);
  }

  void drain_events() {
    while (!events.empty()) {
      const EventQueue::Event e = events.pop();
      const std::int64_t now = e.time;
      if (e.kind == kRequeue && e.id == -1 && next_poke == e.time)
        next_poke = -1;
      switch (e.kind) {
        case kArrival:
          ingest(e.id, now);
          try_dispatch(now);
          break;
        case kCompletion:
          on_completion(static_cast<std::size_t>(e.aux), now);
          break;
        case kRequeue:
          if (e.id >= 0) ready.push_back(e.id);
          try_dispatch(now);
          break;
        case kMergeDone:
          on_merge_done(e.aux == 1, now);
          break;
      }
      if (flushed) try_start_merge(now);
      if (durable()) commit_event();
    }
  }

  StreamReport run() {
    if (flushed) {
      // Recovered post-flush: no batch ever re-arrives; one poke at
      // t=0 kicks dispatch of the reloaded runs and the egress chain.
      events.push(0, kRequeue, -1, 0);
    } else {
      for (int b = 0; b < cfg.batches; ++b)
        events.push(static_cast<std::int64_t>(b) * cfg.batch_interval, kArrival,
                    b, 0);
    }

    try {
      drain_events();
    } catch (...) {
      // A pending merge's keys sit on emitted's tail unsealed; a stream
      // that dies (a journal kill, an I/O error) keeps only its sealed
      // ranges there.
      if (pending) emitted->resize(pending->base);
      throw;
    }

    report.seed = cfg.seed;
    report.budget_bytes = ram.budget();
    report.high_water_bytes = ram.high_water();
    report.backpressure_stalls = ram.refusals();
    report.spill_high_bytes = spill_high;
    report.run_latency = latency_stats(latencies);
    for (const auto& be : backends)
      report.breaker_transitions += be->breaker().transitions();
    report.ingest_fp = ingest_acc.finalize();
    report.sealed_fp = sealed_acc.finalize();
    report.chain_hash = chain;
    report.complete =
        next_seal == cfg.ranges && !failed && report.runs_failed == 0;
    if (durable()) {
      report.journal_records = journal->records_committed();
      report.journal_bytes = journal->bytes_written();
      report.journal_syncs = journal->syncs();
      report.journal_compactions = journal->compactions();
      report.journal_short_writes = io_clock->short_writes();
      report.journal_dropped_syncs = io_clock->dropped_syncs();
      report.io_read_corruptions = io_clock->read_corruptions();
      report.spill_files = store->files_created();
      report.spill_measured_high_bytes = store->measured_high();
    }
    return report;
  }
};

StreamingSorter::StreamingSorter(const ProductGraph& pg,
                                 const StreamConfig& config,
                                 ParallelExecutor* executor,
                                 const RecoveryManifest* recovery)
    : impl_(std::make_unique<Impl>(pg, config, executor, &emitted_,
                                   recovery)) {}

StreamingSorter::~StreamingSorter() = default;

StreamReport StreamingSorter::run() { return impl_->run(); }

}  // namespace prodsort
