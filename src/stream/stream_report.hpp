#pragma once

// Machine-readable outcome of a StreamingSorter run (docs/STREAMING.md).
//
// Same discipline as ServiceReport: integer counters, nearest-rank
// latency percentiles, and an order-sensitive hash() that is
// bit-identical across platforms and executor thread counts — the
// STREAM-REPRO replay gate compares exactly this hash.  conserved() is
// the stream's no-silent-loss invariant: every ingested key is emitted
// exactly once and the chained multiset fingerprints agree end to end.
// The fields are declared once, in fields(); hash() and json() are
// derived from that list (core/report_fields.hpp).

#include <cstdint>
#include <string>

#include "core/certifier.hpp"           // MultisetFingerprint
#include "service/service_report.hpp"   // LatencyStats

namespace prodsort {

struct StreamReport {
  std::uint64_t seed = 0;
  std::int64_t batches = 0;        ///< batches ingested (each exactly once)
  std::int64_t keys_ingested = 0;  ///< real keys entering the pipeline
  std::int64_t keys_emitted = 0;   ///< keys sealed into output ranges

  // Run lifecycle (one run = one bounded-size backend job).
  std::int64_t runs = 0;          ///< runs cut from the range buffers
  std::int64_t run_attempts = 0;  ///< backend attempts dispatched
  std::int64_t run_failures = 0;  ///< attempts that failed (any cause)
  std::int64_t runs_failed = 0;   ///< runs dead after the retry budget (gate 0)
  std::int64_t retries = 0;       ///< re-dispatches beyond first attempts
  std::int64_t crash_injected = 0;   ///< whole-run crashes fired mid-attempt
  std::int64_t outage_refusals = 0;  ///< dispatches refused: domain in outage
  std::int64_t outage_failures = 0;  ///< completions landing inside an outage
  std::int64_t sdc_detected = 0;     ///< attempts whose certificate failed
  std::int64_t repair_passes = 0;    ///< block repair passes across attempts
  std::int64_t cert_escapes = 0;     ///< egress fingerprint mismatches (gate 0)

  // Memory (bytes; docs/STREAMING.md "Memory budget").
  std::int64_t budget_bytes = 0;
  std::int64_t high_water_bytes = 0;  ///< must stay <= budget_bytes
  std::int64_t spill_high_bytes = 0;  ///< retained slices + sorted runs (disk)
  std::int64_t backpressure_stalls = 0;  ///< ingest reservations refused
  std::int64_t forced_cuts = 0;  ///< partial runs cut to relieve pressure
  std::int64_t padded_keys = 0;  ///< sentinel keys added to short runs

  // Egress (docs/STREAMING.md "Recovery ladder").
  std::int64_t ranges_sealed = 0;
  std::int64_t empty_ranges = 0;      ///< ranges sealed with zero keys
  std::int64_t merge_rollbacks = 0;   ///< torn merges rolled back + re-merged
  std::int64_t merge_comparisons = 0; ///< measured egress merge comparisons
  std::int64_t merge_moves = 0;       ///< measured egress merge key moves
  std::int64_t merge_steps = 0;       ///< virtual steps charged to egress

  std::int64_t breaker_transitions = 0;  ///< summed across backends
  std::int64_t horizon = 0;  ///< virtual time when the last range sealed
  LatencyStats run_latency;  ///< completion - dispatch, per verified run

  // Durability (docs/DURABILITY.md); all zero when journaling is off.
  std::int64_t journal_records = 0;  ///< records committed (incl. rewrites)
  /// Record bytes written to the journal (incl. rewrites); the blob
  /// frames a group carries are not counted, so the field means the
  /// same whatever the spill layout.
  std::int64_t journal_bytes = 0;
  std::int64_t journal_syncs = 0;    ///< fsyncs requested on the journal
  std::int64_t journal_short_writes = 0;   ///< injected short appends
  std::int64_t journal_dropped_syncs = 0;  ///< injected fsyncs that lied
  std::int64_t journal_compactions = 0;    ///< seal-triggered log rewrites
  std::int64_t spill_files = 0;  ///< range files + retired generations
  std::int64_t spill_measured_high_bytes = 0;  ///< measured live-file high
  std::int64_t spill_reconcile_failures = 0;   ///< accounted != measured (gate 0)
  std::int64_t io_read_corruptions = 0;  ///< injected read-back bit flips
  std::int64_t recovered_runs = 0;     ///< runs restored from journal + spill
  std::int64_t recovered_ranges = 0;   ///< sealed ranges re-emitted from disk
  std::int64_t reingested_batches = 0; ///< batches replayed mid-ingest (0 post-flush)
  std::int64_t replayed_records = 0;   ///< journal records replayed at recovery
  std::int64_t torn_tail_bytes = 0;    ///< uncommitted tail discarded at replay

  // Certificate chain (docs/STREAMING.md "Certificate chaining").
  MultisetFingerprint ingest_fp;  ///< finalized over every ingested key
  MultisetFingerprint sealed_fp;  ///< finalized over every sealed key
  /// Order-sensitive chain over the per-batch fingerprints, in ingest
  /// order: chain = mix64(chain, batch_checksum).  Replay identity for
  /// the STREAM-REPRO line (order matters here, unlike the multiset).
  std::uint64_t chain_hash = 0;

  bool complete = false;  ///< every range sealed, no run dead

  static void fields(auto& v, auto& self) {
    v("seed", self.seed);
    v("batches", self.batches);
    v("keys_ingested", self.keys_ingested);
    v("keys_emitted", self.keys_emitted);
    v("runs", self.runs);
    v("run_attempts", self.run_attempts);
    v("run_failures", self.run_failures);
    v("runs_failed", self.runs_failed);
    v("retries", self.retries);
    v("crash_injected", self.crash_injected);
    v("outage_refusals", self.outage_refusals);
    v("outage_failures", self.outage_failures);
    v("sdc_detected", self.sdc_detected);
    v("repair_passes", self.repair_passes);
    v("cert_escapes", self.cert_escapes);
    v("budget_bytes", self.budget_bytes);
    v("high_water_bytes", self.high_water_bytes);
    v("spill_high_bytes", self.spill_high_bytes);
    v("backpressure_stalls", self.backpressure_stalls);
    v("forced_cuts", self.forced_cuts);
    v("padded_keys", self.padded_keys);
    v("ranges_sealed", self.ranges_sealed);
    v("empty_ranges", self.empty_ranges);
    v("merge_rollbacks", self.merge_rollbacks);
    v("merge_comparisons", self.merge_comparisons);
    v("merge_moves", self.merge_moves);
    v("merge_steps", self.merge_steps);
    v("breaker_transitions", self.breaker_transitions);
    v("horizon", self.horizon);
    v("journal_records", self.journal_records);
    v("journal_bytes", self.journal_bytes);
    v("journal_syncs", self.journal_syncs);
    v("journal_short_writes", self.journal_short_writes);
    v("journal_dropped_syncs", self.journal_dropped_syncs);
    v("journal_compactions", self.journal_compactions);
    v("spill_files", self.spill_files);
    v("spill_measured_high_bytes", self.spill_measured_high_bytes);
    v("spill_reconcile_failures", self.spill_reconcile_failures);
    v("io_read_corruptions", self.io_read_corruptions);
    v("recovered_runs", self.recovered_runs);
    v("recovered_ranges", self.recovered_ranges);
    v("reingested_batches", self.reingested_batches);
    v("replayed_records", self.replayed_records);
    v("torn_tail_bytes", self.torn_tail_bytes);
    v("run_latency", self.run_latency);
    // JSON prints each fingerprint as its checksum; the key count is
    // keys_ingested / keys_emitted again, so only the hash folds it.
    v("ingest_checksum", self.ingest_fp.checksum);
    v.hash_only("ingest_count", self.ingest_fp.count);
    v("sealed_checksum", self.sealed_fp.checksum);
    v.hash_only("sealed_count", self.sealed_fp.count);
    v("chain_hash", self.chain_hash);
    v("complete", self.complete);
  }

  /// True iff the stream completed with every ingested key emitted
  /// exactly once: complete, keys_emitted == keys_ingested, sealed_fp
  /// == ingest_fp, and zero certificate escapes.
  [[nodiscard]] bool conserved() const;

  /// Order-sensitive fold of every declared field.  Two runs are
  /// behaviorally identical iff their hashes match — the determinism
  /// tests and the --repro replay gate compare this.
  [[nodiscard]] std::uint64_t hash() const;

  /// One-paragraph human summary for tool output.
  [[nodiscard]] std::string summary() const;

  /// JSON export of the declared fields except the two fingerprint
  /// counts, plus "conserved" and "hash".
  [[nodiscard]] std::string json() const;
};

}  // namespace prodsort
