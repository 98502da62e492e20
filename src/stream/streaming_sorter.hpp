#pragma once

// Bounded-memory streaming sample-sort over arriving batches
// (docs/STREAMING.md).
//
// Every sort in the repo before this one materializes the whole
// dataset in one machine image.  The StreamingSorter instead runs the
// classic external sample-sort shape as a discrete-event pipeline on
// the service virtual clock:
//
//   ingest   — batches arrive on a fixed virtual cadence; each batch's
//              keys are a pure hash of (seed, batch), so a stalled
//              batch costs no memory and a STREAM-REPRO line rebuilds
//              the exact stream with no stored data;
//   split    — a seeded sample of the first batch picks P-1 splitters
//              (core/splitters.hpp); every key scatters to the range
//              whose splitter interval contains it;
//   run      — when a range buffer reaches run_keys = N^r * block
//              keys, it is cut into a *run*: a bounded-size block-mode
//              job dispatched to a SortBackend pool with per-backend
//              circuit breakers, retry + exponential backoff, and
//              per-domain outage windows (PoolRouter semantics: an
//              in-outage domain refuses dispatch, and a completion
//              landing inside a window counts as a failure);
//   egress   — once the stream ends, ranges seal in ascending order:
//              each range's verified run outputs are k-way merged by
//              the *measured* host merge (core/host_merge.hpp), with
//              the merged keys emitted to the consumer as produced.
//
// Robustness contracts (each asserted by tests and the soak gate):
//
//  * MemoryBudget backpressure — resident ingestion bytes (staged
//    batch + range buffers) never exceed the budget: pressure first
//    forces partial runs out to spill, and the high-water mark is
//    reported, never sampled.
//  * Chained certificates — every batch is fingerprinted at ingest,
//    every run's output is checked against its retained slice, every
//    sealed range against its runs, and the stream-level sealed
//    multiset against the ingested one: no key is lost or forged
//    across splitter/scatter/sort/merge without detection.
//  * Recovery ladder — a crashed, faulted, or outage-window run is
//    re-dispatched from its retained input slice; a torn egress merge
//    rolls back to the last sealed range and re-merges from the
//    retained sorted runs; a completed batch is never re-ingested
//    (no code path exists; the batch counter proves it).
//
// Everything — arrivals, crash draws, tear draws, outage windows — is
// a pure splitmix64 function of the seed on the virtual clock, so a
// run replays bit-identically for any executor thread count.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/multiway_merge.hpp"  // Key
#include "durability/io_faults.hpp"
#include "network/fault_model.hpp"  // parse_domain_outages
#include "product/product_graph.hpp"
#include "service/circuit_breaker.hpp"
#include "stream/stream_report.hpp"

namespace prodsort {

class ParallelExecutor;
struct RecoveryManifest;

/// Sentinel padding a short run up to run_keys; sorts above every real
/// key (batch patterns generate keys far below it) and is stripped —
/// counted — from the run output before any fingerprint comparison.
inline constexpr Key kStreamSentinel = std::numeric_limits<Key>::max();

struct StreamConfig {
  std::uint64_t seed = 1;
  int batches = 16;               ///< batches offered to the stream
  std::int64_t batch_keys = 512;  ///< keys per batch
  int pattern = 0;  ///< batch key shape (service_job_keys patterns 0-4)
  std::int64_t batch_interval = 64;  ///< virtual time between arrivals
  int ranges = 4;                 ///< P: splitter-partitioned output ranges
  std::int64_t sample_keys = 256; ///< seeded splitter sample size
  int block = 8;                  ///< keys per node; run_keys = nodes * block
  std::int64_t budget_bytes = 1 << 16;  ///< resident ingestion budget
  int backends = 4;               ///< sort backend pool size
  int domains = 2;                ///< fault domains (backend i -> i % domains)
  int faulty = 0;  ///< backends 0..faulty-1 get comparator-fault schedules
  /// Per-domain outage windows, "D@FROM~UNTIL" tokens joined by '+'
  /// (e.g. "0@300~500+1@800~900"); empty = no outages.
  std::string outage;
  double tear_rate = 0;   ///< per-merge-attempt torn-egress probability
  double crash_rate = 0;  ///< per-attempt whole-run crash probability
  int retry_limit = 8;    ///< attempts per run (and merge attempts per range)
  std::int64_t backoff_base = 8;  ///< retry backoff: min(cap, base << (k-1))
  std::int64_t backoff_cap = 256;
  BreakerConfig breaker;

  // Durability (docs/DURABILITY.md).  A non-empty journal_dir turns on
  // the write-ahead journal and real spill files under that directory;
  // io_faults injects deterministic short writes / dropped fsyncs /
  // read corruption; kill_after_records arms the deterministic crash
  // hook (the run throws DurabilityKill once the commit group holding
  // the N-th journal record commits, leaving exactly what a power cut
  // would).
  std::string journal_dir;
  IoFaultConfig io_faults;
  std::int64_t kill_after_records = 0;
};

class StreamingSorter {
 public:
  /// `pg` is borrowed and must outlive the sorter.  Throws
  /// std::invalid_argument on a config the pipeline cannot honor
  /// (budget below one batch, no ranges/backends, r < 2 topologies are
  /// rejected by sort_block_network at dispatch, malformed outage
  /// schedule).  A non-null `recovery` (borrowed; must outlive run())
  /// resumes the stream from a replayed journal instead of starting
  /// fresh — see stream/recovery.hpp.
  StreamingSorter(const ProductGraph& pg, const StreamConfig& config,
                  ParallelExecutor* executor = nullptr,
                  const RecoveryManifest* recovery = nullptr);
  ~StreamingSorter();

  StreamingSorter(const StreamingSorter&) = delete;
  StreamingSorter& operator=(const StreamingSorter&) = delete;

  /// Runs the whole stream to completion and returns the report.
  /// Callable once.
  [[nodiscard]] StreamReport run();

  /// The sealed output ranges, concatenated in seal order (the
  /// stream's product); valid after run().  Exposed so tests can
  /// assert the emitted sequence is globally sorted — a consumer would
  /// have received it incrementally.
  [[nodiscard]] const std::vector<Key>& emitted() const noexcept {
    return emitted_;
  }

 private:
  struct Impl;
  // emitted_ must be constructed before impl_: the Impl constructor
  // replays recovered sealed ranges straight into it.
  std::vector<Key> emitted_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prodsort
