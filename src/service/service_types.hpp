#pragma once

// Shared vocabulary of the deadline-aware sort service (src/service/,
// docs/SERVICE.md): jobs, terminal outcomes, shedding policies, and
// the host-fallback and adaptive-certification knobs that SortService
// and PoolRouter share.
//
// The service runs entirely in *virtual time* — the CostModel
// exec_steps of the simulated machines — so a whole multi-tenant
// schedule (arrivals, queueing, retries, breaker trips) is a pure
// function of its seed and replays bit-identically for any executor
// thread count.  Every job's input is likewise a pure hash of its spec
// (service_job_keys), which is what lets a SERVICE-REPRO line rebuild
// the exact offered traffic with no stored state.

#include <cstdint>
#include <string>
#include <vector>

#include "core/multiway_merge.hpp"  // Key
#include "product/gray_code.hpp"    // PNode

namespace prodsort {

/// What the bounded admission queue does under pressure:
///  * kDropTail  — FIFO service; a full queue rejects the arrival.
///  * kEdf       — earliest-deadline-first service; a full queue evicts
///                 the latest-deadline entry if the arrival is tighter,
///                 and dispatch sheds entries whose deadline already
///                 passed instead of wasting capacity on them.
///  * kPriority  — three tiers (0 high, 1 normal, 2 low), FIFO within a
///                 tier; a full queue evicts the lowest-priority entry
///                 if the arrival outranks it.
enum class ShedPolicy { kDropTail, kEdf, kPriority };

/// Terminal state of a job.  Every offered job ends in exactly one of
/// the non-pending states — the service's conservation invariant (no
/// silent loss) is checked by ServiceReport::conserved().
enum class JobOutcome {
  kPending,        ///< not yet resolved (never appears in a final report)
  kOnTime,         ///< verified sorted output, completion <= deadline
  kLate,           ///< verified sorted output, completion > deadline
  kShedQueueFull,  ///< rejected or evicted: admission queue at capacity
  kShedDeadline,   ///< dropped unserved: deadline passed while queued
  kFailed,         ///< retry budget exhausted without a verified output
};

struct JobSpec {
  std::int64_t id = 0;
  std::int64_t arrival = 0;    ///< virtual arrival time
  std::int64_t deadline = 0;   ///< absolute virtual-time deadline
  int priority = 1;            ///< 0 high, 1 normal, 2 low
  int pattern = 0;             ///< input shape, see service_job_keys
  int tenant = 0;              ///< owning tenant (PoolRouter; single = 0)
  std::uint64_t key_seed = 0;  ///< derives the job's keys

  /// Explicit input keys.  Empty for classic service jobs (whose keys
  /// are the pure hash of key_seed/pattern); the streaming pipeline
  /// (src/stream/) carries each run's scattered keys here, because a
  /// run's contents depend on the whole stream prefix, not on one seed.
  /// When non-empty, service_job_keys returns exactly this payload.
  std::vector<Key> payload;

  /// Keys per node for a block-mode attempt (BlockMachine + merge-split
  /// network); 0 = unit mode (one key per node).  Streaming runs use
  /// block mode so one bounded-size job covers run_keys = n*b keys.
  int block = 0;

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// The serving backend recorded for a fallback (measured host sort) run.
inline constexpr int kFallbackBackend = -2;

struct JobRecord {
  JobSpec spec;
  JobOutcome outcome = JobOutcome::kPending;
  int attempts = 0;     ///< sort attempts dispatched (0 if never served)
  int backend = -1;     ///< last serving backend id; kFallbackBackend = host
  bool fallback = false;   ///< served by the measured host fallback
  bool degraded = false;   ///< served via a degraded-topology remap
  bool verified = false;   ///< output certified sorted, checksum intact
  std::int64_t completion = -1;  ///< virtual completion time (-1 unserved)
  std::int64_t latency = -1;     ///< completion - arrival
  std::uint64_t checksum = 0;    ///< input multiset checksum (end-to-end id)

  /// The audit fields the reports fold (core/report_fields.hpp).  The
  /// rest of the spec is a pure function of the seed and the id.
  static void fields(auto& v, auto& self, bool with_tenant = false) {
    v("id", self.spec.id);
    // Only the federated report has tenants to tell apart; the
    // single-pool report folds no tenant slot.
    if (with_tenant) v("tenant", self.spec.tenant);
    v("outcome", self.outcome);
    v("attempts", self.attempts);
    v("backend", self.backend);
    v("fallback", self.fallback);
    v("degraded", self.degraded);
    v("verified", self.verified);
    v("completion", self.completion);
    v("latency", self.latency);
    v("checksum", self.checksum);
  }
};

/// Host sort used when the whole backend pool is breaker-open.  Charged
/// by *measurement*: measured_host_sort (core/host_merge.hpp) counts
/// every comparison and key move of its run-sort + k-way merge and
/// prices them through the shared kHostMergeLanes discipline, so
/// fallback latencies sit on the same clock as backend latencies (see
/// docs/STREAMING.md, "Measured host merge").
struct FallbackConfig {
  bool enabled = true;
  /// Keys per sorted run before the k-way merge (the external
  /// sample-sort host stage shape); clamped to the job size.
  std::int64_t run_keys = 64;
};

/// The adaptive certification dial (docs/FAULTS.md, docs/SERVICE.md):
/// replaces pool-wide hardening knobs with a silent-error budget the
/// service spends as cheaply as the measured risk allows.
struct AdaptiveCertServiceConfig {
  bool enabled = false;        ///< off = every attempt certified full
  double sdc_budget = 0.001;   ///< tolerated per-attempt escape probability
  double suspect_threshold = 0.25;  ///< ledger risk that triggers hardening
  int decay_streak = 8;        ///< clean certs per one-level decay
  /// Topology-quarantine gate on a suspect backend: when the ledger's
  /// most-implicated node holds at least `quarantine_share` of the
  /// attributed hits (and at least `quarantine_hits` of them), dispatch
  /// routes merges around that node (AttemptOptions::quarantine)
  /// instead of TMR-ing the whole backend.  Selective TMR is the rung
  /// above: diffuse attribution, or a quarantined attempt that still
  /// caught an SDC (the quarantine is "burned" for the rest of the
  /// run).
  double quarantine_share = 0.5;
  std::int64_t quarantine_hits = 2;
  /// Serialized SuspectLedger to preload (empty = start fresh); lets
  /// attribution persist across runs (prodsort_serve --ledger).
  std::string ledger_json;
};

[[nodiscard]] std::string to_string(ShedPolicy policy);
[[nodiscard]] std::string to_string(JobOutcome outcome);

/// Inverse of to_string(ShedPolicy) for CLI flags and repro lines;
/// throws std::invalid_argument naming the unknown token.
[[nodiscard]] ShedPolicy parse_shed_policy(const std::string& name);

/// The job's input keys: a pure splitmix64 function of (key_seed,
/// pattern, count), independent of every other job.  Patterns mirror
/// the stress harness: 0 uniform, 1 binary, 2 few-distinct, 3 reversed,
/// 4 small-period.  A spec with a payload returns it instead, moved out
/// when the caller passes the spec as an rvalue.
[[nodiscard]] std::vector<Key> service_job_keys(PNode count, JobSpec spec);

}  // namespace prodsort
