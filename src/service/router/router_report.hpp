#pragma once

// Machine-readable outcome of a PoolRouter run (docs/SERVICE.md,
// "Federation & fault domains").
//
// The federated report rolls the single-service accounting up two more
// levels: per-tenant terminal outcomes (the isolation audit) and
// per-pool health including the fault-domain counters (outage refusals,
// outage-converted failures, the deadline-miss EWMA that drives hedged
// re-dispatch).  Everything is integer or a stable integer encoding, so
// hash() is bit-identical across platforms and executor thread counts,
// and conserved() is the federated no-silent-loss invariant:
//
//   offered == sum over tenants of submitted
//   submitted(t) == on-time(t) + late(t) + shed(t) + failed(t)  for all t
//
// plus the per-job terminal/verified checks the single service makes.
// As in ServiceReport, each struct declares its fields once and hash()
// and json() are derived from that list (core/report_fields.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "service/service_report.hpp"
#include "service/service_types.hpp"

namespace prodsort {

/// Terminal accounting for one tenant — the isolation audit: a noisy
/// neighbor shows up as *its own* shed counts, never as a hole in
/// another tenant's conservation sum.
struct TenantStats {
  int id = -1;
  std::string name;
  std::int64_t submitted = 0;  ///< arrivals assigned to this tenant
  std::int64_t completed_on_time = 0;
  std::int64_t completed_late = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_deadline = 0;
  std::int64_t failed = 0;
  std::int64_t queue_high_water = 0;  ///< must stay <= the tenant's cap
  LatencyStats latency;               ///< completed jobs only

  static void fields(auto& v, auto& self) {
    v("id", self.id);
    // A label for people; the id already tells tenants apart.
    v.json_only("name", self.name);
    v("submitted", self.submitted);
    v("completed_on_time", self.completed_on_time);
    v("completed_late", self.completed_late);
    v("shed_queue_full", self.shed_queue_full);
    v("shed_deadline", self.shed_deadline);
    v("failed", self.failed);
    v("queue_high_water", self.queue_high_water);
    v("latency", self.latency);
  }

  [[nodiscard]] bool conserved() const {
    return submitted == completed_on_time + completed_late + shed_queue_full +
                            shed_deadline + failed;
  }
};

/// One fault domain's health: the pool-level counters plus the member
/// backends' single-service health records.
struct PoolHealth {
  int id = -1;
  bool has_domain_faults = false;  ///< a domain schedule was configured
  std::int64_t dispatched = 0;     ///< attempts routed into this pool
  std::int64_t failures = 0;       ///< failed attempts (incl. converted)
  std::int64_t outage_refusals = 0;  ///< placements skipped: domain down
  /// Attempts whose completion landed inside an outage window and were
  /// converted to failures (in-flight work lost with the domain).
  std::int64_t outage_failures = 0;
  /// Deadline-miss EWMA at shutdown, folded as llround(ewma * 1e6) so
  /// the report hash stays integer.
  std::int64_t ewma_micro = 0;
  bool degraded = false;  ///< EWMA above the hedging threshold at shutdown
  std::int64_t quarantine_attempts = 0;  ///< summed over member backends
  std::int64_t tmr_attempts = 0;         ///< summed over member backends
  std::vector<BackendHealth> backends;

  static void fields(auto& v, auto& self) {
    v("id", self.id);
    v("has_domain_faults", self.has_domain_faults);
    v("dispatched", self.dispatched);
    v("failures", self.failures);
    v("outage_refusals", self.outage_refusals);
    v("outage_failures", self.outage_failures);
    v("ewma_micro", self.ewma_micro);
    v("degraded", self.degraded);
    v("quarantine_attempts", self.quarantine_attempts);
    v("tmr_attempts", self.tmr_attempts);
    v("backends", self.backends);
  }
};

struct RouterReport : ServiceCounters {
  std::int64_t hedged_jobs = 0;   ///< waves that dispatched a second pool
  std::int64_t failovers = 0;     ///< placements off the ring-primary pool
  std::vector<TenantStats> tenants;
  std::vector<PoolHealth> pools;

  static void fields(auto& v, auto& self) {
    v("seed", self.seed);
    v("offered", self.offered);
    v("completed_on_time", self.completed_on_time);
    v("completed_late", self.completed_late);
    v("shed_queue_full", self.shed_queue_full);
    v("shed_deadline", self.shed_deadline);
    v("failed", self.failed);
    v("retries", self.retries);
    v("hedged_jobs", self.hedged_jobs);
    v("failovers", self.failovers);
    v("fallback_jobs", self.fallback_jobs);
    v("degraded_jobs", self.degraded_jobs);
    v("verified_jobs", self.verified_jobs);
    v("sdc_detected", self.sdc_detected);
    v("sdc_failures", self.sdc_failures);
    v("cert_escalations", self.cert_escalations);
    // Operator input folded as a stable integer (millionths), as in
    // ServiceReport.
    v.micro("sdc_budget", self.sdc_budget);
    v("ledger_hash", self.ledger_hash);
    v("breaker_transitions", self.breaker_transitions);
    v("horizon", self.horizon);
    v("latency", self.latency);
    // A ratio derived from the counters above; nothing new to fold.
    v.json_only("goodput", self.goodput);
    v("tenants", self.tenants);
    v("pools", self.pools);
    // An audit trail, not a dashboard feed: hashed, never printed.
    v.hash_only("jobs", self.jobs, /*with_tenant=*/true);
  }

  /// The federated conservation invariant (header comment): the
  /// shared check plus every tenant's sum.
  [[nodiscard]] bool conserved() const;

  /// Order-sensitive fold of every declared field except goodput and
  /// tenant names; two runs are behaviorally identical iff their hashes
  /// match (the replay gate compares this).
  [[nodiscard]] std::uint64_t hash() const;

  [[nodiscard]] std::string summary() const;

  /// JSON export of every declared field except the per-job records
  /// (global counters, per-tenant stats, per-pool health with nested
  /// backend records), plus "hash".
  [[nodiscard]] std::string json() const;
};

}  // namespace prodsort
