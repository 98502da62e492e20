#pragma once

// PoolRouter — the federated front door over N backend pools, each its
// own fault domain (docs/SERVICE.md, "Federation & fault domains").
//
// Layering: tenants → router → pools → backends.  Jobs arrive on one
// open-loop schedule, are assigned to tenants by seed-hashed weighted
// draw, queue per tenant (bounded, pluggable shedding, per-tenant
// in-flight quota — one tenant's overload sheds *its own* jobs, never
// another's), and are placed onto pools by consistent hashing
// (HashRing::preference is the failover order).
//
// Failure handling, in ladder order:
//  * a pool whose fault domain is inside an outage window refuses
//    placement, and in-flight attempts completing inside the window are
//    converted to failures (the correlated "rack went dark" model);
//  * cross-pool failover walks the ring preference past refusing pools
//    (breaker-open backends, outages); with hedging on, a job placed on
//    a degraded pool (deadline-miss EWMA above threshold) or displaced
//    off its primary by an outage is dispatched to a second pool too —
//    first verified completion wins, the loser is discarded;
//  * per-backend circuit breakers, and the suspect ledger with the
//    quarantine-before-TMR hardening ladder on ledger-named
//    comparators;
//  * the host samplesort fallback engages only when every backend of
//    every pool is breaker-open.
//
// Determinism: the whole federation runs on one virtual clock with a
// (time, kind, seq) total event order, and every random decision is a
// pure splitmix64 hash — a run is a pure function of (config, pool
// specs) and replays bit-identically for any executor thread count (the
// ROUTER-REPRO line carries everything).
//
// This is the service's only event loop: SortService
// (service/sort_service.hpp) is the one-pool, one-tenant, unhedged
// case of it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_cert.hpp"
#include "network/fault_model.hpp"
#include "service/backend.hpp"
#include "service/router/hash_ring.hpp"
#include "service/router/router_report.hpp"
#include "service/service_types.hpp"
#include "service/suspect_ledger.hpp"

namespace prodsort {

struct TenantSpec {
  std::string name = "default";
  double weight = 1.0;   ///< share of the arrival stream (normalized)
  int max_in_flight = 4; ///< dispatched-and-unresolved quota (isolation)
  std::size_t queue_cap = 16;  ///< tenant admission-queue capacity
};

/// One pool: a set of member backends sharing a fault domain.  The
/// domain schedule uses the FaultModel grammar; its `outages=` windows
/// gate dispatch on the service clock, and its `bursts=` entries are
/// expanded once and appended to every member's crash schedule — the
/// members lose the *same* seed-chosen nodes (correlated failure), which
/// is what distinguishes a domain from N independent flaky backends.
struct PoolSpec {
  std::vector<BackendConfig> backends;
  std::string domain_schedule;  ///< empty = healthy domain
};

struct RouterConfig {
  std::uint64_t seed = 1;
  std::int64_t jobs = 100;
  double load = 1.0;            ///< offered load / federation capacity
  double deadline_slack = 6.0;
  int retry_budget = 2;         ///< re-dispatch waves after a failed one
  std::int64_t backoff_base = 8;
  std::int64_t backoff_cap = 256;
  ShedPolicy policy = ShedPolicy::kDropTail;  ///< per-tenant queues
  BreakerConfig breaker;
  FallbackConfig fallback;
  AdaptiveCertServiceConfig adaptive;
  /// Empty = one default tenant taking the whole stream.
  std::vector<TenantSpec> tenants;
  int ring_replicas = 16;
  bool failover = true;  ///< off: jobs wait for their ring-primary pool
  bool hedging = true;   ///< off: never dispatch a second pool per wave
  double ewma_alpha = 0.2;     ///< deadline-miss EWMA smoothing
  double ewma_degraded = 0.5;  ///< EWMA above this marks the pool degraded
};

class PoolRouter {
 public:
  /// `pg` and `s2` are borrowed; every pool's backends share the same
  /// topology.  Throws std::invalid_argument on an empty federation, an
  /// empty pool, a malformed domain schedule, a non-positive tenant
  /// weight, or a non-positive load.
  PoolRouter(const ProductGraph& pg, RouterConfig config,
             std::vector<PoolSpec> pools, const S2Sorter* s2,
             ParallelExecutor* executor = nullptr);
  ~PoolRouter();

  /// Runs the whole federated schedule to quiescence.
  [[nodiscard]] RouterReport run();

  /// Fault-free service time of one job, probed once at construction.
  [[nodiscard]] std::int64_t mean_service_steps() const noexcept {
    return mean_steps_;
  }

  /// The probe sort, recorded and lent to every backend for unit-mode
  /// replay (core/sort_plan.hpp); null when the sorter is not
  /// data-oblivious or the plan would exceed SortPlan::kMaxBytes.
  [[nodiscard]] const SortPlan* plan() const noexcept { return plan_.get(); }

  [[nodiscard]] const RouterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SuspectLedger& ledger() const noexcept { return ledger_; }

 private:
  struct Pool {
    std::unique_ptr<FaultModel> domain;  ///< null = healthy domain
    std::vector<int> members;            ///< global backend indices
    std::size_t cursor = 0;              ///< rotating member dispatch
    double ewma = 0;                     ///< deadline-miss EWMA
    std::int64_t dispatched = 0;
    std::int64_t failures = 0;
    std::int64_t outage_refusals = 0;
    std::int64_t outage_failures = 0;
    std::int64_t outage_tick = -1;  ///< outage-end wake-up already queued
  };

  const ProductGraph* pg_;
  RouterConfig config_;
  const S2Sorter* s2_;
  ParallelExecutor* executor_;
  std::unique_ptr<const SortPlan> plan_;  ///< lent to backends_; outlives them
  std::vector<std::unique_ptr<SortBackend>> backends_;  ///< global, flat
  std::vector<int> pool_of_backend_;
  std::vector<Pool> pools_;
  HashRing ring_;
  SuspectLedger ledger_;
  std::vector<AdaptiveCertController> controllers_;  ///< one per backend
  std::int64_t mean_steps_ = 1;
};

}  // namespace prodsort
