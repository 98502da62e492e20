#pragma once

// SortService: the deadline-aware front door over one pool of simulated
// product-network machines (docs/SERVICE.md).
//
// It is the one-pool, one-tenant case of PoolRouter
// (service/router/pool_router.hpp): every backend sits in a single pool
// with no fault domain, one tenant takes the whole arrival stream, and
// hedging is off.  The router's discrete-event loop does all the work —
// open-loop arrivals, the bounded admission queue with pluggable
// shedding, per-job deadlines, the retry budget with exponential
// backoff, per-backend circuit breakers, adaptive certification, and the
// measured host-sort fallback when every breaker is open — so a run is a
// pure function of (config, backend configs) and replays bit-identically
// for any executor thread count.
//
// Conservation: each offered job reaches exactly one terminal
// JobOutcome, and each completed job's output is certified sorted with
// the input multiset checksum intact (ServiceReport::conserved()).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/s2/s2_sorter.hpp"
#include "service/admission_queue.hpp"
#include "service/backend.hpp"
#include "service/service_report.hpp"
#include "service/service_types.hpp"
#include "service/suspect_ledger.hpp"

namespace prodsort {

class PoolRouter;

struct ServiceConfig {
  std::uint64_t seed = 1;
  std::int64_t jobs = 100;     ///< offered arrivals before shutdown
  double load = 1.0;           ///< offered load / pool service capacity
  double deadline_slack = 6.0; ///< deadline = arrival + slack·mean·jitter
  int retry_budget = 2;        ///< re-dispatches after a failed attempt
  std::int64_t backoff_base = 8;    ///< first retry delay (virtual steps)
  std::int64_t backoff_cap = 256;   ///< delay ceiling
  QueueConfig queue;
  BreakerConfig breaker;
  FallbackConfig fallback;
  AdaptiveCertServiceConfig adaptive;
};

class SortService {
 public:
  /// One SortBackend per entry of `backends`, all on the same topology.
  /// `pg` and `s2` are borrowed; `s2` must be an executable sorter (the
  /// analytic OracleS2 moves no keys, so faults and exec_steps would
  /// never apply).  Throws std::invalid_argument on an empty pool, a
  /// malformed fault schedule, or an invalid load, job count, retry
  /// budget, backoff or queue capacity.
  SortService(const ProductGraph& pg, ServiceConfig config,
              std::vector<BackendConfig> backends, const S2Sorter* s2,
              ParallelExecutor* executor = nullptr);
  ~SortService();

  /// Runs the whole schedule to quiescence and returns the report.
  [[nodiscard]] ServiceReport run();

  /// Fault-free service time of one job (exec_steps), probed once at
  /// construction; the arrival process and deadlines are scaled by it.
  [[nodiscard]] std::int64_t mean_service_steps() const noexcept;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// The suspect-comparator ledger after run() (or the preloaded state
  /// before); prodsort_serve persists it with --ledger.
  [[nodiscard]] const SuspectLedger& ledger() const noexcept;

 private:
  ServiceConfig config_;
  std::unique_ptr<PoolRouter> router_;
};

}  // namespace prodsort
