#include "service/sort_service.hpp"

#include <stdexcept>
#include <utility>

#include "service/router/pool_router.hpp"

namespace prodsort {

SortService::SortService(const ProductGraph& pg, ServiceConfig config,
                         std::vector<BackendConfig> backends,
                         const S2Sorter* s2, ParallelExecutor* executor)
    : config_(std::move(config)) {
  if (backends.empty())
    throw std::invalid_argument("sort service needs at least one backend");

  RouterConfig router;
  router.seed = config_.seed;
  router.jobs = config_.jobs;
  router.load = config_.load;
  router.deadline_slack = config_.deadline_slack;
  router.retry_budget = config_.retry_budget;
  router.backoff_base = config_.backoff_base;
  router.backoff_cap = config_.backoff_cap;
  router.policy = config_.queue.policy;
  router.breaker = config_.breaker;
  router.fallback = config_.fallback;
  router.adaptive = config_.adaptive;
  // One tenant owns the queue.  Its quota never binds: at most one
  // attempt per backend plus the host fallback can be in flight.
  TenantSpec tenant;
  tenant.queue_cap = config_.queue.capacity;
  tenant.max_in_flight = static_cast<int>(backends.size()) + 1;
  router.tenants = {tenant};
  router.hedging = false;

  std::vector<PoolSpec> pools(1);
  pools[0].backends = std::move(backends);
  router_ = std::make_unique<PoolRouter>(pg, std::move(router),
                                         std::move(pools), s2, executor);
}

SortService::~SortService() = default;

ServiceReport SortService::run() {
  RouterReport routed = router_->run();
  ServiceReport report;
  report.queue_high_water = routed.tenants[0].queue_high_water;
  report.backends = std::move(routed.pools[0].backends);
  static_cast<ServiceCounters&>(report) = std::move(routed);
  return report;
}

std::int64_t SortService::mean_service_steps() const noexcept {
  return router_->mean_service_steps();
}

const SuspectLedger& SortService::ledger() const noexcept {
  return router_->ledger();
}

}  // namespace prodsort
