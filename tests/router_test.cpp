#include "service/router/pool_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "core/sort_plan.hpp"
#include "service/router/hash_ring.hpp"
#include "service/suspect_ledger.hpp"
#include "staticcheck/schedule_ir.hpp"

namespace prodsort {
namespace {

// --- consistent-hash ring ------------------------------------------------

TEST(HashRingTest, OwnerIsDeterministicAndInRange) {
  const HashRing a(42, 4, 16);
  const HashRing b(42, 4, 16);
  EXPECT_EQ(a.points(), 4u * 16u);
  for (std::uint64_t key = 0; key < 500; ++key) {
    const int owner = a.owner(key);
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 4);
    EXPECT_EQ(owner, b.owner(key));  // pure function of (seed, key)
  }
}

TEST(HashRingTest, PreferenceIsAPermutationLedByTheOwner) {
  const HashRing ring(7, 5, 8);
  for (std::uint64_t key = 0; key < 200; ++key) {
    const std::vector<int> pref = ring.preference(key);
    ASSERT_EQ(pref.size(), 5u);
    EXPECT_EQ(pref.front(), ring.owner(key));
    EXPECT_EQ(std::set<int>(pref.begin(), pref.end()).size(), 5u);
  }
}

TEST(HashRingTest, SeedMovesThePlacement) {
  const HashRing a(1, 4, 16);
  const HashRing b(2, 4, 16);
  int moved = 0;
  for (std::uint64_t key = 0; key < 256; ++key)
    moved += a.owner(key) != b.owner(key);
  EXPECT_GT(moved, 0);
}

TEST(HashRingTest, RejectsInvalidConfig) {
  EXPECT_THROW(HashRing(1, 0, 16), std::invalid_argument);
  EXPECT_THROW(HashRing(1, 2, 0), std::invalid_argument);
}

// --- federated router scenarios ------------------------------------------

RouterConfig small_router(std::int64_t jobs, double load) {
  RouterConfig config;
  config.seed = 11;
  config.jobs = jobs;
  config.load = load;
  config.policy = ShedPolicy::kEdf;
  config.breaker = {.failure_threshold = 2, .cooldown = 256};
  return config;
}

std::vector<PoolSpec> healthy_pools(int pools, int backends_each) {
  std::vector<PoolSpec> specs(static_cast<std::size_t>(pools));
  for (PoolSpec& spec : specs)
    spec.backends.resize(static_cast<std::size_t>(backends_each));
  return specs;
}

TEST(PoolRouterTest, FaultFreeFederationCompletesEveryJobVerified) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  PoolRouter router(pg, small_router(24, 0.5), healthy_pools(2, 2), &oet);
  const RouterReport report = router.run();
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.completed_on_time + report.completed_late, 24);
  EXPECT_EQ(report.verified_jobs, 24);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.fallback_jobs, 0);
  // Consistent hashing should spread the jobs across both pools.
  ASSERT_EQ(report.pools.size(), 2u);
  EXPECT_GT(report.pools[0].dispatched, 0);
  EXPECT_GT(report.pools[1].dispatched, 0);
  std::int64_t submitted = 0;
  for (const TenantStats& t : report.tenants) {
    EXPECT_TRUE(t.conserved());
    submitted += t.submitted;
  }
  EXPECT_EQ(submitted, report.offered);
}

// The federated report is a pure function of the seed: bit-identical
// (hash-equal) for any executor thread count.
TEST(PoolRouterTest, ReportHashIsThreadCountInvariant) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  RouterConfig config = small_router(16, 1.2);
  config.tenants = {{"alpha", 2.0, 4, 8}, {"beta", 1.0, 4, 8}};

  std::vector<PoolSpec> pools = healthy_pools(2, 2);
  pools[1].backends[0].fault_schedule = "seed=5,ce=0.002,crashes=4@7";

  std::vector<std::uint64_t> hashes;
  for (const int threads : {1, 4}) {
    ParallelExecutor executor(threads);
    PoolRouter router(pg, config, pools, &oet, &executor);
    const RouterReport report = router.run();
    EXPECT_TRUE(report.conserved());
    hashes.push_back(report.hash());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

// Tenant isolation: a quota-starved, queue-starved tenant sheds its own
// jobs; the roomy tenant sharing the federation never pays for it.
TEST(PoolRouterTest, NoisyTenantShedsOnlyItsOwnJobs) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  RouterConfig config = small_router(40, 1.5);
  config.deadline_slack = 4.0;
  // Tenant "noisy" takes 3/4 of the stream through a 1-deep quota and a
  // 2-slot queue; tenant "quiet" has room to spare.
  config.tenants = {{"noisy", 3.0, 1, 2}, {"quiet", 1.0, 8, 16}};

  PoolRouter router(pg, config, healthy_pools(2, 2), &oet);
  const RouterReport report = router.run();
  EXPECT_TRUE(report.conserved());

  ASSERT_EQ(report.tenants.size(), 2u);
  const TenantStats& noisy = report.tenants[0];
  const TenantStats& quiet = report.tenants[1];
  EXPECT_TRUE(noisy.conserved());
  EXPECT_TRUE(quiet.conserved());
  EXPECT_GT(noisy.submitted, quiet.submitted);
  EXPECT_GT(noisy.shed_queue_full + noisy.shed_deadline, 0);
  EXPECT_LE(noisy.queue_high_water, 2);
  // The quiet tenant is never queue-shed and completes work.
  EXPECT_EQ(quiet.shed_queue_full, 0);
  EXPECT_GT(quiet.completed_on_time, 0);
}

// Cross-pool failover: with pool 0's fault domain dark for most of the
// run, failover keeps on-time completions strictly above the
// failover-off run at identical offered load.
TEST(PoolRouterTest, FailoverBeatsNoFailoverDuringAnOutage) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;

  const std::int64_t mean =
      PoolRouter(pg, small_router(0, 1.0), healthy_pools(1, 1), &oet)
          .mean_service_steps();

  std::vector<PoolSpec> pools = healthy_pools(2, 1);
  pools[0].domain_schedule =
      "seed=3,outages=0~" + std::to_string(24 * mean);

  std::int64_t on_time[2] = {0, 0};
  std::int64_t refusals[2] = {0, 0};
  int i = 0;
  for (const bool failover : {true, false}) {
    // Load low enough that the surviving pool can absorb the failed-over
    // traffic (effective load 0.8 on one pool while the other is dark).
    RouterConfig config = small_router(20, 0.4);
    config.deadline_slack = 8.0;
    config.failover = failover;
    PoolRouter router(pg, config, pools, &oet);
    const RouterReport report = router.run();
    EXPECT_TRUE(report.conserved());
    ASSERT_EQ(report.pools.size(), 2u);
    EXPECT_TRUE(report.pools[0].has_domain_faults);
    on_time[i] = report.completed_on_time;
    refusals[i] = report.pools[0].outage_refusals;
    if (failover) {
      EXPECT_GT(report.failovers, 0);
    }
    ++i;
  }
  EXPECT_GT(refusals[0], 0);  // the dark domain did refuse placements
  EXPECT_GT(refusals[1], 0);
  EXPECT_GT(on_time[0], on_time[1]);
}

// A correlated crash burst in the domain schedule reaches every member
// backend (the federation still terminates and conserves jobs), and the
// expansion is deterministic: two runs agree bit-for-bit.
TEST(PoolRouterTest, CorrelatedBurstDomainConservesAndReplays) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  std::vector<PoolSpec> pools = healthy_pools(2, 2);
  pools[0].domain_schedule = "seed=9,bursts=2@3";

  RouterConfig config = small_router(16, 1.0);
  config.retry_budget = 3;

  std::vector<std::uint64_t> hashes;
  for (int run = 0; run < 2; ++run) {
    PoolRouter router(pg, config, pools, &oet);
    const RouterReport report = router.run();
    EXPECT_TRUE(report.conserved());
    // The burst only crashes nodes; retries/remaps keep jobs flowing.
    EXPECT_GT(report.completed_on_time + report.completed_late, 0);
    hashes.push_back(report.hash());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

// The quarantine-before-TMR ladder works through the router: a
// preloaded ledger with concentrated attribution on one backend makes
// that backend route merges around the named comparator (~1x) instead
// of paying the 3x vote; the clean backend pays neither.
TEST(PoolRouterTest, LedgerDrivenQuarantineThroughTheRouter) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  RouterConfig config = small_router(20, 0.8);
  config.adaptive.enabled = true;
  config.adaptive.sdc_budget = 0.05;

  // Backend 0 (pool 0): clean history.  Backend 1 (pool 1): chronic SDC
  // producer with every hit attributed to node 3.
  SuspectLedger history;
  for (int i = 0; i < 28; ++i) history.record_attempt(0, false, {});
  for (int i = 0; i < 28; ++i) history.record_attempt(1, i < 24, {3});
  config.adaptive.ledger_json = history.to_json();

  PoolRouter router(pg, config, healthy_pools(2, 1), &oet);
  const RouterReport report = router.run();
  EXPECT_TRUE(report.conserved());

  ASSERT_EQ(report.pools.size(), 2u);
  ASSERT_EQ(report.pools[0].backends.size(), 1u);
  ASSERT_EQ(report.pools[1].backends.size(), 1u);
  const BackendHealth& clean = report.pools[0].backends[0];
  const BackendHealth& shady = report.pools[1].backends[0];
  EXPECT_FALSE(clean.suspect);
  EXPECT_EQ(clean.quarantine_attempts, 0);
  EXPECT_EQ(clean.tmr_attempts, 0);
  EXPECT_TRUE(shady.suspect);
  EXPECT_GT(shady.quarantine_attempts, 0);
  EXPECT_EQ(shady.tmr_attempts, 0);  // concentrated attribution: no vote
  EXPECT_EQ(report.pools[1].quarantine_attempts, shady.quarantine_attempts);
  // Quarantined attempts still complete verified; the backends here are
  // actually fault-free, so nothing escapes.
  EXPECT_EQ(report.verified_jobs,
            report.completed_on_time + report.completed_late);
  EXPECT_EQ(report.sdc_detected, 0);
  EXPECT_NE(report.ledger_hash, 0u);
}

// --- the recorded probe plan -------------------------------------------

// The router records its fault-free probe once as a SortPlan and lends
// it to every backend; key-reading sorters keep generating.
TEST(PoolRouterTest, RecordsAPlanForDataObliviousSorters) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const SnakeOETS2 oet;
  const ShearsortS2 shearsort;
  for (const S2Sorter* s2 : {static_cast<const S2Sorter*>(&oet),
                             static_cast<const S2Sorter*>(&shearsort)}) {
    SCOPED_TRACE(s2->name());
    const PoolRouter router(pg, small_router(0, 1.0), healthy_pools(1, 1), s2);
    ASSERT_NE(router.plan(), nullptr);
    EXPECT_EQ(&router.plan()->sorter(), s2);
    EXPECT_EQ(router.plan()->exec_steps(), router.mean_service_steps());
    EXPECT_LE(router.plan()->bytes(), SortPlan::kMaxBytes);
  }
  // No sorter means the default OracleS2, which reads the keys.
  const PoolRouter oracle(pg, small_router(0, 1.0), healthy_pools(1, 1),
                          nullptr);
  EXPECT_EQ(oracle.plan(), nullptr);
}

TEST(PoolRouterTest, NoPlanAboveTheSizeCap) {
  const ProductGraph pg(labeled_cycle(4), 5);  // 1,024 nodes
  const SnakeOETS2 oet;
  const PoolRouter router(pg, small_router(0, 1.0), healthy_pools(1, 1), &oet);
  EXPECT_EQ(router.plan(), nullptr);
  // Over the cap because the pairs alone exceed it.
  EXPECT_GT(static_cast<std::size_t>(
                record_product_schedule(pg, oet).total_pairs()) *
                sizeof(CEPair),
            SortPlan::kMaxBytes);
  // The probe still measures the service time by generating.
  Machine machine(pg,
                  std::vector<Key>(static_cast<std::size_t>(pg.num_nodes())));
  EXPECT_EQ(router.mean_service_steps(),
            sort_product_network(machine, {.s2 = &oet}).cost.exec_steps);
}

TEST(PoolRouterTest, PlanRejectsAMachineOfAnotherGraph) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const ProductGraph other(labeled_cycle(4), 3);
  const SnakeOETS2 oet;
  const PoolRouter router(pg, small_router(0, 1.0), healthy_pools(1, 1), &oet);
  ASSERT_NE(router.plan(), nullptr);
  Machine machine(
      other, std::vector<Key>(static_cast<std::size_t>(other.num_nodes())));
  EXPECT_THROW(machine.set_plan(router.plan()), std::invalid_argument);
  EXPECT_THROW((void)router.plan()->replay(machine, {.s2 = &oet}),
               std::invalid_argument);
}

// Every backend shares the one plan read-only; replay on a 4-thread
// executor (faults, crashes and TMR included) matches one thread.
TEST(PoolRouterTest, SharedPlanReplaysIdenticallyOnFourThreads) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const SnakeOETS2 oet;
  RouterConfig config = small_router(24, 1.2);
  std::vector<PoolSpec> pools = healthy_pools(2, 2);
  pools[0].backends[1].tmr = true;
  pools[1].backends[0].fault_schedule = "seed=5,ce=0.002,crashes=4@7";

  std::vector<std::uint64_t> hashes;
  for (const int threads : {1, 4}) {
    ParallelExecutor executor(threads);
    PoolRouter router(pg, config, pools, &oet, &executor);
    ASSERT_NE(router.plan(), nullptr);
    const RouterReport report = router.run();
    EXPECT_TRUE(report.conserved());
    hashes.push_back(report.hash());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(PoolRouterTest, RejectsInvalidConfig) {
  const ProductGraph pg(labeled_path(2), 2);
  const SnakeOETS2 oet;
  const RouterConfig ok = small_router(1, 1.0);

  EXPECT_THROW(PoolRouter(pg, ok, {}, &oet), std::invalid_argument);
  EXPECT_THROW(PoolRouter(pg, ok, {PoolSpec{}}, &oet),
               std::invalid_argument);

  std::vector<PoolSpec> bad_schedule = healthy_pools(1, 1);
  bad_schedule[0].domain_schedule = "outages=5~";
  EXPECT_THROW(PoolRouter(pg, ok, bad_schedule, &oet),
               std::invalid_argument);

  RouterConfig bad_load = ok;
  bad_load.load = 0.0;
  EXPECT_THROW(PoolRouter(pg, bad_load, healthy_pools(1, 1), &oet),
               std::invalid_argument);

  RouterConfig bad_tenant = ok;
  bad_tenant.tenants = {{"t", 0.0, 4, 8}};
  EXPECT_THROW(PoolRouter(pg, bad_tenant, healthy_pools(1, 1), &oet),
               std::invalid_argument);

  RouterConfig bad_quota = ok;
  bad_quota.tenants = {{"t", 1.0, 0, 8}};
  EXPECT_THROW(PoolRouter(pg, bad_quota, healthy_pools(1, 1), &oet),
               std::invalid_argument);
}

}  // namespace
}  // namespace prodsort
