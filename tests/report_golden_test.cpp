// Golden pins for the three run reports: RouterReport, StreamReport and
// ServiceReport hash() plus a digest of json().  The pins were captured
// before the reports derived hash() and json() from one declared field
// list, and must never move: any drift in a field's fold order, seed,
// integer encoding, JSON key, number format or nesting changes a value
// here.  Each row also asserts that it exercises the asymmetries the
// field lists declare (JSON-only and hash-only fields, the truncated
// sdc_budget encoding, enum names, the per-report BackendHealth and
// JobRecord differences), so a pin can't pass on a run that never
// reaches them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "graph/labeled_factor.hpp"
#include "network/parallel_executor.hpp"
#include "service/router/pool_router.hpp"
#include "service/sort_service.hpp"
#include "stream/streaming_sorter.hpp"

namespace prodsort {
namespace {

/// FNV-1a over the JSON bytes: a stable digest to pin.
std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Pin {
  std::uint64_t hash;
  std::uint64_t json;
};

void expect_pinned(std::uint64_t hash, const std::string& json,
                   const Pin& pin) {
  EXPECT_EQ(hash, pin.hash) << "hash() = " << hex(hash);
  EXPECT_EQ(digest(json), pin.json) << "digest(json()) = " << hex(digest(json));
}

bool any_sdc_nodes(const std::vector<BackendHealth>& backends) {
  for (const BackendHealth& b : backends)
    if (!b.sdc_nodes.empty()) return true;
  return false;
}

// --- RouterReport ----------------------------------------------------------

// A budget whose micro-unit encoding has a fraction above one half, so
// the hash's truncation (12345, not 12346) is what the pin covers.
constexpr double kOddBudget = 0.0123456789;

// path(3)^2 under SnakeOETS2; 2 pools x 2 backends, 2 tenants, hedging
// on (tight deadlines and a low degraded threshold make it fire at a
// load where the other pool has room), pool 0's domain dark over its
// first stretch, one crash/ce-drop
// backend in pool 0 and one SDC-producing comparator backend in pool 1.
RouterReport run_router(ShedPolicy policy, bool adaptive) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  RouterConfig config;
  config.seed = 11;
  config.jobs = 48;
  config.load = 0.3;
  config.deadline_slack = 1.2;
  config.policy = policy;
  config.retry_budget = 3;
  config.breaker = {.failure_threshold = 2, .cooldown = 256};
  config.tenants = {{"tenant0", 1.0, 4, 8}, {"tenant1", 1.0, 4, 8}};
  config.hedging = true;
  config.ewma_degraded = 0.02;  // a few late jobs mark a pool degraded
  if (adaptive) {
    config.adaptive.enabled = true;
    config.adaptive.sdc_budget = kOddBudget;
  }
  std::vector<PoolSpec> pools(2);
  for (PoolSpec& pool : pools) pool.backends.resize(2);
  const std::int64_t mean =
      PoolRouter(pg, config, pools, &oet).mean_service_steps();
  pools[0].domain_schedule =
      "seed=3,outages=" + std::to_string(2 * mean) + "~" +
      std::to_string(10 * mean);
  pools[0].backends[0].fault_schedule = "seed=5,ce=0.002,crashes=4@7";
  pools[1].backends[1].fault_schedule = "seed=5,comparators=3@2~40I";
  PoolRouter router(pg, config, pools, &oet);
  return router.run();
}

// In loop order: policy {drop-tail, EDF} x adaptive {off, on}.
constexpr Pin kRouterPins[4] = {
    {0xb0d14211764d6f66ULL, 0xeb77621076627ef8ULL},
    {0xa41749a6f1e8ccbdULL, 0x98b18fecd2371506ULL},
    {0x053657aece1dd847ULL, 0x164c0f1ddf25dd20ULL},
    {0x628fef6976515baeULL, 0xd3e3da25c90db344ULL},
};

TEST(ReportGolden, RouterReportHashAndJsonArePinned) {
  const Pin* pin = kRouterPins;
  for (const ShedPolicy policy : {ShedPolicy::kDropTail, ShedPolicy::kEdf})
    for (const bool adaptive : {false, true}) {
      SCOPED_TRACE(to_string(policy) + " adaptive=" + std::to_string(adaptive));
      const RouterReport report = run_router(policy, adaptive);
      EXPECT_TRUE(report.conserved());
      // Hedging, the outage and both tenants are live.
      EXPECT_GT(report.hedged_jobs, 0);
      EXPECT_GT(report.pools[0].outage_refusals +
                    report.pools[0].outage_failures,
                0);
      ASSERT_EQ(report.tenants.size(), 2u);
      EXPECT_GT(report.tenants[1].submitted, 0);  // JobRecord tenant folds 1
      // JSON-only: goodput and the tenant names.
      EXPECT_GT(report.goodput, 0);
      EXPECT_EQ(report.tenants[0].name, "tenant0");
      EXPECT_FALSE(report.jobs.empty());  // hash-only per-job records
      if (adaptive) {
        // The truncated encoding differs from the rounded one here.
        EXPECT_NE(static_cast<std::int64_t>(report.sdc_budget * 1e6),
                  std::llround(report.sdc_budget * 1e6));
        // The router leaves sdc_nodes out of hash and JSON; it is set.
        bool attributed = false;
        for (const PoolHealth& p : report.pools)
          attributed = attributed || any_sdc_nodes(p.backends);
        EXPECT_TRUE(attributed);
      }
      expect_pinned(report.hash(), report.json(), *pin++);
    }
}

// --- StreamReport ----------------------------------------------------------

StreamConfig small_stream() {
  StreamConfig cfg;
  cfg.seed = 7;
  cfg.batches = 6;
  cfg.batch_keys = 100;
  cfg.ranges = 4;
  cfg.block = 4;  // run_keys = 16 * 4 = 64 on cycle(4)^2
  cfg.budget_bytes = 1 << 14;
  cfg.backends = 3;
  cfg.domains = 2;
  cfg.faulty = 1;
  cfg.crash_rate = 0.2;
  cfg.tear_rate = 0.4;
  return cfg;
}

StreamReport run_stream(const StreamConfig& cfg) {
  const ProductGraph pg(labeled_cycle(4), 2);
  ParallelExecutor executor(1);
  StreamingSorter sorter(pg, cfg, &executor);
  return sorter.run();
}

/// Fresh empty directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "prodsort_golden_" + name;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string leaf = entry->d_name;
      if (leaf != "." && leaf != "..") ::unlink((dir + "/" + leaf).c_str());
    }
    ::closedir(d);
  } else {
    ::mkdir(dir.c_str(), 0755);
  }
  return dir;
}

void expect_stream_asymmetries(const StreamReport& report) {
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.crash_injected, 0);
  EXPECT_GT(report.merge_rollbacks, 0);
  EXPECT_GT(report.sdc_detected, 0);
  // Hash-only: the fingerprint counts (JSON prints the checksums); they
  // repeat keys_ingested / keys_emitted.
  EXPECT_GT(report.ingest_fp.count, 0u);
  EXPECT_EQ(report.ingest_fp.count,
            static_cast<std::uint64_t>(report.keys_ingested));
  EXPECT_EQ(report.sealed_fp.count,
            static_cast<std::uint64_t>(report.keys_emitted));
}

TEST(ReportGolden, InMemoryStreamReportIsPinned) {
  const StreamReport report = run_stream(small_stream());
  expect_stream_asymmetries(report);
  EXPECT_EQ(report.journal_records, 0);
  expect_pinned(report.hash(), report.json(),
                {0x302866efac326d4eULL, 0x7ea110b70740acc9ULL});
}

TEST(ReportGolden, JournaledStreamReportIsPinned) {
  StreamConfig cfg = small_stream();
  cfg.journal_dir = fresh_dir("journaled");
  cfg.io_faults.seed = 21;
  cfg.io_faults.short_write_rate = 0.3;
  cfg.io_faults.drop_sync_rate = 0.2;
  const StreamReport report = run_stream(cfg);
  expect_stream_asymmetries(report);
  EXPECT_GT(report.journal_records, 0);
  EXPECT_GT(report.journal_short_writes, 0);
  EXPECT_GT(report.journal_dropped_syncs, 0);
  EXPECT_GT(report.spill_files, 0);
  expect_pinned(report.hash(), report.json(),
                {0x21e9745a5ec69056ULL, 0x35af56e2a4fbe15bULL});
}

// Both domains go dark in overlapping windows, so dispatch is refused
// and in-flight runs are lost to an outage.
TEST(ReportGolden, OutageStreamReportIsPinned) {
  StreamConfig cfg = small_stream();
  cfg.outage = "0@40~200+1@150~320";
  const StreamReport report = run_stream(cfg);
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.outage_refusals + report.outage_failures, 0);
  expect_pinned(report.hash(), report.json(),
                {0x1ee202bb802ed87eULL, 0x8e7f55dd913a3e08ULL});
}

// --- ServiceReport ---------------------------------------------------------

// golden_config / golden_backends of SortServiceGoldenTest: EDF,
// adaptive at load 1.8 over fault mix 1 (crash/ce-drop + comparators).
TEST(ReportGolden, AdaptiveServiceReportJsonIsPinned) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config;
  config.seed = 7;
  config.jobs = 60;
  config.load = 1.8;
  config.retry_budget = 3;
  config.queue = {ShedPolicy::kEdf, 6};
  config.breaker = {.failure_threshold = 2, .cooldown = 256};
  config.adaptive.enabled = true;
  config.adaptive.sdc_budget = 0.01;
  std::vector<BackendConfig> backends(3);
  backends[1].fault_schedule = "seed=5,ce=0.002,crashes=4@7";
  backends[2].fault_schedule = "seed=5,comparators=3@2~40I";
  SortService service(pg, config, backends, &oet);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());
  EXPECT_TRUE(any_sdc_nodes(report.backends));  // hashed and printed here
  EXPECT_GT(report.goodput, 0);                 // JSON-only
  EXPECT_NE(report.ledger_hash, 0u);
  expect_pinned(report.hash(), report.json(),
                {0x472d4887125d0b99ULL, 0x341da4b94004b72dULL});
}

// ShearsortCycleHashIsPinned: cycle(4)^3, four backends, adaptive.
TEST(ReportGolden, ShearsortCycleServiceReportJsonIsPinned) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const ShearsortS2 shear;
  ServiceConfig config;
  config.seed = 7;
  config.jobs = 60;
  config.load = 1.0;
  config.retry_budget = 3;
  config.queue = {ShedPolicy::kEdf, 6};
  config.breaker = {.failure_threshold = 2, .cooldown = 256};
  config.adaptive.enabled = true;
  config.adaptive.sdc_budget = 0.01;
  std::vector<BackendConfig> backends(4);
  backends[3].fault_schedule = "seed=11,ce=0.003,comparators=2@1~30I";
  SortService service(pg, config, backends, &shear);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.hash(), 0x6a91627f1954ba6bULL);
  expect_pinned(report.hash(), report.json(),
                {0x6a91627f1954ba6bULL, 0x7807bec2c4fd89b5ULL});
}

}  // namespace
}  // namespace prodsort
