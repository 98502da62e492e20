#include "service/sort_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "service/admission_queue.hpp"
#include "service/circuit_breaker.hpp"
#include "service/service_types.hpp"

namespace prodsort {
namespace {

JobSpec make_job(std::int64_t id, std::int64_t deadline, int priority = 1) {
  JobSpec job;
  job.id = id;
  job.deadline = deadline;
  job.priority = priority;
  return job;
}

// --- shared vocabulary ---------------------------------------------------

TEST(ServiceTypesTest, NamesAreStableAndParseRoundTrips) {
  EXPECT_EQ(to_string(ShedPolicy::kDropTail), "drop-tail");
  EXPECT_EQ(to_string(ShedPolicy::kEdf), "edf");
  EXPECT_EQ(to_string(ShedPolicy::kPriority), "priority");
  for (const ShedPolicy p :
       {ShedPolicy::kDropTail, ShedPolicy::kEdf, ShedPolicy::kPriority})
    EXPECT_EQ(parse_shed_policy(to_string(p)), p);
  EXPECT_THROW((void)parse_shed_policy("lifo"), std::invalid_argument);

  EXPECT_EQ(to_string(JobOutcome::kOnTime), "on-time");
  EXPECT_EQ(to_string(JobOutcome::kShedQueueFull), "shed-queue-full");
  EXPECT_EQ(to_string(JobOutcome::kShedDeadline), "shed-deadline");
}

TEST(ServiceTypesTest, JobKeysArePureAndPatterned) {
  JobSpec a;
  a.key_seed = 42;
  a.pattern = 0;
  EXPECT_EQ(service_job_keys(64, a), service_job_keys(64, a));

  JobSpec b = a;
  b.key_seed = 43;
  EXPECT_NE(service_job_keys(64, a), service_job_keys(64, b));

  JobSpec binary = a;
  binary.pattern = 1;
  for (const Key k : service_job_keys(64, binary)) EXPECT_LE(k, 1);

  JobSpec reversed = a;
  reversed.pattern = 3;
  const auto keys = service_job_keys(8, reversed);
  EXPECT_TRUE(std::is_sorted(keys.rbegin(), keys.rend()));
}

// --- admission queue -----------------------------------------------------

TEST(AdmissionQueueTest, DropTailRejectsArrivalsWhenFull) {
  AdmissionQueue q({ShedPolicy::kDropTail, 2});
  EXPECT_FALSE(q.offer(make_job(0, 100)).has_value());
  EXPECT_FALSE(q.offer(make_job(1, 50)).has_value());
  const auto shed = q.offer(make_job(2, 10));  // tighter, but drop-tail
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->id, 2);
  // FIFO service order, regardless of deadline.
  EXPECT_EQ(q.pop(0, nullptr)->id, 0);
  EXPECT_EQ(q.pop(0, nullptr)->id, 1);
  EXPECT_EQ(q.high_water(), 2u);
}

TEST(AdmissionQueueTest, EdfEvictsLoosestAndShedsExpired) {
  AdmissionQueue q({ShedPolicy::kEdf, 2});
  EXPECT_FALSE(q.offer(make_job(0, 100)).has_value());
  EXPECT_FALSE(q.offer(make_job(1, 50)).has_value());
  // Tighter arrival evicts the loosest deadline (job 0).
  const auto shed = q.offer(make_job(2, 10));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->id, 0);
  // A looser arrival is itself rejected.
  const auto rejected = q.offer(make_job(3, 200));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->id, 3);
  // At dispatch time 60, job 2 (deadline 10) and job 1 (deadline 50)
  // are both expired: shed unserved rather than dispatched late.
  std::vector<JobSpec> expired;
  EXPECT_FALSE(q.pop(60, &expired).has_value());
  EXPECT_EQ(expired.size(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(AdmissionQueueTest, EdfServesEarliestDeadlineFirst) {
  AdmissionQueue q({ShedPolicy::kEdf, 4});
  (void)q.offer(make_job(0, 300));
  (void)q.offer(make_job(1, 100));
  (void)q.offer(make_job(2, 200));
  std::vector<JobSpec> expired;
  EXPECT_EQ(q.pop(0, &expired)->id, 1);
  EXPECT_EQ(q.pop(0, &expired)->id, 2);
  EXPECT_EQ(q.pop(0, &expired)->id, 0);
  EXPECT_TRUE(expired.empty());
}

TEST(AdmissionQueueTest, PriorityEvictsOutrankedAndServesTiers) {
  AdmissionQueue q({ShedPolicy::kPriority, 2});
  EXPECT_FALSE(q.offer(make_job(0, 100, 2)).has_value());  // low
  EXPECT_FALSE(q.offer(make_job(1, 100, 1)).has_value());  // normal
  // High-priority arrival evicts the low-priority entry.
  const auto shed = q.offer(make_job(2, 100, 0));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->id, 0);
  // An equal-priority arrival does not outrank anyone: rejected.
  const auto rejected = q.offer(make_job(3, 100, 1));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->id, 3);
  // Highest tier first.
  EXPECT_EQ(q.pop(0, nullptr)->id, 2);
  EXPECT_EQ(q.pop(0, nullptr)->id, 1);
}

TEST(AdmissionQueueTest, RejectsZeroCapacity) {
  EXPECT_THROW(AdmissionQueue({ShedPolicy::kDropTail, 0}),
               std::invalid_argument);
}

// --- circuit breaker -----------------------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndProbes) {
  CircuitBreaker b({.failure_threshold = 3, .cooldown = 100});
  EXPECT_TRUE(b.allows(0));
  b.record_failure(0);
  b.record_failure(1);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.record_success();  // success clears the streak
  b.record_failure(2);
  b.record_failure(3);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.record_failure(4);  // third consecutive: trip
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.open_until(), 104);
  EXPECT_EQ(b.times_opened(), 1);

  EXPECT_FALSE(b.allows(50));  // cooling down
  EXPECT_TRUE(b.allows(104));  // cooldown elapsed: half-open probe
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  b.on_dispatch();
  EXPECT_FALSE(b.allows(104));  // one probe at a time

  b.record_failure(110);  // probe failed: reopen immediately
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.open_until(), 210);
  EXPECT_EQ(b.times_opened(), 2);

  EXPECT_TRUE(b.allows(210));
  b.on_dispatch();
  b.record_success();  // probe succeeded: close
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.allows(211));
}

TEST(CircuitBreakerTest, RejectsInvalidConfig) {
  EXPECT_THROW(CircuitBreaker({.failure_threshold = 0}),
               std::invalid_argument);
  EXPECT_THROW(CircuitBreaker({.failure_threshold = 1, .cooldown = 0}),
               std::invalid_argument);
}

// Half-open edge case: the cooldown expiring *exactly* on the probe
// tick admits the probe — open_until is the first admitting instant,
// not the last refusing one.
TEST(CircuitBreakerTest, CooldownExpiringExactlyOnProbeTickAdmits) {
  CircuitBreaker b({.failure_threshold = 1, .cooldown = 64});
  b.record_failure(100);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.open_until(), 164);
  EXPECT_FALSE(b.allows(163));
  EXPECT_EQ(b.state(), BreakerState::kOpen);  // refusal has no side effect
  EXPECT_TRUE(b.allows(164));                 // boundary instant admits
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
}

// Half-open edge case: a failure from a *concurrent* in-flight attempt
// lands while the probe is out.  The breaker reopens immediately; the
// probe's late success must clear the failure streak but NOT close the
// reopened breaker.
TEST(CircuitBreakerTest, ConcurrentFailureDuringProbeWinsOverLateSuccess) {
  CircuitBreaker b({.failure_threshold = 2, .cooldown = 100});
  b.record_failure(0);
  b.record_failure(1);  // trip
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_TRUE(b.allows(101));
  b.on_dispatch();  // probe in flight
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);

  b.record_failure(105);  // straggler attempt fails concurrently
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.open_until(), 205);  // cooldown restarted
  EXPECT_EQ(b.times_opened(), 2);

  b.record_success();  // the probe's success arrives late
  EXPECT_EQ(b.state(), BreakerState::kOpen);  // does not close an open breaker
  EXPECT_EQ(b.consecutive_failures(), 0);     // but does clear the streak
  EXPECT_FALSE(b.allows(204));
  EXPECT_TRUE(b.allows(205));
}

// Half-open edge case: the single-probe gate — once the probe is
// dispatched, every further admission is refused until it resolves,
// and resolving reopens the gate.
TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbeUntilResolution) {
  CircuitBreaker b({.failure_threshold = 1, .cooldown = 10});
  b.record_failure(0);
  EXPECT_TRUE(b.allows(10));
  b.on_dispatch();
  EXPECT_FALSE(b.allows(10));
  EXPECT_FALSE(b.allows(1000));  // time alone never unseats the probe
  b.record_success();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.allows(1000));
}

// The breaker state is part of the report's behavioral identity: two
// otherwise-identical reports with different breaker states must not
// hash equal (the repro replay gate compares hashes).
TEST(CircuitBreakerTest, BreakerStateFoldsIntoReportHashAndJson) {
  ServiceReport a;
  a.backends.resize(1);
  ServiceReport b = a;
  b.backends[0].breaker = BreakerState::kHalfOpen;
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.json().find("\"breaker\":\"closed\""), std::string::npos);
  EXPECT_NE(b.json().find("\"breaker\":\"half-open\""), std::string::npos);
}

// --- whole-service scenarios --------------------------------------------

ServiceConfig small_config(std::int64_t jobs, double load) {
  ServiceConfig config;
  config.seed = 7;
  config.jobs = jobs;
  config.load = load;
  config.queue = {ShedPolicy::kEdf, 8};
  config.breaker = {.failure_threshold = 2, .cooldown = 256};
  return config;
}

TEST(SortServiceTest, FaultFreePoolCompletesEveryJobVerified) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  SortService service(pg, small_config(20, 0.5),
                      std::vector<BackendConfig>(2), &oet);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.completed_on_time + report.completed_late, 20);
  EXPECT_EQ(report.verified_jobs, 20);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.breaker_transitions, 0);
  EXPECT_GT(report.latency.p50, 0);
  for (const JobRecord& job : report.jobs) {
    EXPECT_TRUE(job.verified);
    EXPECT_GE(job.backend, 0);
    EXPECT_EQ(job.attempts, 1);
  }
}

// Satellite requirement: the ServiceReport is a pure function of the
// seed — bit-identical (hash-equal) for any executor thread count.
TEST(SortServiceTest, ReportHashIsThreadCountInvariant) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(12, 1.5);

  std::vector<BackendConfig> backends(2);
  backends[1].fault_schedule = "seed=5,ce=0.002,crashes=4@7";

  std::vector<std::uint64_t> hashes;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 4, std::max(1, hw)}) {
    ParallelExecutor executor(threads);
    SortService service(pg, config, backends, &oet, &executor);
    const ServiceReport report = service.run();
    EXPECT_TRUE(report.conserved());
    hashes.push_back(report.hash());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

// Acceptance criterion: a backend with a permanently failing schedule
// trips its breaker within K consecutive failures; traffic reroutes to
// the healthy backend with zero verification failures.
TEST(SortServiceTest, BreakerTripsWithinThresholdAndReroutes) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(15, 0.75);
  config.retry_budget = 3;

  std::vector<BackendConfig> backends(2);
  // A permanent crash with no remap budget fails every attempt.
  backends[0].fault_schedule = "seed=9,crashes=4@3P";
  backends[0].recovery.max_remaps = 0;

  SortService service(pg, config, backends, &oet);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());

  const BackendHealth& sick = report.backends[0];
  const BackendHealth& healthy = report.backends[1];
  EXPECT_GE(sick.times_opened, 1);
  EXPECT_EQ(sick.failures, sick.attempts);  // it never once succeeded
  // Between trips the breaker admits at most K consecutive failures.
  EXPECT_LE(sick.attempts,
            (sick.times_opened + 1) *
                static_cast<std::int64_t>(config.breaker.failure_threshold));
  EXPECT_EQ(healthy.failures, 0);
  // Every completion is verified; reroutes show up as retries.
  EXPECT_EQ(report.verified_jobs,
            report.completed_on_time + report.completed_late);
  EXPECT_GT(report.retries, 0);
  for (const JobRecord& job : report.jobs) {
    if (job.outcome == JobOutcome::kOnTime ||
        job.outcome == JobOutcome::kLate) {
      EXPECT_TRUE(job.verified);
      EXPECT_EQ(job.backend, 1);  // served by the healthy backend
    }
  }
}

// Acceptance criterion: once the fault clears (fault_until), the
// half-open probe succeeds and the breaker closes again.
TEST(SortServiceTest, HalfOpenProbeClosesAfterFaultClears) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(30, 1.0);
  config.retry_budget = 4;
  config.breaker = {.failure_threshold = 2, .cooldown = 64};

  // Probe the fault-free service time to place the fault window.
  const std::int64_t mean =
      SortService(pg, small_config(0, 1.0), std::vector<BackendConfig>(1),
                  &oet)
          .mean_service_steps();

  std::vector<BackendConfig> backends(2);
  backends[0].fault_schedule = "seed=9,crashes=4@3P";
  backends[0].recovery.max_remaps = 0;
  backends[0].fault_until = 6 * mean;  // heals mid-run

  SortService service(pg, config, backends, &oet);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());

  const BackendHealth& healed = report.backends[0];
  EXPECT_GE(healed.times_opened, 1);           // it did trip while sick
  EXPECT_EQ(healed.breaker, BreakerState::kClosed);  // and closed after
  EXPECT_GT(healed.attempts, healed.failures);  // served jobs once healed
}

// Acceptance criterion: with every product-network backend breaker-open,
// the service degrades to the host samplesort fallback instead of
// stalling, and fallback outputs are verified like any other.
TEST(SortServiceTest, AllBackendsOpenDegradesToSamplesortFallback) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(12, 1.0);
  config.retry_budget = 6;
  config.breaker = {.failure_threshold = 1, .cooldown = 4096};

  std::vector<BackendConfig> backends(2);
  for (BackendConfig& b : backends) {
    b.fault_schedule = "seed=9,crashes=4@3P";
    b.recovery.max_remaps = 0;
  }

  SortService service(pg, config, backends, &oet);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.fallback_jobs, 0);
  EXPECT_EQ(report.verified_jobs,
            report.completed_on_time + report.completed_late);
  bool saw_fallback = false;
  for (const JobRecord& job : report.jobs)
    if (job.fallback) {
      saw_fallback = true;
      EXPECT_EQ(job.backend, kFallbackBackend);
      EXPECT_TRUE(job.verified);
    }
  EXPECT_TRUE(saw_fallback);
}

// Overload behavior: at 2x capacity the queue bound holds, nothing is
// silently lost, and EDF's deadline-miss shedding beats drop-tail on
// the on-time completion count for the same offered traffic.
TEST(SortServiceTest, OverloadShedsWithoutLossAndEdfBeatsDropTail) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;

  std::int64_t on_time_by_policy[2] = {0, 0};
  int i = 0;
  for (const ShedPolicy policy : {ShedPolicy::kDropTail, ShedPolicy::kEdf}) {
    ServiceConfig config = small_config(40, 2.0);
    config.deadline_slack = 3.0;
    config.queue = {policy, 6};
    SortService service(pg, config, std::vector<BackendConfig>(2), &oet);
    const ServiceReport report = service.run();
    EXPECT_TRUE(report.conserved());
    EXPECT_LE(report.queue_high_water, 6);
    EXPECT_GT(report.shed_queue_full + report.shed_deadline, 0);
    on_time_by_policy[i++] = report.completed_on_time;
  }
  EXPECT_GT(on_time_by_policy[1], on_time_by_policy[0]);
}

// --- suspect ledger and the adaptive dial --------------------------------

TEST(SuspectLedgerTest, RiskIsLaplaceSmoothed) {
  SuspectLedger ledger;
  // A stranger's comparators score (0+1)/(0+2) = 0.5.
  EXPECT_DOUBLE_EQ(ledger.risk(3), 0.5);
  EXPECT_TRUE(ledger.suspect(3, 0.25));
  for (int i = 0; i < 18; ++i) ledger.record_attempt(3, false, {});
  EXPECT_DOUBLE_EQ(ledger.risk(3), 1.0 / 20.0);
  EXPECT_FALSE(ledger.suspect(3, 0.25));
  ledger.record_attempt(3, true, {5, 6});
  ledger.record_attempt(3, true, {6});
  EXPECT_DOUBLE_EQ(ledger.risk(3), 3.0 / 22.0);
  const SuspectLedger::BackendEntry* entry = ledger.entry(3);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->attempts, 20);
  EXPECT_EQ(entry->sdc_detected, 2);
  EXPECT_EQ(entry->node_hits.at(5), 1);
  EXPECT_EQ(entry->node_hits.at(6), 2);
}

TEST(SuspectLedgerTest, JsonRoundTripPreservesStateHash) {
  SuspectLedger ledger;
  ledger.record_attempt(0, false, {});
  ledger.record_attempt(1, true, {12, 14, 12});
  ledger.record_attempt(1, false, {});
  const SuspectLedger copy = SuspectLedger::from_json(ledger.to_json());
  EXPECT_EQ(copy.state_hash(), ledger.state_hash());
  EXPECT_EQ(copy.to_json(), ledger.to_json());
  EXPECT_DOUBLE_EQ(copy.risk(1), ledger.risk(1));

  // A corrupted ledger file must fail loudly, not load as empty.
  EXPECT_THROW((void)SuspectLedger::from_json("{]"), std::invalid_argument);
  EXPECT_THROW((void)SuspectLedger::from_json("not json at all"),
               std::invalid_argument);
  EXPECT_EQ(SuspectLedger::from_json("{\"version\":1,\"backends\":[]}")
                .state_hash(),
            SuspectLedger().state_hash());
}

TEST(SuspectLedgerTest, QuarantineNamesOnlyConcentratedAttribution) {
  SuspectLedger ledger;
  // Backend 0: every failing certificate implicates node 3 (plus a
  // scattering of others) — concentrated.
  for (int i = 0; i < 6; ++i) ledger.record_attempt(0, true, {3});
  ledger.record_attempt(0, true, {5});
  EXPECT_EQ(ledger.quarantine_nodes(0, 0.5, 2),
            (std::vector<std::int64_t>{3}));
  // Backend 1: hits spread evenly — diffuse, no single comparator to
  // blame, so the selective-TMR rung must handle it instead.
  for (int i = 0; i < 6; ++i)
    ledger.record_attempt(1, true, {i});
  EXPECT_TRUE(ledger.quarantine_nodes(1, 0.5, 2).empty());
  // The min_hits floor: one concentrated hit is not evidence.
  ledger.record_attempt(2, true, {7});
  EXPECT_TRUE(ledger.quarantine_nodes(2, 0.5, 2).empty());
  EXPECT_EQ(ledger.quarantine_nodes(2, 0.5, 1),
            (std::vector<std::int64_t>{7}));
  // Unknown backends have no attribution at all.
  EXPECT_TRUE(ledger.quarantine_nodes(9, 0.5, 1).empty());
}

// Satellite requirement: a ledger file the operator pointed at must
// fail loudly — missing, truncated, or corrupt all throw named errors;
// none may load as silently empty.
TEST(SuspectLedgerTest, LedgerFileFailuresAreLoud) {
  const std::string missing =
      testing::TempDir() + "no_such_ledger_anywhere.json";
  try {
    (void)load_ledger_file(missing);
    FAIL() << "missing ledger file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << "error must name the path";
  }

  const std::string corrupt = testing::TempDir() + "corrupt_ledger.json";
  {
    std::ofstream out(corrupt);
    out << "{\"version\":1,\"backends\":[{\"id\":0,";  // truncated mid-entry
  }
  EXPECT_THROW((void)load_ledger_file(corrupt), std::invalid_argument);
  {
    std::ofstream out(corrupt);
    out << "not json at all";
  }
  EXPECT_THROW((void)load_ledger_file(corrupt), std::invalid_argument);

  // And a good file round-trips the exact state.
  SuspectLedger ledger;
  ledger.record_attempt(1, true, {12, 14});
  const std::string good = testing::TempDir() + "good_ledger.json";
  {
    std::ofstream out(good);
    out << ledger.to_json();
  }
  EXPECT_EQ(load_ledger_file(good).state_hash(), ledger.state_hash());
  std::remove(corrupt.c_str());
  std::remove(good.c_str());
}

// Adaptive mode stays a pure function of the seed: report hashes (which
// fold cert levels, escalations, and the ledger digest) are identical
// for any executor thread count.
TEST(SortServiceTest, AdaptiveReportHashIsThreadCountInvariant) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(12, 1.5);
  config.adaptive.enabled = true;
  config.adaptive.sdc_budget = 0.01;

  std::vector<BackendConfig> backends(2);
  backends[1].fault_schedule = "seed=5,comparators=3@2~40I";

  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> ledger_hashes;
  for (const int threads : {1, 4}) {
    ParallelExecutor executor(threads);
    SortService service(pg, config, backends, &oet, &executor);
    const ServiceReport report = service.run();
    EXPECT_TRUE(report.conserved());
    EXPECT_DOUBLE_EQ(report.sdc_budget, 0.01);
    hashes.push_back(report.hash());
    ledger_hashes.push_back(report.ledger_hash);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(ledger_hashes[0], ledger_hashes[1]);
}

// The hardening ladder's cheap rung: with a preloaded ledger naming one
// backend as the suspect and every hit attributed to ONE comparator,
// dispatch quarantines that comparator (BFS-routes merges around it,
// ~1x comparisons) instead of paying the 3x selective-TMR vote — and
// the clean-history backend pays neither.
TEST(SortServiceTest, ConcentratedLedgerDrivesQuarantineNotTmr) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(16, 0.8);
  config.adaptive.enabled = true;
  config.adaptive.sdc_budget = 0.05;

  // Backend 0: long clean history (risk 1/30).  Backend 1: chronic SDC
  // producer (risk 25/30), every failed certificate implicating node 3.
  SuspectLedger history;
  for (int i = 0; i < 28; ++i) history.record_attempt(0, false, {});
  for (int i = 0; i < 28; ++i) history.record_attempt(1, i < 24, {3});
  config.adaptive.ledger_json = history.to_json();

  SortService service(pg, config, std::vector<BackendConfig>(2), &oet);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());

  ASSERT_EQ(report.backends.size(), 2u);
  const BackendHealth& clean = report.backends[0];
  const BackendHealth& shady = report.backends[1];
  EXPECT_FALSE(clean.suspect);
  EXPECT_EQ(clean.tmr_attempts, 0);
  EXPECT_EQ(clean.quarantine_attempts, 0);
  EXPECT_GT(clean.attempts, 0);
  // Clean history + generous budget → the dial drops below full.
  EXPECT_LT(clean.cert_level, 2);
  EXPECT_TRUE(shady.suspect);
  EXPECT_GT(shady.quarantine_attempts, 0);
  EXPECT_EQ(shady.quarantine_attempts, shady.attempts);
  EXPECT_EQ(shady.tmr_attempts, 0);  // concentrated: never pays the vote
  // Quarantined attempts carry a full end-to-end certificate; both
  // backends are actually fault-free here, so every job verifies and
  // the run attributes no new SDC.
  EXPECT_EQ(report.verified_jobs,
            report.completed_on_time + report.completed_late);
  EXPECT_EQ(report.sdc_detected, 0);
  // The exported attribution carries the preloaded history forward.
  EXPECT_EQ(shady.sdc_attributed, 24);
  EXPECT_NE(report.ledger_hash, 0u);
}

// The ladder's escalation rung: when the attribution is *diffuse* (no
// single comparator holds the min-share of hits), there is nothing to
// quarantine and dispatch falls back to selective TMR on exactly the
// suspect backend.
TEST(SortServiceTest, DiffuseLedgerEscalatesToSelectiveTmr) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(16, 0.8);
  config.adaptive.enabled = true;
  config.adaptive.sdc_budget = 0.05;

  // Backend 1's failing certificates implicate a different node every
  // time: suspect, but with no comparator to blame.
  SuspectLedger history;
  for (int i = 0; i < 28; ++i) history.record_attempt(0, false, {});
  for (int i = 0; i < 28; ++i)
    history.record_attempt(1, i < 24, {i % 8});
  config.adaptive.ledger_json = history.to_json();

  SortService service(pg, config, std::vector<BackendConfig>(2), &oet);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());

  ASSERT_EQ(report.backends.size(), 2u);
  const BackendHealth& shady = report.backends[1];
  EXPECT_TRUE(shady.suspect);
  EXPECT_EQ(shady.quarantine_attempts, 0);
  EXPECT_GT(shady.tmr_attempts, 0);
  EXPECT_EQ(shady.tmr_attempts, shady.attempts);
  EXPECT_EQ(report.backends[0].tmr_attempts, 0);
}

// --- golden report hashes -------------------------------------------------
//
// Pinned ServiceReport::hash() literals over a matrix of policies, fault
// mixes, adaptive certification and load.  The hash folds every counter,
// per-job record, backend health and the ledger digest, so any drift in
// arrivals, dispatch order, breakers, fallback or adaptive hardening
// changes a literal here.  A deliberate behaviour change rebaselines
// them once, with the change written down.

// Base: path(3)^2, SnakeOETS2, seed 7, 60 jobs, 3 backends, queue cap 6,
// retry budget 3, breaker {2, 256}.
ServiceConfig golden_config(ShedPolicy policy, bool adaptive, double load) {
  ServiceConfig config;
  config.seed = 7;
  config.jobs = 60;
  config.load = load;
  config.retry_budget = 3;
  config.queue = {policy, 6};
  config.breaker = {.failure_threshold = 2, .cooldown = 256};
  if (adaptive) {
    config.adaptive.enabled = true;
    config.adaptive.sdc_budget = 0.01;
  }
  return config;
}

std::vector<BackendConfig> golden_backends(int mix) {
  std::vector<BackendConfig> backends(3);
  if (mix == 1) {
    backends[1].fault_schedule = "seed=5,ce=0.002,crashes=4@7";
    backends[2].fault_schedule = "seed=5,comparators=3@2~40I";
  } else if (mix == 2) {
    backends[0].fault_schedule = "seed=9,crashes=4@3P";
    backends[0].recovery.max_remaps = 0;
    backends[0].fault_until = 4000;
    backends[2].fault_schedule = "seed=5,comparators=4@0I";
  }
  return backends;
}

// In loop order: policy {drop-tail, EDF, priority} x fault mix {0, 1, 2}
// x adaptive {off, on} x load {0.7, 1.8}.
constexpr std::uint64_t kGoldenMatrix[36] = {
    0xf2e74a2cc8dce0d7ULL, 0xacfbdda948c231b3ULL, 0xb788b7344973f093ULL,
    0x835133b6b4418767ULL, 0x51aacd3822c256fdULL, 0xc063952314fdd957ULL,
    0x1cd95e38461a3702ULL, 0x00ea2cb6e776456bULL, 0xe0e7ad142e63be3fULL,
    0xafa668c34756b3c8ULL, 0xbe9270657d5cad7fULL, 0xd5dc6d6725eb5173ULL,
    0xc24ad5eabcc30980ULL, 0x6d30d95393b02154ULL, 0x87f4efc03a695b33ULL,
    0x1e9ad1d845c7cc4bULL, 0xc4d4b7b0b938e535ULL, 0x5a9d3a2e4d6ca49bULL,
    0x3bf683a94642f03cULL, 0x472d4887125d0b99ULL, 0x8f48fb31b3d5cb6aULL,
    0x10bdcbf556e58e90ULL, 0xfad776ae4ef2ac15ULL, 0x2d63c59efc2472b1ULL,
    0x1971df765f26c4f2ULL, 0x556d452afc6b989bULL, 0x400b7b50b4003588ULL,
    0x90621d55b2ad0329ULL, 0x151cd4a64a610969ULL, 0xd90388a9065ffaeeULL,
    0xadbbf262b6a61b77ULL, 0x26a3546613c5bbeeULL, 0x3e87a8a682888229ULL,
    0x5a623ddc48f8832dULL, 0x1dba1fddf51dfc02ULL, 0x57f098b7b130956aULL};

TEST(SortServiceGoldenTest, ReportHashesMatchPinnedMatrix) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  const ShedPolicy policies[] = {ShedPolicy::kDropTail, ShedPolicy::kEdf,
                                 ShedPolicy::kPriority};
  const std::uint64_t* golden = kGoldenMatrix;
  for (const ShedPolicy policy : policies)
    for (int mix = 0; mix < 3; ++mix)
      for (const bool adaptive : {false, true})
        for (const double load : {0.7, 1.8}) {
          SCOPED_TRACE(to_string(policy) + " mix=" + std::to_string(mix) +
                       " adaptive=" + std::to_string(adaptive) +
                       " load=" + std::to_string(load));
          SortService service(pg, golden_config(policy, adaptive, load),
                              golden_backends(mix), &oet);
          const ServiceReport report = service.run();
          EXPECT_TRUE(report.conserved());
          EXPECT_EQ(report.ledger_hash,
                    adaptive ? service.ledger().state_hash() : 0u);
          EXPECT_EQ(report.hash(), *golden++);
        }
}

// The all-breakers-open host-fallback config of
// AllBackendsOpenDegradesToSamplesortFallback.
TEST(SortServiceGoldenTest, FallbackReportHashIsPinned) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(12, 1.0);
  config.retry_budget = 6;
  config.breaker = {.failure_threshold = 1, .cooldown = 4096};
  std::vector<BackendConfig> backends(2);
  for (BackendConfig& b : backends) {
    b.fault_schedule = "seed=9,crashes=4@3P";
    b.recovery.max_remaps = 0;
  }
  SortService service(pg, config, backends, &oet);
  EXPECT_EQ(service.run().hash(), 0x0a2f58a105169006ULL);
}

// Six backends under a drop-tail cap of 5 at 2.5x load: the queue cap and
// the in-flight bound both differ from a default tenant (cap 16, quota
// 4), so a leaked default shows up here.
TEST(SortServiceGoldenTest, WidePoolOverloadHashIsPinned) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(120, 2.5);
  config.queue = {ShedPolicy::kDropTail, 5};
  SortService service(pg, config, std::vector<BackendConfig>(6), &oet);
  const ServiceReport report = service.run();
  EXPECT_LE(report.queue_high_water, 5);
  EXPECT_EQ(report.hash(), 0x9b130d9c360396e6ULL);
}

// The preloaded concentrated-ledger config of
// ConcentratedLedgerDrivesQuarantineNotTmr.
TEST(SortServiceGoldenTest, ConcentratedLedgerHashIsPinned) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  ServiceConfig config = small_config(16, 0.8);
  config.adaptive.enabled = true;
  config.adaptive.sdc_budget = 0.05;
  SuspectLedger history;
  for (int i = 0; i < 28; ++i) history.record_attempt(0, false, {});
  for (int i = 0; i < 28; ++i) history.record_attempt(1, i < 24, {3});
  config.adaptive.ledger_json = history.to_json();
  SortService service(pg, config, std::vector<BackendConfig>(2), &oet);
  const ServiceReport report = service.run();
  EXPECT_EQ(report.hash(), 0xc5f30dc77e5b22daULL);
  EXPECT_EQ(service.ledger().state_hash(), 0xa22d8bdc714a4f6cULL);
}

// A larger topology and a different sorter: cycle(4)^3 under
// ShearsortS2, four backends, adaptive certification.
TEST(SortServiceGoldenTest, ShearsortCycleHashIsPinned) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const ShearsortS2 shear;
  ServiceConfig config = golden_config(ShedPolicy::kEdf, true, 1.0);
  std::vector<BackendConfig> backends(4);
  backends[3].fault_schedule = "seed=11,ce=0.003,comparators=2@1~30I";
  SortService service(pg, config, backends, &shear);
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.hash(), 0x6a91627f1954ba6bULL);
}

TEST(SortServiceTest, RejectsInvalidConfig) {
  const ProductGraph pg(labeled_path(2), 2);
  const SnakeOETS2 oet;
  EXPECT_THROW(SortService(pg, small_config(1, 1.0), {}, &oet),
               std::invalid_argument);
  EXPECT_THROW(SortService(pg, small_config(1, 0.0),
                           std::vector<BackendConfig>(1), &oet),
               std::invalid_argument);
  std::vector<BackendConfig> bad(1);
  bad[0].fault_schedule = "seed=abc";
  EXPECT_THROW(SortService(pg, small_config(1, 1.0), bad, &oet),
               std::invalid_argument);

  const auto rejects = [&](void (*mutate)(ServiceConfig&)) {
    ServiceConfig config = small_config(1, 1.0);
    mutate(config);
    EXPECT_THROW(
        SortService(pg, config, std::vector<BackendConfig>(1), &oet),
        std::invalid_argument);
  };
  rejects([](ServiceConfig& c) { c.jobs = -1; });
  rejects([](ServiceConfig& c) { c.retry_budget = -1; });
  rejects([](ServiceConfig& c) { c.backoff_base = 0; });
  rejects([](ServiceConfig& c) { c.backoff_cap = c.backoff_base - 1; });
}

}  // namespace
}  // namespace prodsort
