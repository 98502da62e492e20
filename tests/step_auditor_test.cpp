#include "analysis/step_auditor.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "analysis/packet_audit.hpp"
#include "core/block_sort.hpp"
#include "core/product_sort.hpp"
#include "core/s2/network_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "network/block_machine.hpp"
#include "network/fault_model.hpp"
#include "network/machine.hpp"
#include "network/packet_sim.hpp"
#include "network/parallel_executor.hpp"
#include "product/subgraph_view.hpp"
#include "sortnet/batcher.hpp"

namespace prodsort {
namespace {

std::vector<Key> iota_keys(PNode count) {
  std::vector<Key> keys(static_cast<std::size_t>(count));
  for (PNode i = 0; i < count; ++i)
    keys[static_cast<std::size_t>(i)] = count - i;  // reversed, all distinct
  return keys;
}

// path(3)^2: a 3x3 grid, nodes 0..8, digit d of node v = (v / 3^(d-1)) % 3.
ProductGraph grid3() { return ProductGraph(labeled_path(3), 2); }

ViolationKind only_kind(const StepAuditor& auditor) {
  EXPECT_EQ(auditor.violation_count(), 1);
  EXPECT_FALSE(auditor.violations().empty());
  return auditor.violations().front().kind;
}

// ---------------------------------------------------------------- negative

TEST(StepAuditorTest, FlagsOverlappingPair) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.throw_on_violation = false;
  StepAuditor auditor(pg, config);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_observer(&auditor);
  // Node 1 appears in two pairs of the same phase.
  const CEPair pairs[] = {{0, 1}, {1, 2}};
  m.compare_exchange_step(pairs);
  EXPECT_EQ(only_kind(auditor), ViolationKind::kOverlappingPair);
  EXPECT_EQ(auditor.violations().front().node, 1);
  EXPECT_FALSE(auditor.clean());
}

TEST(StepAuditorTest, FlagsDegeneratePair) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.throw_on_violation = false;
  StepAuditor auditor(pg, config);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_observer(&auditor);
  const CEPair pairs[] = {{4, 4}};
  m.compare_exchange_step(pairs);
  EXPECT_EQ(only_kind(auditor), ViolationKind::kDegeneratePair);
}

TEST(StepAuditorTest, FlagsWrongDimensionPartner) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.throw_on_violation = false;
  StepAuditor auditor(pg, config);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_observer(&auditor);
  // 0 = (0,0) and 4 = (1,1): differ in BOTH dimensions — a diagonal
  // "comparison" the synchronous machine must never issue.
  const CEPair pairs[] = {{0, 4}};
  m.compare_exchange_step(pairs, /*hop_distance=*/2);
  EXPECT_EQ(only_kind(auditor), ViolationKind::kWrongDimension);
}

TEST(StepAuditorTest, FlagsUnderchargedHop) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.throw_on_violation = false;
  StepAuditor auditor(pg, config);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_observer(&auditor);
  // 0 = (0,0) and 6 = (0,2): same dimension, factor distance 2 on the
  // path — charging hop 1 undercharges exec_steps.
  const CEPair pairs[] = {{0, 6}};
  m.compare_exchange_step(pairs, /*hop_distance=*/1);
  EXPECT_EQ(only_kind(auditor), ViolationKind::kUnderchargedHop);
  EXPECT_EQ(auditor.violations().front().expected, 2);
  EXPECT_EQ(auditor.violations().front().observed, 1);
}

TEST(StepAuditorTest, CrossDimensionModeStillEnforcesCostHonesty) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.throw_on_violation = false;
  config.allow_cross_dimension = true;
  StepAuditor auditor(pg, config);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_observer(&auditor);
  // 0 = (0,0) and 8 = (2,2): product distance 4.  Charging 4 is legal
  // in cross-dimension mode; charging 3 is not.
  const CEPair ok[] = {{0, 8}};
  m.compare_exchange_step(ok, /*hop_distance=*/4);
  EXPECT_TRUE(auditor.clean());
  m.compare_exchange_step(ok, /*hop_distance=*/3);
  EXPECT_EQ(only_kind(auditor), ViolationKind::kUnderchargedHop);
}

TEST(StepAuditorTest, ThrowsOnViolationByDefault) {
  const ProductGraph pg = grid3();
  StepAuditor auditor(pg);  // throw_on_violation defaults to true
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_observer(&auditor);
  const CEPair pairs[] = {{0, 1}, {1, 2}};
  EXPECT_THROW(m.compare_exchange_step(pairs), std::logic_error);
}

TEST(StepAuditorTest, RejectsOutOfRangeEndpoints) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.throw_on_violation = false;  // range errors throw regardless
  StepAuditor auditor(pg, config);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_observer(&auditor);
  const CEPair pairs[] = {{0, 9}};
  EXPECT_THROW(m.compare_exchange_step(pairs), std::logic_error);
}

// The race detector itself: feed lockstep_compare a fabricated "after"
// image simulating a lost update, and require a divergence report that
// names the overlapping write set.  (Real parallel divergence is
// nondeterministic, so the negative test drives the comparator
// directly; the integration tests below prove no false positives.)
TEST(StepAuditorTest, LockstepCompareDetectsLostUpdate) {
  const ProductGraph pg = grid3();
  StepAuditor auditor(pg);
  const std::vector<Key> before = {5, 1, 4, 2, 8, 0, 7, 3, 6};
  const std::vector<CEPair> pairs = {{0, 1}, {1, 2}};  // 1 written twice
  // Serial replay: (0,1) swaps 5,1 -> 1,5; (1,2) swaps 5,4 -> 4,5,
  // leaving {1, 4, 5, ...}.  A racing run where (1,2) read node 1
  // before (0,1) wrote it keeps 1 there and drops the 5 entirely —
  // fabricate that lost-update image {1, 1, 4, ...}.
  std::vector<Key> after = before;
  after[0] = 1;
  after[1] = 1;
  after[2] = 4;
  const auto divergence =
      auditor.lockstep_compare(before, pairs, /*block_size=*/1, after);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->kind, ViolationKind::kLockstepDivergence);
  EXPECT_EQ(divergence->observed, 1);  // one node written twice
  EXPECT_NE(divergence->message.find("write-set overlap: 1"),
            std::string::npos);
}

TEST(StepAuditorTest, LockstepCompareAcceptsCorrectResult) {
  const ProductGraph pg = grid3();
  StepAuditor auditor(pg);
  const std::vector<Key> before = {5, 1, 4, 2, 8, 0, 7, 3, 6};
  const std::vector<CEPair> pairs = {{0, 1}, {2, 3}};
  std::vector<Key> after = {1, 5, 2, 4, 8, 0, 7, 3, 6};
  EXPECT_FALSE(
      auditor.lockstep_compare(before, pairs, /*block_size=*/1, after)
          .has_value());
}

TEST(StepAuditorTest, LockstepCompareReplaysMergeSplit) {
  const ProductGraph pg = grid3();
  StepAuditor auditor(pg);
  // block_size 2: pair (0,1) merge-splits {7,9} and {2,4} into {2,4},{7,9}.
  const std::vector<Key> before = {7, 9, 2, 4};
  const std::vector<CEPair> pairs = {{0, 1}};
  const std::vector<Key> good = {2, 4, 7, 9};
  EXPECT_FALSE(auditor.lockstep_compare(before, pairs, /*block_size=*/2, good)
                   .has_value());
  const std::vector<Key> bad = {2, 7, 4, 9};
  EXPECT_TRUE(auditor.lockstep_compare(before, pairs, /*block_size=*/2, bad)
                  .has_value());
}

// ---------------------------------------------------------------- positive

TEST(StepAuditorTest, ProductSortRunsCleanUnderFullAudit) {
  const ProductGraph pg(labeled_path(4), 3);
  AuditorConfig config;
  config.check_lockstep = true;
  StepAuditor auditor(pg, config);  // throwing: any violation fails here
  ParallelExecutor exec(4);
  std::mt19937 rng(7);
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  for (Key& k : keys) k = static_cast<Key>(rng() % 1000);
  Machine m(pg, std::move(keys), &exec);
  m.set_observer(&auditor);
  const ShearsortS2 s2;
  SortOptions options;
  options.s2 = &s2;
  (void)sort_product_network(m, options);
  EXPECT_TRUE(m.snake_sorted(full_view(pg)));
  EXPECT_TRUE(auditor.clean());
  EXPECT_GT(auditor.stats().phases, 0);
  EXPECT_GT(auditor.stats().pairs, 0);
  EXPECT_EQ(auditor.stats().lockstep_replays, auditor.stats().phases);
  // Section 4 memory discipline: own value + one partner value, never more.
  EXPECT_LE(auditor.stats().max_resident_values, 2);
}

TEST(StepAuditorTest, NetworkS2RunsCleanInCrossDimensionMode) {
  const ProductGraph pg(labeled_k2(), 2);
  AuditorConfig config;
  config.allow_cross_dimension = true;
  config.check_lockstep = true;
  StepAuditor auditor(pg, config);
  Machine m(pg, {3, 1, 2, 0});
  m.set_observer(&auditor);
  const NetworkS2 s2(odd_even_merge_sort_network(4));
  SortOptions options;
  options.s2 = &s2;
  (void)sort_product_network(m, options);
  EXPECT_TRUE(m.snake_sorted(full_view(pg)));
  EXPECT_TRUE(auditor.clean());
}

TEST(StepAuditorTest, BlockSortRunsCleanUnderFullAudit) {
  const ProductGraph pg(labeled_cycle(4), 2);
  AuditorConfig config;
  config.check_lockstep = true;
  StepAuditor auditor(pg, config);
  const int block = 4;
  std::mt19937 rng(11);
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()) * block);
  for (Key& k : keys) k = static_cast<Key>(rng() % 1000);
  BlockMachine m(pg, std::move(keys), block);
  m.set_observer(&auditor);
  const BlockShearsortS2 s2;
  BlockSortOptions options;
  options.s2 = &s2;
  (void)sort_block_network(m, options);
  EXPECT_TRUE(m.snake_sorted(full_view(pg)));
  EXPECT_TRUE(auditor.clean());
  EXPECT_LE(auditor.stats().max_resident_values, 2);
}

TEST(StepAuditorTest, ObserverSupersedesMachineDisjointCheck) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.throw_on_violation = false;
  StepAuditor auditor(pg, config);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_check_disjoint(true);  // would throw without an observer...
  m.set_observer(&auditor);    // ...but the observer owns the check now
  const CEPair pairs[] = {{0, 1}, {1, 2}};
  EXPECT_NO_THROW(m.compare_exchange_step(pairs));
  // The overlap is the auditor's finding, recorded instead of thrown.
  EXPECT_EQ(only_kind(auditor), ViolationKind::kOverlappingPair);
}

TEST(StepAuditorTest, SkipsLockstepReplayOnFaultyPhases) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.check_lockstep = true;
  StepAuditor auditor(pg, config);
  FaultConfig fc;
  fc.ce_drop_rate = 1.0;  // every pair dropped: replay cannot reproduce
  FaultModel faults(fc);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_fault_model(&faults);
  m.set_observer(&auditor);
  const CEPair pairs[] = {{0, 1}, {2, 5}};
  EXPECT_NO_THROW(m.compare_exchange_step(pairs));
  EXPECT_EQ(auditor.stats().faulty_phases, 1);
  EXPECT_EQ(auditor.stats().lockstep_replays, 0);
  EXPECT_TRUE(auditor.clean());
}

TEST(StepAuditorTest, CountsReplaySkipsAsLostCoverage) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.check_lockstep = true;
  StepAuditor auditor(pg, config);
  FaultConfig fc;
  fc.ce_drop_rate = 1.0;  // every phase perturbed
  FaultModel faults(fc);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_fault_model(&faults);
  m.set_observer(&auditor);
  const CEPair pairs[] = {{0, 1}, {2, 5}};
  m.compare_exchange_step(pairs);
  m.compare_exchange_step(pairs);
  // Each skipped replay is lost audit coverage, counted so chaos runs
  // report the blind spot instead of silently under-auditing.
  EXPECT_EQ(auditor.stats().faulty_phases, 2);
  EXPECT_EQ(auditor.stats().replay_skipped, 2);

  // Without check_lockstep there is no replay to lose: the counter must
  // stay zero even though the phases are still flagged faulty.
  StepAuditor watcher(pg, AuditorConfig{});
  Machine m2(pg, iota_keys(pg.num_nodes()));
  m2.set_fault_model(&faults);
  m2.set_observer(&watcher);
  m2.compare_exchange_step(pairs);
  EXPECT_EQ(watcher.stats().faulty_phases, 1);
  EXPECT_EQ(watcher.stats().replay_skipped, 0);
}

TEST(StepAuditorTest, ResetForgetsViolationsAndStats) {
  const ProductGraph pg = grid3();
  AuditorConfig config;
  config.throw_on_violation = false;
  StepAuditor auditor(pg, config);
  Machine m(pg, iota_keys(pg.num_nodes()));
  m.set_observer(&auditor);
  const CEPair pairs[] = {{0, 1}, {1, 2}};
  m.compare_exchange_step(pairs);
  EXPECT_FALSE(auditor.clean());
  auditor.reset();
  EXPECT_TRUE(auditor.clean());
  EXPECT_EQ(auditor.stats().phases, 0);
  const CEPair ok[] = {{0, 1}};
  m.compare_exchange_step(ok);
  EXPECT_TRUE(auditor.clean());
}

// ------------------------------------------------------------ packet audit

TEST(PacketAuditTest, AcceptsRealSimulation) {
  const LabeledFactor factor = labeled_cycle(5);
  std::vector<NodeId> dest = {3, 0, 4, 1, 2};
  const PacketStats stats = simulate_permutation(factor.graph, dest);
  const PacketAuditReport report =
      audit_permutation_stats(factor.graph, dest, stats);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_GE(stats.steps, report.steps_lower_bound);
  EXPECT_GE(stats.total_hops, report.hops_lower_bound);
}

TEST(PacketAuditTest, RejectsUnderchargedStats) {
  const LabeledFactor factor = labeled_cycle(5);
  std::vector<NodeId> dest = {3, 0, 4, 1, 2};
  PacketStats stats = simulate_permutation(factor.graph, dest);
  stats.total_hops = 1;  // impossible: below the shortest-path total
  const PacketAuditReport report =
      audit_permutation_stats(factor.graph, dest, stats);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.message.empty());
}

TEST(PacketAuditTest, ProductAuditAcceptsDimensionOrderRouting) {
  const ProductGraph pg(labeled_path(3), 2);
  std::vector<PNode> dest(static_cast<std::size_t>(pg.num_nodes()));
  for (PNode v = 0; v < pg.num_nodes(); ++v)
    dest[static_cast<std::size_t>(v)] = pg.num_nodes() - 1 - v;
  const PacketStats stats = simulate_product_permutation(pg, dest);
  const PacketAuditReport report =
      audit_product_permutation_stats(pg, dest, stats);
  EXPECT_TRUE(report.ok) << report.message;
}

}  // namespace
}  // namespace prodsort
