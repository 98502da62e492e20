#include "network/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/s2/snake_oet_s2.hpp"
#include "product/degraded_view.hpp"
#include "product/snake_order.hpp"

namespace prodsort {
namespace {

std::vector<Key> random_keys(PNode count, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(static_cast<std::size_t>(count));
  for (Key& k : keys) k = static_cast<Key>(rng() % 100000);
  return keys;
}

/// Synchronous-phase count of the fault-free schedule, read off the
/// machine's fault clock by attaching an all-zero FaultModel (which only
/// ticks the clock — the run stays bit-identical).
std::int64_t probe_phases(const ProductGraph& pg, const SortOptions& options) {
  FaultConfig tick;
  FaultModel clock(tick);
  Machine m(pg, random_keys(pg.num_nodes(), 1), nullptr);
  m.set_fault_model(&clock);
  (void)sort_product_network(m, options);
  return m.fault_phase();
}

SortOptions oet_options(const SnakeOETS2& oet) {
  SortOptions options;
  options.s2 = &oet;
  return options;
}

TEST(RecoveryTest, PathNamesAreStable) {
  EXPECT_EQ(to_string(RecoveryPath::kNone), "none");
  EXPECT_EQ(to_string(RecoveryPath::kReexecOnly), "reexec-only");
  EXPECT_EQ(to_string(RecoveryPath::kRollback), "rollback");
  EXPECT_EQ(to_string(RecoveryPath::kDegradedRemap), "degraded-remap");
  EXPECT_EQ(to_string(RecoveryPath::kFailed), "failed");
}

TEST(RecoveryTest, RejectsNegativeBudgets) {
  const ProductGraph pg(labeled_path(2), 2);
  Machine m(pg, random_keys(pg.num_nodes(), 2));
  EXPECT_THROW(RecoveryController(m, {.max_rollbacks = -1}),
               std::invalid_argument);
  EXPECT_THROW(RecoveryController(m, {.max_remaps = -1}),
               std::invalid_argument);
}

TEST(RecoveryTest, CrashFreeRunReportsNoPath) {
  const ProductGraph pg(labeled_path(3), 2);
  const auto keys = random_keys(pg.num_nodes(), 3);
  Machine m(pg, keys);
  FaultModel fm{FaultConfig{}};
  m.set_fault_model(&fm);
  const SnakeOETS2 oet;
  RecoveryController controller(m);
  const CrashRecoveryReport report = controller.run(oet_options(oet));
  EXPECT_EQ(report.path, RecoveryPath::kNone);
  EXPECT_TRUE(report.sorted);
  EXPECT_FALSE(report.data_loss);
  EXPECT_EQ(report.crashes, 0);
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(report.output, expected);
}

TEST(RecoveryTest, DegradedSnakeOetSortsTheSurvivors) {
  const ProductGraph pg(labeled_path(3), 2);
  const auto keys = random_keys(pg.num_nodes(), 4);
  Machine m(pg, keys);
  FaultModel fm{FaultConfig{}};
  m.set_fault_model(&fm);
  const PNode dead = node_at_snake_rank(pg, 4);
  fm.kill(dead);

  const DegradedView dv(pg, full_view(pg), fm.dead_nodes());
  int hop_even = 1;
  int hop_odd = 1;
  const auto even = degraded_oet_pairs(dv, 0, &hop_even);
  EXPECT_EQ(even.size(), static_cast<std::size_t>(dv.live_size() / 2));
  const auto odd = degraded_oet_pairs(dv, 1, &hop_odd);
  EXPECT_EQ(odd.size(), static_cast<std::size_t>((dv.live_size() - 1) / 2));
  // Every consecutive live pair belongs to exactly one parity, so the
  // two parities together see the worst detour around the hole.
  EXPECT_EQ(std::max(hop_even, hop_odd), dv.max_hop());
  EXPECT_GE(dv.max_hop(), 2);

  sort_degraded_snake(m, dv);
  const std::vector<Key> live = read_degraded_snake(m, dv);
  EXPECT_EQ(live.size(), static_cast<std::size_t>(dv.live_size()));
  EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
}

// Satellite requirement: a crash injected at EVERY phase index of the
// N=3, r=2 sort (9 nodes) must recover to a verified sorted snake —
// restartable and permanent alike — under the Debug disjointness sweep.
TEST(RecoveryTest, CrashAtEveryPhaseIndexRecoversOnSmallGrid) {
  const ProductGraph pg(labeled_path(3), 2);
  const SnakeOETS2 oet;
  const SortOptions options = oet_options(oet);
  const std::int64_t phases = probe_phases(pg, options);
  ASSERT_GT(phases, 0);

  const auto keys = random_keys(pg.num_nodes(), 5);
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());

  for (std::int64_t phase = 0; phase < phases; ++phase) {
    for (const bool permanent : {false, true}) {
      FaultConfig config;
      config.seed = 50 + static_cast<std::uint64_t>(phase);
      config.crash_schedule.push_back(
          {.node = phase % pg.num_nodes(), .phase = phase,
           .permanent = permanent});
      FaultModel fm(config);
      Machine m(pg, keys);
      m.set_fault_model(&fm);
      RecoveryController controller(m, {.checkpoint_interval = 4});
      const CrashRecoveryReport report = controller.run(options);

      SCOPED_TRACE(testing::Message()
                   << "phase=" << phase << " permanent=" << permanent
                   << " path=" << to_string(report.path));
      EXPECT_EQ(report.crashes, 1);
      EXPECT_NE(report.path, RecoveryPath::kFailed);
      EXPECT_NE(report.path, RecoveryPath::kNone);
      EXPECT_TRUE(report.sorted);
      EXPECT_FALSE(report.data_loss);
      // A single crash can never wipe both checkpoint copies, so the
      // full multiset survives — orphans included.
      EXPECT_TRUE(report.lost_entries.empty());
      EXPECT_EQ(report.output, expected);
      if (permanent)
        EXPECT_EQ(report.dead.size(), 1u);
      else
        EXPECT_TRUE(report.dead.empty());
    }
  }
}

// Acceptance bar: a sort of N^r >= 81 keys survives ANY single
// fail-stop crash at any phase index, producing a verified sorted snake
// (full or degraded) with the recovery path recorded in the CostModel.
TEST(RecoveryTest, AnySingleCrashOn81NodesProducesASortedSnake) {
  const ProductGraph pg(labeled_path(3), 4);  // 81 nodes
  ASSERT_GE(pg.num_nodes(), 81);
  const SnakeOETS2 oet;
  const SortOptions options = oet_options(oet);
  const std::int64_t phases = probe_phases(pg, options);
  ASSERT_GT(phases, 0);

  const auto keys = random_keys(pg.num_nodes(), 6);
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());

  for (std::int64_t phase = 0; phase < phases; ++phase) {
    // Alternate crash flavors along the sweep so both the rollback and
    // the degraded-remap rungs are exercised across the schedule.
    FaultConfig config;
    config.seed = 90 + static_cast<std::uint64_t>(phase);
    config.crash_schedule.push_back({.node = (phase * 7) % pg.num_nodes(),
                                     .phase = phase,
                                     .permanent = phase % 2 == 1});
    FaultModel fm(config);
    Machine m(pg, keys);
    m.set_fault_model(&fm);
    RecoveryController controller(m, {.checkpoint_interval = 8});
    const CrashRecoveryReport report = controller.run(options);

    SCOPED_TRACE(testing::Message() << "phase=" << phase << " path="
                                    << to_string(report.path));
    EXPECT_TRUE(report.sorted);
    EXPECT_FALSE(report.data_loss);
    EXPECT_EQ(report.output, expected);
    EXPECT_NE(report.path, RecoveryPath::kFailed);
    // The machine-readable trail: the crash and its recovery work are
    // in the CostModel.
    EXPECT_EQ(m.cost().crashes, 1);
    if (report.path == RecoveryPath::kRollback) {
      EXPECT_GT(m.cost().rollbacks, 0);
    }
    if (report.path == RecoveryPath::kDegradedRemap) {
      EXPECT_GT(m.cost().remap_sorts, 0);
    }
  }
}

TEST(RecoveryTest, PermanentCrashTakesTheDegradedRemapRung) {
  const ProductGraph pg(labeled_path(3), 2);
  const auto keys = random_keys(pg.num_nodes(), 7);
  FaultConfig config;
  config.seed = 11;
  config.crash_schedule.push_back({.node = 4, .phase = 2, .permanent = true});
  FaultModel fm(config);
  Machine m(pg, keys);
  m.set_fault_model(&fm);
  const SnakeOETS2 oet;
  RecoveryController controller(m);
  const CrashRecoveryReport report = controller.run(oet_options(oet));

  EXPECT_EQ(report.path, RecoveryPath::kDegradedRemap);
  EXPECT_TRUE(report.sorted);
  EXPECT_FALSE(report.data_loss);
  ASSERT_EQ(report.dead.size(), 1u);
  EXPECT_EQ(report.dead.front(), 4);
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(report.output, expected);  // the orphan key is merged back
  EXPECT_GT(m.cost().remap_sorts, 0);
}

// Regression for trial loops: fault/recovery counters must start from
// zero each trial, so two identical seeded trials report identical
// numbers no matter what ran before them.
TEST(RecoveryTest, IdenticalSeededTrialsReportIdenticalCounters) {
  const ProductGraph pg(labeled_path(3), 2);
  const auto keys = random_keys(pg.num_nodes(), 8);
  FaultConfig config;
  config.seed = 13;
  config.crash_schedule.push_back({.node = 2, .phase = 3, .permanent = false});
  config.crash_schedule.push_back({.node = 7, .phase = 9, .permanent = true});
  const SnakeOETS2 oet;
  const SortOptions options = oet_options(oet);

  FaultModel fm(config);  // shared across trials, reset between them
  CostModel first;
  std::vector<Key> first_output;
  for (int trial = 0; trial < 2; ++trial) {
    fm.reset();
    Machine m(pg, keys);
    m.set_fault_model(&fm);
    RecoveryController controller(m, {.checkpoint_interval = 4});
    const CrashRecoveryReport report = controller.run(options);
    if (trial == 0) {
      first = m.cost();
      first_output = report.output;
      // reset_fault_counters() zeroes exactly the fault/recovery block
      // and leaves the paper clocks and work counters alone.
      const CostModel before = m.cost();
      m.cost().reset_fault_counters();
      EXPECT_EQ(m.cost().crashes, 0);
      EXPECT_EQ(m.cost().retries, 0);
      EXPECT_EQ(m.cost().reexec_phases, 0);
      EXPECT_EQ(m.cost().checkpoints, 0);
      EXPECT_EQ(m.cost().checkpoint_steps, 0);
      EXPECT_EQ(m.cost().rollbacks, 0);
      EXPECT_EQ(m.cost().remap_sorts, 0);
      EXPECT_EQ(m.cost().recovery_steps, 0);
      EXPECT_EQ(m.cost().exec_steps, before.exec_steps);
      EXPECT_EQ(m.cost().comparisons, before.comparisons);
      EXPECT_EQ(m.cost().exchanges, before.exchanges);
    } else {
      EXPECT_EQ(m.cost().crashes, first.crashes);
      EXPECT_EQ(m.cost().reexec_phases, first.reexec_phases);
      EXPECT_EQ(m.cost().checkpoints, first.checkpoints);
      EXPECT_EQ(m.cost().checkpoint_steps, first.checkpoint_steps);
      EXPECT_EQ(m.cost().rollbacks, first.rollbacks);
      EXPECT_EQ(m.cost().remap_sorts, first.remap_sorts);
      EXPECT_EQ(m.cost().recovery_steps, first.recovery_steps);
      EXPECT_EQ(m.cost().exec_steps, first.exec_steps);
      EXPECT_EQ(report.output, first_output);
    }
  }
}

// Satellite regression: the sort service retries jobs on the SAME
// machine back to back without resetting its cumulative cost counters.
// The report's crash/checkpoint numbers are per-run deltas, so a second
// recovered sort must report its own run — not the running total — while
// the machine's counters keep accumulating underneath.
TEST(RecoveryTest, BackToBackRunsOnOneMachineReportPerRunDeltas) {
  const ProductGraph pg(labeled_path(3), 2);
  FaultConfig config;
  config.seed = 23;
  config.crash_schedule.push_back({.node = 4, .phase = 3, .permanent = false});
  FaultModel fm(config);
  const SnakeOETS2 oet;

  Machine m(pg, random_keys(pg.num_nodes(), 23));
  m.set_fault_model(&fm);
  RecoveryController controller(m, {.checkpoint_interval = 2});

  const CrashRecoveryReport first = controller.run(oet_options(oet));
  ASSERT_TRUE(first.sorted);
  ASSERT_FALSE(first.data_loss);
  EXPECT_EQ(first.crashes, 1);
  EXPECT_GT(first.checkpoints, 0);

  // Re-arm the schedule and the phase clock only; the machine's
  // cumulative CostModel is deliberately NOT reset.
  fm.reset();
  m.reset_fault_clock();
  const CrashRecoveryReport second = controller.run(oet_options(oet));
  ASSERT_TRUE(second.sorted);
  ASSERT_FALSE(second.data_loss);

  // The compare-exchange schedule is oblivious, so the second run fires
  // the same crash at the same phase and must report identical per-run
  // deltas — double-counting would report the cumulative totals here.
  EXPECT_EQ(second.crashes, first.crashes);
  EXPECT_EQ(second.rollbacks, first.rollbacks);
  EXPECT_EQ(second.remaps, first.remaps);
  EXPECT_EQ(second.checkpoints, first.checkpoints);
  EXPECT_EQ(second.reexec_phases, first.reexec_phases);

  // The machine's own counters stay cumulative across the two runs.
  EXPECT_EQ(m.cost().crashes, first.crashes + second.crashes);
  EXPECT_EQ(m.cost().checkpoints, first.checkpoints + second.checkpoints);
  EXPECT_EQ(m.cost().checkpoint_steps,
            first.checkpoint_steps + second.checkpoint_steps);
  EXPECT_EQ(m.cost().recovery_steps,
            first.recovery_steps + second.recovery_steps);
  EXPECT_EQ(m.cost().reexec_phases,
            first.reexec_phases + second.reexec_phases);
}

}  // namespace
}  // namespace prodsort
