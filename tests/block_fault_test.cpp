// Block-mode comparator faults and block-granular certify-and-repair.
//
// BlockMachine now honors the same comparator_schedule as the
// single-key Machine, at merge-split granularity: stuck skips the
// merge-split, inverted hands the low side the larger half (multiset
// preserved, blocks internally ascending), arbitrary runs the correct
// merge-split then decays a burst of the faulty node's keys to seeded
// garbage.  These tests pin those semantics, the zero-fault
// no-perturbation guarantee, determinism across executor thread
// counts, and the block-window repair path that closes the loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/block_sort.hpp"
#include "core/certifier.hpp"
#include "graph/labeled_factor.hpp"
#include "network/block_machine.hpp"
#include "network/fault_model.hpp"
#include "network/parallel_executor.hpp"
#include "product/snake_order.hpp"
#include "product/subgraph_view.hpp"

namespace prodsort {
namespace {

constexpr int kBlock = 4;

// Keys laid out so node at snake rank r holds block [r*b, r*b+b) —
// already sorted along the snake.
std::vector<Key> sorted_layout(const ProductGraph& pg) {
  const PNode n = pg.num_nodes();
  std::vector<Key> keys(static_cast<std::size_t>(n) * kBlock);
  for (PNode rank = 0; rank < n; ++rank) {
    const PNode node = node_at_snake_rank(pg, rank);
    for (int j = 0; j < kBlock; ++j)
      keys[static_cast<std::size_t>(node) * kBlock +
           static_cast<std::size_t>(j)] =
          static_cast<Key>(rank * kBlock + j);
  }
  return keys;
}

std::vector<Key> reversed_layout(const ProductGraph& pg) {
  const PNode n = pg.num_nodes();
  std::vector<Key> keys = sorted_layout(pg);
  // Reverse block-to-block order but keep each block ascending.
  std::vector<Key> out(keys.size());
  for (PNode rank = 0; rank < n; ++rank) {
    const PNode node = node_at_snake_rank(pg, rank);
    const PNode mirror = node_at_snake_rank(pg, n - 1 - rank);
    for (int j = 0; j < kBlock; ++j)
      out[static_cast<std::size_t>(node) * kBlock +
          static_cast<std::size_t>(j)] =
          keys[static_cast<std::size_t>(mirror) * kBlock +
               static_cast<std::size_t>(j)];
  }
  return out;
}

std::vector<Key> block_sort_under(const ProductGraph& pg,
                                  const std::vector<Key>& keys,
                                  FaultModel* fm, int threads = 1) {
  ParallelExecutor exec(threads);
  BlockMachine machine(pg, keys, kBlock, &exec);
  if (fm != nullptr) {
    fm->reset();
    machine.set_fault_model(fm);
  }
  static const BlockSnakeOETS2 oet;
  BlockSortOptions options;
  options.s2 = &oet;
  (void)sort_block_network(machine, options);
  return machine.read_snake(full_view(pg));
}

TEST(BlockFaults, AttachedZeroFaultModelIsIdentity) {
  const ProductGraph pg(labeled_path(4), 2);
  const std::vector<Key> keys = reversed_layout(pg);
  FaultConfig tick;  // all rates zero
  FaultModel clock(tick);
  EXPECT_EQ(block_sort_under(pg, keys, &clock),
            block_sort_under(pg, keys, nullptr));
}

// Persistent faults across the pool: every corruption the faulty sort
// produces must be caught by the full certificate — the certificate's
// verdict and ground truth may never disagree, and stuck/inverted
// faults must preserve the key multiset (the repairable class).
TEST(BlockFaults, CertificateAgreesWithGroundTruthForEveryKind) {
  const ProductGraph pg(labeled_path(4), 2);
  const std::vector<Key> keys = reversed_layout(pg);
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  const Certifier certifier(keys);

  long corrupted_runs = 0;
  for (const char* schedule :
       {"comparators=3@0S", "comparators=3@0I", "comparators=3@0~4I",
        "comparators=5@1S+11@2~6I"}) {
    FaultModel fm(FaultModel::parse_schedule_string(schedule));
    const std::vector<Key> got = block_sort_under(pg, keys, &fm);
    const bool corrupted = got != expected;
    corrupted_runs += corrupted;
    const EndToEndCertificate cert = certifier.certify(got);
    ASSERT_EQ(cert.pass(), !corrupted) << schedule;
    if (corrupted) {
      // Stuck and inverted only misplace whole blocks: multiset intact.
      EXPECT_EQ(cert.verdict, CertVerdict::kWrongOrder) << schedule;
      EXPECT_EQ(fingerprint_sequence(got), fingerprint_sequence(expected));
    }
  }
  // The sweep is vacuous if no schedule actually corrupted the sort.
  EXPECT_GT(corrupted_runs, 0);
}

TEST(BlockFaults, InvertedKeepsBlocksInternallyAscending) {
  const ProductGraph pg(labeled_path(4), 2);
  FaultModel fm(FaultModel::parse_schedule_string("comparators=3@0I"));
  ParallelExecutor exec(1);
  BlockMachine machine(pg, reversed_layout(pg), kBlock, &exec);
  machine.set_fault_model(&fm);
  static const BlockSnakeOETS2 oet;
  BlockSortOptions options;
  options.s2 = &oet;
  (void)sort_block_network(machine, options);
  for (PNode v = 0; v < pg.num_nodes(); ++v) {
    const auto blk = machine.block(v);
    EXPECT_TRUE(std::is_sorted(blk.begin(), blk.end())) << "node " << v;
  }
  EXPECT_GT(fm.counters().comparator_faults, 0);
}

// An arbitrary-output fault decays at most min(burst, b) keys of the
// faulty node's block per merge-split, and the block is re-sorted in
// place — the node's local sort works, only its comparator is broken.
TEST(BlockFaults, ArbitraryBurstBoundsTheDamage) {
  const ProductGraph pg(labeled_path(4), 2);
  for (const auto& [schedule, burst] :
       {std::pair<const char*, int>{"comparators=0@0A", 1},
        std::pair<const char*, int>{"comparators=0@0Ax3", 3},
        std::pair<const char*, int>{"comparators=0@0Ax99", kBlock}}) {
    FaultModel fm(FaultModel::parse_schedule_string(schedule));
    BlockMachine machine(pg, sorted_layout(pg), kBlock);
    machine.set_fault_model(&fm);

    // One merge-split of the two lowest-ranked blocks; node 0 is the
    // low endpoint and the faulty one.
    const PNode lo = node_at_snake_rank(pg, 0);
    const PNode hi = node_at_snake_rank(pg, 1);
    ASSERT_EQ(lo, 0);
    const std::vector<Key> correct(machine.block(lo).begin(),
                                   machine.block(lo).end());
    machine.merge_split_step(std::vector<CEPair>{{lo, hi}}, 1);

    const auto blk = machine.block(lo);
    EXPECT_TRUE(std::is_sorted(blk.begin(), blk.end()));
    // Multiset distance from the correct block is at most the burst.
    std::vector<Key> got(blk.begin(), blk.end());
    std::vector<Key> kept;
    std::set_intersection(got.begin(), got.end(), correct.begin(),
                          correct.end(), std::back_inserter(kept));
    EXPECT_GE(static_cast<int>(kept.size()),
              kBlock - burst)
        << schedule;
    EXPECT_EQ(fm.counters().comparator_faults, 1);
  }
}

TEST(BlockFaults, DeterministicAcrossThreadCounts) {
  const ProductGraph pg(labeled_path(4), 2);
  const std::vector<Key> keys = reversed_layout(pg);
  FaultModel fm1(FaultModel::parse_schedule_string("comparators=3@0I+7@1Ax2"));
  FaultModel fm4(FaultModel::parse_schedule_string("comparators=3@0I+7@1Ax2"));
  EXPECT_EQ(block_sort_under(pg, keys, &fm1, 1),
            block_sort_under(pg, keys, &fm4, 4));
}

TEST(BlockRepair, PassesOnEntryWithoutSpendingPasses) {
  const ProductGraph pg(labeled_path(4), 2);
  BlockMachine machine(pg, sorted_layout(pg), kBlock);
  const Certifier certifier(machine.read_snake(full_view(pg)));
  const RepairReport report =
      block_certify_and_repair(machine, full_view(pg), certifier);
  EXPECT_EQ(report.outcome, RepairOutcome::kCertified);
  EXPECT_EQ(report.passes, 0);
  EXPECT_EQ(report.repair_steps, 0);
}

TEST(BlockRepair, RepairsSwappedBlockWindowWithinBudget) {
  const ProductGraph pg(labeled_path(4), 2);
  std::vector<Key> keys = sorted_layout(pg);
  // Swap the blocks at snake ranks 5 and 8: a 4-block dirty window.
  const PNode a = node_at_snake_rank(pg, 5);
  const PNode b = node_at_snake_rank(pg, 8);
  for (int j = 0; j < kBlock; ++j)
    std::swap(keys[static_cast<std::size_t>(a) * kBlock +
                   static_cast<std::size_t>(j)],
              keys[static_cast<std::size_t>(b) * kBlock +
                   static_cast<std::size_t>(j)]);
  BlockMachine machine(pg, keys, kBlock);
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  const Certifier certifier(expected);

  const RepairReport report =
      block_certify_and_repair(machine, full_view(pg), certifier);
  EXPECT_EQ(report.outcome, RepairOutcome::kRepaired);
  EXPECT_EQ(report.before.verdict, CertVerdict::kWrongOrder);
  EXPECT_TRUE(report.after.pass());
  EXPECT_GT(report.passes, 0);
  // The agglomerated block window spans ranks [4, 9]; alternating
  // merge-split passes sort a w-block window within 2w passes.
  EXPECT_LE(report.passes, 12);
  // The covering block window, +-1 block, holds both swapped blocks.
  EXPECT_LE(report.before.dirty_lo / kBlock - 1, 5);
  EXPECT_GE(report.before.dirty_hi / kBlock + 1, 8);
  EXPECT_GT(report.repair_steps, 0);
  EXPECT_EQ(machine.read_snake(full_view(pg)), expected);
  EXPECT_EQ(machine.cost().recovery_steps, report.repair_steps);
}

// A mid-block garbage hit leaves one block internally unsorted; the
// repair loop must re-sort it locally before merge-splitting, but a
// corrupted multiset is still a hard refusal.
TEST(BlockRepair, ResortsUnsortedBlockButRefusesCorruptedKeys) {
  const ProductGraph pg(labeled_path(4), 2);
  std::vector<Key> keys = sorted_layout(pg);
  const PNode victim = node_at_snake_rank(pg, 3);
  // In-place shuffle of one block: multiset intact, order broken both
  // inside the block and against its snake neighbors.
  std::swap(keys[static_cast<std::size_t>(victim) * kBlock],
            keys[static_cast<std::size_t>(victim) * kBlock + 3]);
  {
    BlockMachine machine(pg, keys, kBlock);
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    const Certifier certifier(expected);
    const RepairReport report =
        block_certify_and_repair(machine, full_view(pg), certifier);
    EXPECT_EQ(report.outcome, RepairOutcome::kRepaired);
    EXPECT_EQ(machine.read_snake(full_view(pg)), expected);
  }
  // Now corrupt a key: repair must refuse, not thrash.
  keys[static_cast<std::size_t>(victim) * kBlock] = 999999;
  BlockMachine machine(pg, keys, kBlock);
  const Certifier certifier(sorted_layout(pg));  // expects original keys
  const RepairReport report =
      block_certify_and_repair(machine, full_view(pg), certifier);
  EXPECT_EQ(report.outcome, RepairOutcome::kKeysCorrupted);
  EXPECT_EQ(report.passes, 0);
}

// End to end: a transient inverted window corrupts a block sort, the
// full certificate catches it, and block repair restores the exact
// sorted snake — the closure the service's block jobs rely on.
TEST(BlockRepair, ClosesTheLoopAfterTransientFault) {
  const ProductGraph pg(labeled_path(4), 2);
  const std::vector<Key> keys = reversed_layout(pg);
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());

  FaultModel fm(FaultModel::parse_schedule_string("comparators=3@0~5I"));
  ParallelExecutor exec(2);
  BlockMachine machine(pg, keys, kBlock, &exec);
  machine.set_fault_model(&fm);
  static const BlockSnakeOETS2 oet;
  BlockSortOptions options;
  options.s2 = &oet;
  (void)sort_block_network(machine, options);

  const Certifier certifier(keys, &exec);
  RepairOptions repair_options;
  repair_options.max_passes = 4 * static_cast<int>(pg.num_nodes());
  const RepairReport report =
      block_certify_and_repair(machine, full_view(pg), certifier,
                               repair_options);
  ASSERT_TRUE(report.outcome == RepairOutcome::kCertified ||
              report.outcome == RepairOutcome::kRepaired);
  EXPECT_EQ(machine.read_snake(full_view(pg)), expected);
}

}  // namespace
}  // namespace prodsort
