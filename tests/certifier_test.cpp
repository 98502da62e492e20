// Mutation tests for the end-to-end sort certificate.
//
// A certificate that only catches obvious corruption is worse than
// none — it licenses skipping the full check.  These tests feed the
// Certifier the adversarial almost-sorted arrays a silent comparator
// fault actually produces: a single swapped adjacent pair, a
// duplicated key standing in for a lost one (sorted order intact —
// only the fingerprint can object), and off-by-one damage at every
// snake boundary.  They also pin the fingerprint values (they feed job
// records, report hashes and the journal), check the O(n) dirty window
// against a sorted-copy reference, and close the repair loop under
// injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/block_sort.hpp"
#include "core/certifier.hpp"
#include "core/product_sort.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "graph/labeled_factor.hpp"
#include "network/block_machine.hpp"
#include "network/parallel_executor.hpp"
#include "product/snake_order.hpp"
#include "product/subgraph_view.hpp"

namespace prodsort {
namespace {

std::vector<Key> iota_keys(int n) {
  std::vector<Key> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), Key{0});
  return keys;
}

std::vector<Key> random_keys(PNode count, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(static_cast<std::size_t>(count));
  for (Key& k : keys) k = static_cast<Key>(rng() % 100000);
  return keys;
}

// Literal checksums of the commutative combine, serial and on four
// threads.  They feed JobRecord::checksum, ServiceReport::hash() and
// the journal, so the combine must never drift.
TEST(Certifier, FingerprintMatchesPinnedChecksums) {
  const std::pair<int, std::uint64_t> pinned[] = {
      {0, 0xa7f72697a2731486ULL},
      {1, 0xa2205a805050dc6bULL},
      {2, 0xb6008f09e58f900bULL},
      {17, 0xedb5f2a05c26dbfaULL},
      {4097, 0xd1c408caf4195c73ULL},
  };
  std::mt19937_64 rng(11);
  ParallelExecutor exec(4);
  for (const auto& [n, checksum] : pinned) {
    std::vector<Key> keys(static_cast<std::size_t>(n));
    for (Key& k : keys) k = static_cast<Key>(rng() % 97);
    const MultisetFingerprint serial = fingerprint_sequence(keys);
    EXPECT_EQ(serial.checksum, checksum) << "n=" << n;
    EXPECT_EQ(serial.count, static_cast<std::uint64_t>(n));
    EXPECT_EQ(fingerprint_sequence(keys, &exec), serial) << "n=" << n;
  }
}

TEST(Certifier, AccumulatorStateMatchesPinnedWords) {
  FingerprintAccumulator acc;
  for (Key k = -8; k < 9; ++k) acc.absorb(k * 1000003);
  const FingerprintState state = acc.state();
  EXPECT_EQ(state.sum, 0xffc8ad06a05fe62aULL);
  EXPECT_EQ(state.xor_mix, 0x316d7b8b27ea720cULL);
  EXPECT_EQ(state.count, 17U);
  const FingerprintAccumulator restored =
      FingerprintAccumulator::from_state(state);
  EXPECT_EQ(restored.finalize().checksum, 0x6b21c3adb94631e6ULL);
  EXPECT_EQ(restored.finalize(), acc.finalize());
}

TEST(Certifier, FingerprintIsOrderIndependent) {
  std::vector<Key> keys = {5, 1, 4, 1, 9, 2, 6};
  const MultisetFingerprint original = fingerprint_sequence(keys);
  std::mt19937 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(keys.begin(), keys.end(), rng);
    EXPECT_EQ(fingerprint_sequence(keys), original);
  }
}

TEST(Certifier, FingerprintDetectsValueAndMultiplicityChanges) {
  const std::vector<Key> keys = {5, 1, 4, 1, 9};
  const std::uint64_t original = fingerprint_sequence(keys).checksum;
  std::vector<Key> flipped = keys;
  flipped[2] ^= 1;  // single bit flip
  EXPECT_NE(fingerprint_sequence(flipped).checksum, original);
  const std::vector<Key> duplicated = {5, 1, 4, 4, 9};
  EXPECT_NE(fingerprint_sequence(duplicated).checksum, original);
  const std::vector<Key> shorter = {5, 1, 4, 1};
  EXPECT_NE(fingerprint_sequence(shorter).checksum, original);
}

TEST(Certifier, PassesSortedPermutations) {
  const std::vector<Key> input = {5, 1, 4, 1, 5, 9, 2, 6};
  const Certifier certifier(input);
  std::vector<Key> sorted = input;
  std::sort(sorted.begin(), sorted.end());
  const EndToEndCertificate cert = certifier.certify(sorted);
  EXPECT_TRUE(cert.pass());
  EXPECT_TRUE(cert.sorted);
  EXPECT_EQ(cert.adjacency_violations, 0);
  EXPECT_EQ(cert.expected, cert.observed);
}

TEST(Certifier, PassesEmptyAndSingleton) {
  const std::vector<Key> empty;
  EXPECT_TRUE(Certifier(empty).certify(empty).pass());
  const std::vector<Key> one = {42};
  EXPECT_TRUE(Certifier(one).certify(one).pass());
}

// Every single swapped adjacent pair of distinct keys must be caught
// as wrong order, with the dirty window covering the swap.
TEST(Certifier, RejectsEverySwappedAdjacentPair) {
  const int n = 64;
  const std::vector<Key> sorted = iota_keys(n);
  const Certifier certifier(sorted);
  for (int i = 0; i + 1 < n; ++i) {
    std::vector<Key> seq = sorted;
    std::swap(seq[static_cast<std::size_t>(i)],
              seq[static_cast<std::size_t>(i) + 1]);
    const EndToEndCertificate cert = certifier.certify(seq);
    ASSERT_EQ(cert.verdict, CertVerdict::kWrongOrder) << "swap at " << i;
    EXPECT_FALSE(cert.sorted);
    EXPECT_EQ(cert.first_violation, i);
    EXPECT_LE(cert.dirty_lo, i);
    EXPECT_GE(cert.dirty_hi, i + 1);
  }
}

// A duplicated key replacing a lost one keeps the sequence sorted —
// the adversarial case only the multiset fingerprint can reject.
TEST(Certifier, RejectsDuplicatedKeyReplacingLostOne) {
  const int n = 64;
  const std::vector<Key> sorted = iota_keys(n);
  const Certifier certifier(sorted);
  for (int i = 0; i + 1 < n; ++i) {
    std::vector<Key> seq = sorted;
    seq[static_cast<std::size_t>(i)] = seq[static_cast<std::size_t>(i) + 1];
    const EndToEndCertificate cert = certifier.certify(seq);
    ASSERT_EQ(cert.verdict, CertVerdict::kKeysCorrupted) << "dup at " << i;
    EXPECT_TRUE(cert.sorted);  // order is fine; the *keys* are wrong
    EXPECT_NE(cert.observed.checksum, cert.expected.checksum);
  }
}

// Fingerprint mismatch outranks wrong order: when keys are corrupted
// AND misordered, the verdict must steer recovery away from futile
// in-place repair.
TEST(Certifier, KeysCorruptedOutranksWrongOrder) {
  const std::vector<Key> input = iota_keys(16);
  const Certifier certifier(input);
  std::vector<Key> seq = input;
  seq[3] = 999;  // corrupt a key...
  std::swap(seq[8], seq[9]);  // ...and break the order elsewhere
  EXPECT_EQ(certifier.certify(seq).verdict, CertVerdict::kKeysCorrupted);
}

// Off-by-one damage at every snake boundary of a product machine, both
// flavors: a boundary-crossing swap (wrong order) and a +-1 key edit
// (corrupted multiset) — the ranks where shearsort/snake-OET hand off
// between rows and historical off-by-one bugs like to live.
TEST(Certifier, RejectsOffByOneAtEverySnakeBoundary) {
  const ProductGraph pg(labeled_path(4), 2);  // 16 nodes, rows of 4
  const PNode n = pg.num_nodes();
  const std::vector<Key> sorted = iota_keys(static_cast<int>(n));
  const Certifier certifier(sorted);
  const ViewSpec view = full_view(pg);

  for (PNode boundary = 4; boundary < n; boundary += 4) {
    // Boundary-crossing swap: last key of one row / first of the next.
    std::vector<Key> keys(static_cast<std::size_t>(n));
    for (PNode rank = 0; rank < n; ++rank)
      keys[static_cast<std::size_t>(node_at_snake_rank(pg, rank))] =
          sorted[static_cast<std::size_t>(rank)];
    std::swap(keys[static_cast<std::size_t>(node_at_snake_rank(
                  pg, boundary - 1))],
              keys[static_cast<std::size_t>(node_at_snake_rank(pg, boundary))]);
    Machine machine(pg, keys);
    const EndToEndCertificate cert = certifier.certify(machine, view);
    ASSERT_EQ(cert.verdict, CertVerdict::kWrongOrder)
        << "boundary " << boundary;
    EXPECT_EQ(cert.first_violation, boundary - 1);

    // Off-by-one key edit at the boundary: still sorted (non-strict),
    // but the multiset lost one key and duplicated another.
    std::vector<Key> edited = sorted;
    edited[static_cast<std::size_t>(boundary)] -= 1;
    const EndToEndCertificate edit_cert = certifier.certify(edited);
    ASSERT_EQ(edit_cert.verdict, CertVerdict::kKeysCorrupted)
        << "boundary " << boundary;
  }
}

TEST(Certifier, CertifiesSortedMachine) {
  const ProductGraph pg(labeled_path(4), 3);
  const std::vector<Key> keys = random_keys(pg.num_nodes(), 1);
  Machine m(pg, keys);
  (void)sort_product_network(m);
  const EndToEndCertificate cert = Certifier(keys).certify(m, full_view(pg));
  EXPECT_TRUE(cert.pass());
  EXPECT_EQ(cert.first_violation, -1);
  EXPECT_EQ(cert.observed, fingerprint_sequence(keys));  // multiset preserved
}

TEST(Certifier, CertificateLocatesDirtyWindow) {
  const ProductGraph pg(labeled_path(4), 2);
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  for (PNode rank = 0; rank < pg.num_nodes(); ++rank)
    keys[static_cast<std::size_t>(node_at_snake_rank(pg, rank))] =
        static_cast<Key>(rank);
  // Swap the keys at snake ranks 5 and 9: dirty window [5, 9].
  std::swap(keys[static_cast<std::size_t>(node_at_snake_rank(pg, 5))],
            keys[static_cast<std::size_t>(node_at_snake_rank(pg, 9))]);
  const Machine m(pg, keys);
  const EndToEndCertificate cert = Certifier(keys).certify(m, full_view(pg));
  EXPECT_EQ(cert.verdict, CertVerdict::kWrongOrder);
  EXPECT_EQ(cert.dirty_lo, 5);
  EXPECT_EQ(cert.dirty_hi, 9);
  EXPECT_EQ(cert.first_violation, 5);
}

// --- the O(n) dirty window against a sorted-copy reference -------------

/// Reference: the first and last ranks where `seq` differs from its own
/// sorted copy ({-1, -1} when sorted).
std::pair<PNode, PNode> sorted_copy_window(const std::vector<Key>& seq) {
  std::vector<Key> sorted = seq;
  std::sort(sorted.begin(), sorted.end());
  PNode lo = -1;
  PNode hi = -1;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i] != sorted[i]) {
      if (lo < 0) lo = static_cast<PNode>(i);
      hi = static_cast<PNode>(i);
    }
  }
  return {lo, hi};
}

/// The full certificate and a low-coverage sampled one must both report
/// the reference window whenever they see the sequence as unsorted.
void expect_reference_window(const std::vector<Key>& seq,
                             const std::string& what) {
  const auto [lo, hi] = sorted_copy_window(seq);
  const Certifier certifier(seq);
  const EndToEndCertificate full = certifier.certify(seq);
  ASSERT_EQ(full.sorted, lo < 0) << what;
  if (lo >= 0) {
    EXPECT_EQ(full.dirty_lo, lo) << what;
    EXPECT_EQ(full.dirty_hi, hi) << what;
  }
  const EndToEndCertificate spot = certifier.certify_sampled(
      seq, {.level = CertLevel::kSpot, .coverage = 0.1, .sample_seed = 7});
  if (!spot.sorted) {
    EXPECT_EQ(spot.dirty_lo, lo) << what << " (sampled)";
    EXPECT_EQ(spot.dirty_hi, hi) << what << " (sampled)";
  }
}

TEST(DirtyWindow, MatchesSortedCopyOnRegionsGenerators) {
  constexpr int kCutoff = 8;
  for (int c = 0; c <= 10; ++c) {
    // Few distinct keys at a size just past a power of two.
    const std::size_t ucnt = static_cast<std::size_t>(c * c) + 13;
    std::vector<Key> few((std::size_t{1} << c) + ucnt);
    for (std::size_t i = 0; i < few.size(); ++i)
      few[i] = static_cast<Key>((i + 13) % ucnt);
    expect_reference_window(few, "(i+13)%ucnt c=" + std::to_string(c));

    // Descending runs of the quicksort cutoff length.
    std::vector<Key> saw((std::size_t{1} << c) - 1);
    for (std::size_t i = 0; i < saw.size(); ++i)
      saw[i] = static_cast<Key>(kCutoff * (i / kCutoff)) -
               static_cast<Key>(i % kCutoff);
    expect_reference_window(saw, "cutoff sawtooth c=" + std::to_string(c));

    // Organ pipe, both ways up.
    const auto n = static_cast<Key>(few.size());
    std::vector<Key> pipe(few.size());
    for (Key i = 0; i < n; ++i)
      pipe[static_cast<std::size_t>(i)] = std::min(i, n - 1 - i);
    expect_reference_window(pipe, "organ pipe c=" + std::to_string(c));
    for (Key& k : pipe) k = -k;
    expect_reference_window(pipe, "inverted pipe c=" + std::to_string(c));
  }
  // Descending halves around a zero pivot.
  const int hcnt = kCutoff + 1;
  std::vector<Key> halves;
  for (int i = 0; i < hcnt; ++i) halves.push_back(-(i + 1));
  halves.push_back(0);
  for (int i = 0; i < hcnt; ++i) halves.push_back(hcnt - i + 1);
  expect_reference_window(halves, "descending halves");
}

TEST(DirtyWindow, MatchesSortedCopyOnNearlySortedInputs) {
  std::mt19937_64 rng(17);
  for (const int n : {0, 1, 2, 3, 16, 257}) {
    std::vector<Key> sorted = iota_keys(n);
    expect_reference_window(sorted, "sorted n=" + std::to_string(n));
    expect_reference_window(std::vector<Key>(static_cast<std::size_t>(n), 4),
                            "all equal n=" + std::to_string(n));
    std::vector<Key> reversed(sorted.rbegin(), sorted.rend());
    expect_reference_window(reversed, "reversed n=" + std::to_string(n));
    if (n < 2) continue;
    for (int trial = 0; trial < 200; ++trial) {
      // 1-3 random swaps over keys with duplicates.
      std::vector<Key> seq(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        seq[static_cast<std::size_t>(i)] = i / 3;
      const int swaps = 1 + trial % 3;
      for (int s = 0; s < swaps; ++s)
        std::swap(seq[rng() % seq.size()], seq[rng() % seq.size()]);
      expect_reference_window(seq, "swaps n=" + std::to_string(n) +
                                       " trial=" + std::to_string(trial));
    }
  }
}

TEST(DirtyWindow, MatchesSortedCopyOnFaultedMachineOutputs) {
  const ProductGraph pg(labeled_path(4), 3);  // 64 nodes
  const ViewSpec view = full_view(pg);
  const SnakeOETS2 oet;
  SortOptions options;
  options.s2 = &oet;
  const BlockSnakeOETS2 block_oet;
  BlockSortOptions block_options;
  block_options.s2 = &block_oet;
  constexpr int kBlock = 4;
  const ComparatorFaultKind kinds[] = {ComparatorFaultKind::kStuckPassThrough,
                                       ComparatorFaultKind::kInverted,
                                       ComparatorFaultKind::kArbitrary};
  std::mt19937_64 rng(23);
  int unsorted = 0;
  for (const ComparatorFaultKind kind : kinds) {
    for (unsigned seed = 1; seed <= 12; ++seed) {
      FaultConfig config;
      config.seed = seed;
      const int faults = 1 + static_cast<int>(seed % 3);
      for (int f = 0; f < faults; ++f) {
        const auto from = static_cast<std::int64_t>(rng() % 30);
        config.comparator_schedule.push_back(
            {.node = static_cast<PNode>(rng() % 64),
             .from_phase = from,
             .until_phase = from + 1 + static_cast<std::int64_t>(rng() % 12),
             .kind = kind});
      }
      const std::string what = FaultModel(config).schedule_string();

      FaultModel unit_faults(config);
      Machine m(pg, random_keys(pg.num_nodes(), seed));
      m.set_fault_model(&unit_faults);
      (void)sort_product_network(m, options);
      const std::vector<Key> unit_out = m.read_snake(view);
      unsorted += !std::is_sorted(unit_out.begin(), unit_out.end());
      expect_reference_window(unit_out, "machine " + what);

      FaultModel block_faults(config);
      BlockMachine bm(pg, random_keys(pg.num_nodes() * kBlock, seed), kBlock);
      bm.set_fault_model(&block_faults);
      (void)sort_block_network(bm, block_options);
      const std::vector<Key> block_out = bm.read_snake(view);
      unsorted += !std::is_sorted(block_out.begin(), block_out.end());
      expect_reference_window(block_out, "block machine " + what);
    }
  }
  EXPECT_GT(unsorted, 0);  // the faults did damage some outputs
}

TEST(CertifyAndRepair, PassesOnEntryWithoutSpendingPasses) {
  const ProductGraph pg(labeled_path(4), 2);
  const PNode n = pg.num_nodes();
  std::vector<Key> keys(static_cast<std::size_t>(n));
  for (PNode rank = 0; rank < n; ++rank)
    keys[static_cast<std::size_t>(node_at_snake_rank(pg, rank))] =
        static_cast<Key>(rank);
  Machine machine(pg, keys);
  const Certifier certifier(keys);
  const RepairReport report =
      certify_and_repair(machine, full_view(pg), certifier);
  EXPECT_EQ(report.outcome, RepairOutcome::kCertified);
  EXPECT_EQ(report.passes, 0);
  EXPECT_EQ(machine.cost().repair_passes, 0);
}

// A machine sorted by the algorithm itself certifies on entry: no repair
// pass runs and no recovery step is charged.
TEST(CertifyAndRepair, CleanMachineNeedsNoRecovery) {
  const ProductGraph pg(labeled_path(4), 2);
  const std::vector<Key> keys = random_keys(pg.num_nodes(), 2);
  Machine m(pg, keys);
  (void)sort_product_network(m);
  const RepairReport report =
      certify_and_repair(m, full_view(pg), Certifier(keys));
  EXPECT_EQ(report.outcome, RepairOutcome::kCertified);
  EXPECT_TRUE(report.before.pass());
  EXPECT_EQ(report.passes, 0);
  EXPECT_EQ(report.repair_steps, 0);
  EXPECT_EQ(m.cost().recovery_steps, 0);
}

TEST(CertifyAndRepair, RepairsShuffledWindowWithinBudget) {
  const ProductGraph pg(labeled_path(4), 2);
  const PNode n = pg.num_nodes();
  std::vector<Key> snake = iota_keys(static_cast<int>(n));
  std::reverse(snake.begin() + 5, snake.begin() + 10);  // dirty window [5,9]
  std::vector<Key> keys(static_cast<std::size_t>(n));
  for (PNode rank = 0; rank < n; ++rank)
    keys[static_cast<std::size_t>(node_at_snake_rank(pg, rank))] =
        snake[static_cast<std::size_t>(rank)];
  Machine machine(pg, keys);
  const Certifier certifier(snake);

  const RepairReport report =
      certify_and_repair(machine, full_view(pg), certifier);
  EXPECT_EQ(report.outcome, RepairOutcome::kRepaired);
  EXPECT_EQ(report.before.verdict, CertVerdict::kWrongOrder);
  EXPECT_TRUE(report.after.pass());
  // A dirty window of width w sorts in at most w alternating passes.
  EXPECT_GT(report.passes, 0);
  EXPECT_LE(report.passes, 7);
  EXPECT_GT(report.repair_steps, 0);
  EXPECT_EQ(machine.cost().repair_passes, report.passes);
  EXPECT_EQ(machine.read_snake(full_view(pg)), iota_keys(static_cast<int>(n)));
}

TEST(CertifyAndRepair, RefusesCorruptedKeys) {
  const ProductGraph pg(labeled_path(4), 2);
  const PNode n = pg.num_nodes();
  std::vector<Key> keys(static_cast<std::size_t>(n), Key{7});  // all equal
  Machine machine(pg, keys);
  std::vector<Key> other = keys;
  other[0] = 8;  // expected multiset differs from the machine's
  const Certifier certifier(other);
  const RepairReport report =
      certify_and_repair(machine, full_view(pg), certifier);
  EXPECT_EQ(report.outcome, RepairOutcome::kKeysCorrupted);
  EXPECT_EQ(report.passes, 0);
}

TEST(CertifyAndRepair, ReportsBudgetExhaustion) {
  const ProductGraph pg(labeled_path(4), 2);
  const PNode n = pg.num_nodes();
  std::vector<Key> snake = iota_keys(static_cast<int>(n));
  std::reverse(snake.begin(), snake.end());  // maximally dirty
  std::vector<Key> keys(static_cast<std::size_t>(n));
  for (PNode rank = 0; rank < n; ++rank)
    keys[static_cast<std::size_t>(node_at_snake_rank(pg, rank))] =
        snake[static_cast<std::size_t>(rank)];
  Machine machine(pg, keys);
  const Certifier certifier(snake);
  RepairOptions options;
  options.max_passes = 1;
  const RepairReport report =
      certify_and_repair(machine, full_view(pg), certifier, options);
  EXPECT_EQ(report.outcome, RepairOutcome::kBudgetExhausted);
  EXPECT_EQ(report.passes, 1);
  EXPECT_FALSE(report.after.pass());
}

// A bit-flipped key changes the multiset: repair must refuse at once.
TEST(CertifyAndRepair, RefusesBitFlippedKey) {
  const ProductGraph pg(labeled_path(4), 2);
  const std::vector<Key> input = random_keys(pg.num_nodes(), 8);
  Machine m(pg, input);
  (void)sort_product_network(m);
  m.mutable_keys()[5] ^= Key{1} << 20;
  const RepairReport report =
      certify_and_repair(m, full_view(pg), Certifier(input));
  EXPECT_EQ(report.outcome, RepairOutcome::kKeysCorrupted);
  EXPECT_EQ(report.passes, 0);  // no point re-sorting lost data
}

TEST(CertifyAndRepair, RecoversFromOrderCorruption) {
  const ProductGraph pg(labeled_path(4), 3);
  const std::vector<Key> input = random_keys(pg.num_nodes(), 7);
  Machine m(pg, input);
  (void)sort_product_network(m);
  // Swap keys at distant ranks of the sorted machine, as lost
  // compare-exchange messages would.
  auto keys = m.mutable_keys();
  for (const auto& [a, b] : {std::pair<PNode, PNode>{3, 17},
                             std::pair<PNode, PNode>{20, 41}})
    std::swap(keys[static_cast<std::size_t>(node_at_snake_rank(pg, a))],
              keys[static_cast<std::size_t>(node_at_snake_rank(pg, b))]);

  const RepairReport report =
      certify_and_repair(m, full_view(pg), Certifier(input),
                         {.max_passes = static_cast<int>(pg.num_nodes()) + 4});
  EXPECT_EQ(report.outcome, RepairOutcome::kRepaired);
  EXPECT_EQ(report.before.dirty_lo, 3);
  EXPECT_EQ(report.before.dirty_hi, 41);
  EXPECT_GT(report.repair_steps, 0);
  EXPECT_EQ(m.cost().recovery_steps, report.repair_steps);
  std::vector<Key> expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(m.read_snake(full_view(pg)), expected);
}

TEST(CertifyAndRepair, EndToEndRecoveryUnderInjectedFaults) {
  // The fault soak in miniature: executable sorter, lost
  // compare-exchange messages at 1e-2, one straggler — sort, certify,
  // repair, and demand a perfectly sorted result.
  const ProductGraph pg(labeled_path(4), 3);
  const SnakeOETS2 oet;
  SortOptions options;
  options.s2 = &oet;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const std::vector<Key> input = random_keys(pg.num_nodes(), 100 + seed);
    FaultConfig config;
    config.seed = seed;
    config.ce_drop_rate = 1e-2;
    config.stragglers = 1;
    config.straggler_factor = 4;
    FaultModel fm(config);
    fm.select_stragglers(pg.num_nodes());
    Machine m(pg, input);
    m.set_fault_model(&fm);
    (void)sort_product_network(m, options);

    const RepairReport report = certify_and_repair(
        m, full_view(pg), Certifier(input),
        {.max_passes = static_cast<int>(pg.num_nodes()) + 4});
    EXPECT_TRUE(report.outcome == RepairOutcome::kCertified ||
                report.outcome == RepairOutcome::kRepaired)
        << "seed " << seed << ": " << to_string(report.outcome);
    std::vector<Key> expected = input;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(m.read_snake(full_view(pg)), expected) << "seed " << seed;
  }
}

TEST(CertifyAndRepair, OutcomeNamesAreStable) {
  EXPECT_EQ(to_string(RepairOutcome::kCertified), "certified");
  EXPECT_EQ(to_string(RepairOutcome::kRepaired), "repaired");
  EXPECT_EQ(to_string(RepairOutcome::kKeysCorrupted), "keys-corrupted");
  EXPECT_EQ(to_string(RepairOutcome::kBudgetExhausted), "budget-exhausted");
}

}  // namespace
}  // namespace prodsort
