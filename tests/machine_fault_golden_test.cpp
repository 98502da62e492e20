// Golden fault behaviour of the compare-exchange engines: one pinned
// hash per fault configuration of the output keys, every CostModel field
// and every FaultCounters field after a full sort on cycle(4)^3.  Each
// Machine row runs without and with TMR voting; every row runs with no
// executor and with a 4-thread executor, which must agree.  Any change
// to a per-pair fault decision, to the comparator-fault rules (earliest
// schedule entry wins, lower endpoint wins) or to the cost charges moves
// a hash here.  FaultCounters::decisions is work accounting, not
// behaviour, so it stays out of the hash.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "core/block_sort.hpp"
#include "core/hashing.hpp"
#include "core/product_sort.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "network/block_machine.hpp"
#include "network/machine.hpp"
#include "network/parallel_executor.hpp"

namespace prodsort {
namespace {

using Kind = ComparatorFaultKind;

std::uint64_t fold(std::uint64_t h, std::int64_t v) {
  return mix64(h, static_cast<std::uint64_t>(v));
}

std::uint64_t hash_outcome(std::span<const Key> keys, const CostModel& c,
                           const FaultCounters& f, bool interrupted) {
  std::uint64_t h = 0;
  for (const Key k : keys) h = fold(h, k);
  for (const std::int64_t v :
       {c.s2_phases, c.routing_phases, c.exec_steps, c.comparisons,
        c.exchanges, c.retries, c.reroutes, c.degraded_phases,
        c.recovery_steps, c.crashes, c.reexec_phases, c.checkpoints,
        c.checkpoint_steps, c.rollbacks, c.remap_sorts, c.tmr_phases,
        c.tmr_masked, c.repair_passes, c.cert_steps, c.certificates,
        // Two retired service counters; their 0s keep the pins.
        std::int64_t{0}, std::int64_t{0}})
    h = fold(h, v);
  h = mix64(h, std::bit_cast<std::uint64_t>(c.formula_time));
  for (const std::int64_t v :
       {f.packet_drops, f.ce_drops, f.key_corruptions, f.straggler_phases,
        f.crashes, f.comparator_faults})
    h = fold(h, v);
  return fold(h, interrupted ? 1 : 0);
}

std::vector<Key> random_keys(std::size_t count, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(count);
  for (Key& k : keys) k = static_cast<Key>(rng() % 1000);
  return keys;
}

ComparatorFault window(PNode node, std::int64_t from, std::int64_t until,
                       Kind kind, int burst = 1) {
  return {.node = node, .from_phase = from, .until_phase = until,
          .kind = kind, .burst = burst};
}

struct Row {
  const char* name;
  std::optional<FaultConfig> config;  ///< nullopt: no model attached
  std::uint64_t plain_hash;           ///< TMR off
  std::uint64_t tmr_hash;             ///< TMR on
};

FaultConfig seeded(std::uint64_t seed) {
  FaultConfig c;
  c.seed = seed;
  return c;
}

std::vector<Row> machine_rows() {
  std::vector<Row> rows;
  rows.push_back({"plain", std::nullopt, 11745003483415179470ULL,
                  16928479760281311107ULL});
  FaultConfig ce = seeded(3);
  ce.ce_drop_rate = 1e-2;
  rows.push_back({"ce=1e-2", ce, 3599845568691920352ULL,
                  2241777551643663328ULL});
  FaultConfig corrupt = seeded(14);
  corrupt.key_corrupt_rate = 1e-3;
  rows.push_back({"corrupt=1e-3", corrupt, 1420528455053764994ULL,
                  15969036808713309475ULL});
  FaultConfig slow = seeded(5);
  slow.stragglers = 2;
  slow.straggler_factor = 4;
  rows.push_back({"stragglers=2x4", slow, 1723418102510433275ULL,
                  12317490704122386440ULL});
  FaultConfig stuck = seeded(6);
  stuck.comparator_schedule = {window(5, 2, 30, Kind::kStuckPassThrough)};
  rows.push_back({"stuck", stuck, 15763513689035241689ULL,
                  15001209549604416761ULL});
  FaultConfig inverted = seeded(7);
  inverted.comparator_schedule = {window(9, 0, 25, Kind::kInverted)};
  rows.push_back({"inverted", inverted, 9054370438967505692ULL,
                  7339459196210996681ULL});
  FaultConfig arbitrary = seeded(8);
  arbitrary.comparator_schedule = {window(17, 4, -1, Kind::kArbitrary)};
  rows.push_back({"arbitrary", arbitrary, 6513543116189069744ULL,
                  8858082263552877349ULL});
  // Phases 10..19 are covered by both entries: the first schedule entry
  // (inverted) wins even though the stuck window opens earlier.
  FaultConfig overlap = seeded(9);
  overlap.comparator_schedule = {window(6, 10, 40, Kind::kInverted),
                                 window(6, 2, 20, Kind::kStuckPassThrough)};
  rows.push_back({"overlap", overlap, 17461248300456509578ULL,
                  16798101186293539531ULL});
  // Nodes 0 and 1 are neighbours: pairs between them have two faulty
  // endpoints, and the lower one wins outside TMR.
  FaultConfig both = seeded(10);
  both.comparator_schedule = {window(1, 0, -1, Kind::kArbitrary),
                              window(0, 0, -1, Kind::kInverted)};
  rows.push_back({"both-endpoints", both, 11493780981325262485ULL,
                  11891327964919436003ULL});
  FaultConfig crash = seeded(11);
  crash.crash_schedule = {{.node = 10, .phase = 5, .permanent = false}};
  rows.push_back({"restartable-crash", crash, 17367747288671744681ULL,
                  10293979339616610015ULL});
  return rows;
}

std::uint64_t run_machine(const Row& row, bool tmr, ParallelExecutor* pool) {
  const ProductGraph pg(labeled_cycle(4), 3);
  Machine m(pg, random_keys(static_cast<std::size_t>(pg.num_nodes()), 21),
            pool);
  std::optional<FaultModel> fm;
  if (row.config) {
    fm.emplace(*row.config);
    fm->select_stragglers(pg.num_nodes());
    m.set_fault_model(&*fm);
  }
  m.set_tmr(tmr);
  const ShearsortS2 shearsort;
  SortOptions options;
  options.s2 = &shearsort;
  bool interrupted = false;
  try {
    (void)sort_product_network(m, options);
  } catch (const CrashInterrupt&) {
    interrupted = true;
  }
  return hash_outcome(m.keys(), m.cost(), fm ? fm->counters() : FaultCounters{},
                      interrupted);
}

TEST(MachineFaultGoldenTest, MachineRowsMatchPinnedHashes) {
  ParallelExecutor pool(4);
  for (const Row& row : machine_rows()) {
    for (const bool tmr : {false, true}) {
      const std::uint64_t want = tmr ? row.tmr_hash : row.plain_hash;
      const std::uint64_t serial = run_machine(row, tmr, nullptr);
      EXPECT_EQ(serial, want) << row.name << (tmr ? " tmr" : "");
      EXPECT_EQ(run_machine(row, tmr, &pool), serial)
          << row.name << (tmr ? " tmr" : "") << " 4 threads";
    }
  }
}

struct BlockRow {
  const char* name;
  ComparatorFault fault;
  std::uint64_t hash;
};

std::uint64_t run_block(const BlockRow& row, ParallelExecutor* pool) {
  constexpr int kBlock = 64;
  const ProductGraph pg(labeled_cycle(4), 3);
  BlockMachine m(pg,
                 random_keys(static_cast<std::size_t>(pg.num_nodes()) * kBlock,
                             22),
                 kBlock, pool);
  FaultConfig config = seeded(12);
  config.comparator_schedule = {row.fault};
  FaultModel fm(config);
  m.set_fault_model(&fm);
  const BlockShearsortS2 shearsort;
  BlockSortOptions options;
  options.s2 = &shearsort;
  (void)sort_block_network(m, options);
  return hash_outcome(m.keys(), m.cost(), fm.counters(), false);
}

TEST(MachineFaultGoldenTest, BlockRowsMatchPinnedHashes) {
  const BlockRow rows[] = {
      {"block-stuck", window(5, 2, 30, Kind::kStuckPassThrough),
       13799271248672054013ULL},
      {"block-inverted", window(9, 0, 25, Kind::kInverted),
       6466870025714237146ULL},
      {"block-arbitrary-x3", window(17, 4, -1, Kind::kArbitrary, 3),
       4989536385162774959ULL},
  };
  ParallelExecutor pool(4);
  for (const BlockRow& row : rows) {
    const std::uint64_t serial = run_block(row, nullptr);
    EXPECT_EQ(serial, row.hash) << row.name;
    EXPECT_EQ(run_block(row, &pool), serial) << row.name << " 4 threads";
  }
}

}  // namespace
}  // namespace prodsort
