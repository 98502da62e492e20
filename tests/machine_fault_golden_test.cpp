// Golden fault behaviour of the compare-exchange engines: one pinned
// hash per fault configuration of the output keys, every CostModel field
// and every FaultCounters field after a full sort on cycle(4)^3.  Each
// Machine row runs without and with TMR voting; every row runs with no
// executor and with a 4-thread executor, which must agree.  Any change
// to a per-pair fault decision, to the comparator-fault rules (earliest
// schedule entry wins, lower endpoint wins) or to the cost charges moves
// a hash here.  FaultCounters::decisions is work accounting, not
// behaviour, so it stays out of the hash; one TMR row pins it on its
// own, so every replica's coin stays hashed.  Further rows sort keys
// full of ties and keys at the ends of Key's range.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string_view>
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

/// Keys drawn from {0, 1, 2}: most pairs tie.
std::vector<Key> tie_keys(std::size_t count, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(count);
  for (Key& k : keys) k = static_cast<Key>(rng() % 3);
  return keys;
}

/// Keys drawn from both ends of Key's range and around zero.
std::vector<Key> extreme_keys(std::size_t count, unsigned seed) {
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  constexpr std::array<Key, 7> kPool = {kMin, kMin + 1, -1, 0, 1, kMax - 1,
                                        kMax};
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(count);
  for (Key& k : keys) k = kPool[rng() % kPool.size()];
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

/// The plain, drop-coin and three comparator-fault rows of
/// machine_rows(), re-pinned for other keys: `pins` holds their
/// {plain, TMR} hashes in that order.
std::vector<Row> edge_rows(
    const std::array<std::array<std::uint64_t, 2>, 5>& pins) {
  constexpr std::array<std::string_view, 5> kNames = {
      "plain", "ce=1e-2", "stuck", "inverted", "arbitrary"};
  const std::vector<Row> all = machine_rows();
  std::vector<Row> rows;
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    Row row = *std::find_if(all.begin(), all.end(), [&](const Row& r) {
      return r.name == kNames[i];
    });
    row.plain_hash = pins[i][0];
    row.tmr_hash = pins[i][1];
    rows.push_back(row);
  }
  return rows;
}

struct Outcome {
  std::uint64_t hash = 0;
  std::int64_t exchanges = 0;
  std::int64_t decisions = 0;
};

constexpr std::size_t kNodes = 64;  // cycle(4)^3

Outcome run_machine(const Row& row, bool tmr, ParallelExecutor* pool,
                    std::vector<Key> keys) {
  const ProductGraph pg(labeled_cycle(4), 3);
  Machine m(pg, std::move(keys), pool);
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
  const FaultCounters counters = fm ? fm->counters() : FaultCounters{};
  return {hash_outcome(m.keys(), m.cost(), counters, interrupted),
          m.cost().exchanges, counters.decisions};
}

/// Runs every row with and without TMR on `keys`, serially and on 4
/// threads, against its pins.
void expect_rows(const std::vector<Row>& rows, const std::vector<Key>& keys,
                 const char* set) {
  ParallelExecutor pool(4);
  for (const Row& row : rows) {
    for (const bool tmr : {false, true}) {
      const std::uint64_t want = tmr ? row.tmr_hash : row.plain_hash;
      const std::uint64_t serial = run_machine(row, tmr, nullptr, keys).hash;
      EXPECT_EQ(serial, want)
          << set << " " << row.name << (tmr ? " tmr" : "");
      EXPECT_EQ(run_machine(row, tmr, &pool, keys).hash, serial)
          << set << " " << row.name << (tmr ? " tmr" : "") << " 4 threads";
    }
  }
}

TEST(MachineFaultGoldenTest, MachineRowsMatchPinnedHashes) {
  expect_rows(machine_rows(), random_keys(kNodes, 21), "random");
}

TEST(MachineFaultGoldenTest, TieRowsMatchPinnedHashes) {
  expect_rows(
      edge_rows({{{6677201555234003232ULL, 13989810681777318953ULL},
                  {2983737922154210466ULL, 143239282092766258ULL},
                  {11291074485196904482ULL, 8278661817786861449ULL},
                  {3661199240726746023ULL, 13267578155101197221ULL},
                  {8722551925455339311ULL, 12083922176817604396ULL}}}),
      tie_keys(kNodes, 23), "ties");
}

TEST(MachineFaultGoldenTest, ExtremeKeyRowsMatchPinnedHashes) {
  expect_rows(
      edge_rows({{{6067110545437764718ULL, 17194841128961486156ULL},
                  {14045858112156503380ULL, 5532718879601364104ULL},
                  {1840125691814692616ULL, 12654819638902828992ULL},
                  {12426357193235335247ULL, 854122426678749519ULL},
                  {13621878983425458393ULL, 9950763162168732274ULL}}}),
      extreme_keys(kNodes, 24), "extremes");
}

// Every TMR replica tosses its own drop coin, so the TMR drop-coin row
// hashes three coins per pair on every step.
TEST(MachineFaultGoldenTest, TmrRowHashesEveryReplica) {
  const Row ce = edge_rows({})[1];
  ParallelExecutor pool(4);
  const Outcome serial = run_machine(ce, true, nullptr, tie_keys(kNodes, 23));
  EXPECT_EQ(serial.decisions, 8208);  // 3 coins x 2736 pairs
  EXPECT_EQ(run_machine(ce, true, &pool, tie_keys(kNodes, 23)).decisions,
            serial.decisions);
}

// A tie is no exchange: a sort of equal keys counts none, with or
// without TMR and under every fault that leaves the keys intact.
TEST(MachineFaultGoldenTest, EqualKeysCountNoExchange) {
  for (const Key k : {std::numeric_limits<Key>::min(), Key{0},
                      std::numeric_limits<Key>::max()}) {
    for (const Row& row : edge_rows({})) {
      for (const bool tmr : {false, true}) {
        // Unmasked arbitrary output writes garbage keys, which then
        // really are out of order.
        if (!tmr && std::string_view(row.name) == "arbitrary") continue;
        const Outcome out =
            run_machine(row, tmr, nullptr, std::vector<Key>(kNodes, k));
        EXPECT_EQ(out.exchanges, 0)
            << k << " " << row.name << (tmr ? " tmr" : "");
      }
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
