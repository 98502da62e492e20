// Golden comparator schedules: the canonical hash of every executable S2
// sorter's full schedule, pinned as literals.  The sort is data-oblivious
// (Theorem 1), so these are constants of (topology, sorter, block size).
// Any change to how a sorter builds its pairs — order, orientation, hop
// or phase count — changes a hash here.  Fault decisions hash
// (step, pair index), so such a change would also move every REPRO line
// and report hash downstream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>

#include "core/block_sort.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "core/sort_plan.hpp"
#include "graph/labeled_factor.hpp"
#include "staticcheck/schedule_ir.hpp"

namespace prodsort {
namespace {

struct Topology {
  const char* name;
  LabeledFactor (*factor)();
  int dims;
};

const Topology kTopologies[] = {
    {"cycle4^4", [] { return labeled_cycle(4); }, 4},
    {"path3^4", [] { return labeled_path(3); }, 4},
    {"k2^6", labeled_k2, 6},
    {"petersen^3", labeled_petersen, 3},
    {"path5^3", [] { return labeled_path(5); }, 3},
};

// Hashes per topology, in kTopologies order.
struct UnitGolden {
  std::uint64_t shearsort[5];
  std::uint64_t snake_oet[5];
};

struct BlockGolden {
  int block;
  std::uint64_t shearsort[5];
  std::uint64_t snake_oet[5];
};

constexpr UnitGolden kUnit = {
    {8015811900168560108ULL, 1590460630097611869ULL,
     3851527763309711740ULL, 7894175180549855948ULL,
     3122946891531123723ULL},
    {16263058205517751648ULL, 2584381552356059037ULL,
     5743720807744851064ULL, 7627126948748503129ULL,
     8577754310057171150ULL},
};

constexpr BlockGolden kBlock[] = {
    {2,
     {9321005868964166726ULL, 1372423561992965328ULL,
      12986419720623742921ULL, 16407951984961761296ULL,
      10257711893815935088ULL},
     {10161276344902554493ULL, 12324260186371197648ULL,
      606565258300248503ULL, 6034923732250401914ULL,
      2043531200374245437ULL}},
    {4,
     {5759851828883768316ULL, 10647898461199340830ULL,
      1581630446627995085ULL, 10003913025538189360ULL,
      1969591132335973002ULL},
     {1538906238605079555ULL, 15909111340201036764ULL,
      16502563418231349480ULL, 15600749890252636242ULL,
      16270708811863611146ULL}},
};

TEST(ScheduleGoldenTest, UnitSortersMatchPinnedHashes) {
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  for (std::size_t t = 0; t < std::size(kTopologies); ++t) {
    const Topology& topo = kTopologies[t];
    SCOPED_TRACE(topo.name);
    const ProductGraph pg(topo.factor(), topo.dims);
    EXPECT_EQ(record_product_schedule(pg, shearsort).canonical_hash(),
              kUnit.shearsort[t]);
    EXPECT_EQ(record_product_schedule(pg, snake_oet).canonical_hash(),
              kUnit.snake_oet[t]);
  }
}

std::unique_ptr<const SortPlan> record_plan(const ProductGraph& pg,
                                            const S2Sorter& s2) {
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  std::iota(keys.begin(), keys.end(), Key{0});
  Machine machine(pg, std::move(keys));
  return SortPlan::record(machine, {.s2 = &s2});
}

// The SortPlan a router records for a unit row carries exactly the
// pinned schedule.  A row gets a plan exactly when its pairs fit under
// the plan cap, so a change to SortPlan::bytes() cannot drop a plan
// unseen.
std::uint64_t plan_hash(const ProductGraph& pg, const S2Sorter& s2) {
  const auto plan = record_plan(pg, s2);
  const ScheduleIR ir = record_product_schedule(pg, s2);
  EXPECT_EQ(plan != nullptr,
            static_cast<std::size_t>(ir.total_pairs()) * sizeof(CEPair) <=
                SortPlan::kMaxBytes);
  return plan != nullptr ? plan->canonical_hash() : ir.canonical_hash();
}

TEST(ScheduleGoldenTest, UnitSortPlansMatchPinnedHashes) {
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  for (std::size_t t = 0; t < std::size(kTopologies); ++t) {
    const Topology& topo = kTopologies[t];
    SCOPED_TRACE(topo.name);
    const ProductGraph pg(topo.factor(), topo.dims);
    EXPECT_EQ(plan_hash(pg, shearsort), kUnit.shearsort[t]);
    EXPECT_EQ(plan_hash(pg, snake_oet), kUnit.snake_oet[t]);
  }
}

// The canonical hash leaves out dimension tags and flags, so the plan's
// schedule is also compared with a fresh recording field by field.
TEST(ScheduleGoldenTest, UnitSortPlansKeepTheRecordedScheduleStepForStep) {
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  for (const Topology& topo : kTopologies) {
    const ProductGraph pg(topo.factor(), topo.dims);
    for (const S2Sorter* s2 : {static_cast<const S2Sorter*>(&shearsort),
                               static_cast<const S2Sorter*>(&snake_oet)}) {
      SCOPED_TRACE(std::string(topo.name) + " " + s2->name());
      const auto plan = record_plan(pg, *s2);
      if (plan == nullptr) continue;  // over the cap, checked above
      const ScheduleIR& planned = plan->schedule();
      const ScheduleIR recorded = record_product_schedule(pg, *s2);
      EXPECT_EQ(planned.num_nodes, recorded.num_nodes);
      EXPECT_EQ(planned.block_size, recorded.block_size);
      ASSERT_EQ(planned.phases().size(), recorded.phases().size());
      for (std::size_t s = 0; s < recorded.phases().size(); ++s) {
        const SchedulePhase a = planned.phase(s);
        const SchedulePhase b = recorded.phase(s);
        EXPECT_TRUE(std::ranges::equal(
            a.pairs, b.pairs, [](const CEPair& x, const CEPair& y) {
              return x.low == y.low && x.high == y.high;
            }))
            << "step " << s;
        EXPECT_EQ(a.hop_distance, b.hop_distance) << "step " << s;
        EXPECT_EQ(a.dim, b.dim) << "step " << s;
        EXPECT_EQ(a.faulty, b.faulty) << "step " << s;
        EXPECT_EQ(a.tmr, b.tmr) << "step " << s;
      }
    }
  }
}

TEST(ScheduleGoldenTest, BlockSortersMatchPinnedHashes) {
  const BlockShearsortS2 shearsort;
  const BlockSnakeOETS2 snake_oet;
  for (const BlockGolden& golden : kBlock) {
    for (std::size_t t = 0; t < std::size(kTopologies); ++t) {
      const Topology& topo = kTopologies[t];
      SCOPED_TRACE(std::string(topo.name) + " block " +
                   std::to_string(golden.block));
      const ProductGraph pg(topo.factor(), topo.dims);
      EXPECT_EQ(
          record_block_schedule(pg, shearsort, golden.block).canonical_hash(),
          golden.shearsort[t]);
      EXPECT_EQ(
          record_block_schedule(pg, snake_oet, golden.block).canonical_hash(),
          golden.snake_oet[t]);
    }
  }
}

}  // namespace
}  // namespace prodsort
