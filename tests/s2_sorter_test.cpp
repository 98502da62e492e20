#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/s2/oracle_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "product/snake_order.hpp"

namespace prodsort {
namespace {

std::vector<Key> random_keys(PNode count, unsigned seed) {
  std::vector<Key> keys(static_cast<std::size_t>(count));
  std::mt19937 rng(seed);
  for (Key& k : keys) k = static_cast<Key>(rng() % 997);
  return keys;
}

std::vector<std::unique_ptr<S2Sorter>> all_sorters() {
  std::vector<std::unique_ptr<S2Sorter>> out;
  out.push_back(std::make_unique<OracleS2>());
  out.push_back(std::make_unique<ShearsortS2>());
  out.push_back(std::make_unique<SnakeOETS2>());
  return out;
}

class S2SorterFactorTest : public ::testing::TestWithParam<int> {
 protected:
  LabeledFactor factor() const {
    return standard_factors()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(S2SorterFactorTest, SortsFullTwoDimensionalProduct) {
  const LabeledFactor f = factor();
  const ProductGraph pg(f, 2);
  for (const auto& sorter : all_sorters()) {
    Machine m(pg, random_keys(pg.num_nodes(), 5));
    std::vector<Key> expected(m.keys().begin(), m.keys().end());
    std::sort(expected.begin(), expected.end());
    sorter->sort_view(m, full_view(pg));
    EXPECT_TRUE(m.snake_sorted(full_view(pg)))
        << f.name << " / " << sorter->name();
    EXPECT_EQ(m.read_snake(full_view(pg)), expected)
        << f.name << " / " << sorter->name();
  }
}

TEST_P(S2SorterFactorTest, SortsDescending) {
  const LabeledFactor f = factor();
  const ProductGraph pg(f, 2);
  for (const auto& sorter : all_sorters()) {
    Machine m(pg, random_keys(pg.num_nodes(), 6));
    std::vector<Key> expected(m.keys().begin(), m.keys().end());
    std::sort(expected.begin(), expected.end(), std::greater<Key>{});
    sorter->sort_view(m, full_view(pg), /*descending=*/true);
    EXPECT_TRUE(m.snake_sorted(full_view(pg), /*descending=*/true))
        << f.name << " / " << sorter->name();
    EXPECT_EQ(m.read_snake(full_view(pg)), expected)
        << f.name << " / " << sorter->name();
  }
}

TEST_P(S2SorterFactorTest, SortsDisjointViewsWithMixedDirections) {
  const LabeledFactor f = factor();
  const ProductGraph pg(f, 3);
  if (pg.num_nodes() > 4096) GTEST_SKIP() << "3-D product too large";
  for (const auto& sorter : all_sorters()) {
    Machine m(pg, random_keys(pg.num_nodes(), 7));
    const auto views = all_views(pg, 1, 2);
    std::vector<bool> descending(views.size());
    for (std::size_t i = 0; i < views.size(); ++i) descending[i] = i % 2 == 1;
    sorter->sort_views(m, views, descending);
    for (std::size_t i = 0; i < views.size(); ++i)
      EXPECT_TRUE(m.snake_sorted(views[i], descending[i]))
          << f.name << " / " << sorter->name() << " view " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFactors, S2SorterFactorTest,
    ::testing::Range(0, static_cast<int>(standard_factors().size())));

TEST(S2SorterTest, UpperDimensionViewsSortAsWell) {
  // Sort views with free dims {2,3} of a 4-D product: exercises non-unit
  // view strides.
  const LabeledFactor f = labeled_path(3);
  const ProductGraph pg(f, 4);
  for (const auto& sorter : all_sorters()) {
    Machine m(pg, random_keys(pg.num_nodes(), 8));
    const auto views = all_views(pg, 2, 3);
    sorter->sort_views(m, views, std::vector<bool>(views.size(), false));
    for (const ViewSpec& v : views)
      EXPECT_TRUE(m.snake_sorted(v)) << sorter->name();
  }
}

TEST(S2SorterTest, OracleChargesAnalyticExecProxy) {
  const LabeledFactor f = labeled_path(4);  // s2_cost = 12
  const ProductGraph pg(f, 2);
  Machine m(pg, random_keys(pg.num_nodes(), 9));
  OracleS2 oracle;
  oracle.sort_view(m, full_view(pg));
  EXPECT_EQ(m.cost().exec_steps, 12);
  EXPECT_EQ(m.cost().comparisons, 0);  // no compare-exchange steps executed
}

TEST(S2SorterTest, ShearsortExecStepsMatchItsPhaseCost) {
  const LabeledFactor f = labeled_path(4);
  const ProductGraph pg(f, 2);
  Machine m(pg, random_keys(pg.num_nodes(), 10));
  ShearsortS2 shear;
  shear.sort_view(m, full_view(pg));
  EXPECT_EQ(static_cast<double>(m.cost().exec_steps), shear.phase_cost(f));
  EXPECT_GT(m.cost().comparisons, 0);
}

TEST(S2SorterTest, SnakeOetCostGrowsQuadratically) {
  const LabeledFactor f = labeled_path(5);
  SnakeOETS2 oet;
  EXPECT_DOUBLE_EQ(oet.phase_cost(f), 25.0);  // N^2 * dilation
  const ProductGraph pg(f, 2);
  Machine m(pg, random_keys(pg.num_nodes(), 11));
  oet.sort_view(m, full_view(pg));
  EXPECT_EQ(m.cost().exec_steps, 25);
}

TEST(S2SorterTest, LockstepPassAlternatesTwoPairSetsInLineOrder) {
  // Two lines of four nodes: 10..13 ascending, 20..23 descending.
  LockstepPass pass(4, 2);
  pass.add_line(false, [](std::size_t i) { return PNode{10} + i; });
  pass.add_line(true, [](std::size_t i) { return PNode{20} + i; });
  using Pairs = std::vector<std::pair<PNode, PNode>>;
  const Pairs even = {{10, 11}, {12, 13}, {21, 20}, {23, 22}};
  const Pairs odd = {{11, 12}, {22, 21}};
  std::vector<Pairs> steps;
  pass.run([&](std::span<const CEPair> pairs) {
    Pairs& step = steps.emplace_back();
    for (const CEPair& p : pairs) step.emplace_back(p.low, p.high);
  });
  EXPECT_EQ(steps, (std::vector<Pairs>{even, odd, even, odd}));
}

TEST(S2SorterTest, ZeroOnePrincipleOnTheExecutableSorters) {
  // Shearsort and snake-OET are oblivious: exhaust all 2^9 0-1 inputs on
  // the 3x3 product.
  const LabeledFactor f = labeled_path(3);
  const ProductGraph pg(f, 2);
  for (const auto& sorter : all_sorters()) {
    for (std::uint32_t mask = 0; mask < (1u << 9); ++mask) {
      std::vector<Key> keys(9);
      for (int i = 0; i < 9; ++i) keys[static_cast<std::size_t>(i)] = (mask >> i) & 1u;
      Machine m(pg, std::move(keys));
      sorter->sort_view(m, full_view(pg));
      ASSERT_TRUE(m.snake_sorted(full_view(pg)))
          << sorter->name() << " mask=" << mask;
    }
  }
}

}  // namespace
}  // namespace prodsort
