#include "core/fast_sequence_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <random>

#include "core/sequence_sort.hpp"
#include "product/gray_code.hpp"

namespace prodsort {
namespace {

TEST(FastSequenceSortTest, RejectsNonPowerSizes) {
  std::vector<Key> keys(12);
  EXPECT_THROW(multiway_merge_sort_fast(keys, 5), std::invalid_argument);
}

TEST(FastSequenceSortTest, DegenerateSingleDimension) {
  std::vector<Key> keys = {5, 1, 3, 2};
  multiway_merge_sort_fast(keys, 4);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

class FastSortParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FastSortParamTest, MatchesReferenceImplementation) {
  const auto [n, r] = GetParam();
  const std::int64_t total = pow_int(n, r);
  std::mt19937 rng(static_cast<unsigned>(n * 41 + r));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Key> keys(static_cast<std::size_t>(total));
    for (Key& k : keys) k = static_cast<Key>(rng() % 997);

    std::vector<Key> reference = keys;
    (void)multiway_merge_sort(reference, static_cast<NodeId>(n));

    std::vector<Key> fast = keys;
    multiway_merge_sort_fast(fast, static_cast<NodeId>(n));

    ASSERT_EQ(fast, reference);
  }
}

TEST_P(FastSortParamTest, ParallelMatchesSerial) {
  const auto [n, r] = GetParam();
  const std::int64_t total = pow_int(n, r);
  std::mt19937 rng(static_cast<unsigned>(n * 43 + r));
  std::vector<Key> keys(static_cast<std::size_t>(total));
  for (Key& k : keys) k = static_cast<Key>(rng());

  std::vector<Key> serial = keys;
  multiway_merge_sort_fast(serial, static_cast<NodeId>(n));

  for (const int threads : {2, 4, 8}) {
    ParallelExecutor exec(threads);
    std::vector<Key> parallel = keys;
    multiway_merge_sort_fast(parallel, static_cast<NodeId>(n), &exec);
    ASSERT_EQ(parallel, serial) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastSortParamTest,
    ::testing::Values(std::pair<int, int>{2, 2}, std::pair<int, int>{2, 3},
                      std::pair<int, int>{2, 6}, std::pair<int, int>{2, 10},
                      std::pair<int, int>{3, 3}, std::pair<int, int>{3, 5},
                      std::pair<int, int>{4, 4}, std::pair<int, int>{5, 3},
                      std::pair<int, int>{8, 3}, std::pair<int, int>{16, 2}));

TEST(FastSequenceSortTest, ZeroOneSweep) {
  std::mt19937 rng(47);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Key> keys(64);
    for (Key& k : keys) k = static_cast<Key>(rng() & 1u);
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    multiway_merge_sort_fast(keys, 2);
    ASSERT_EQ(keys, expected);
  }
}

TEST(FastSequenceSortTest, LargeInputWithThreads) {
  const std::int64_t total = pow_int(4, 9);  // 262144
  std::vector<Key> keys(static_cast<std::size_t>(total));
  std::mt19937_64 rng(53);
  for (Key& k : keys) k = static_cast<Key>(rng());
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  ParallelExecutor exec(4);
  multiway_merge_sort_fast(keys, 4, &exec);
  EXPECT_EQ(keys, expected);
}

TEST(FastSequenceSortTest, SortAnyHandlesArbitrarySizes) {
  std::mt19937 rng(59);
  for (const std::int64_t size : {0, 1, 5, 17, 100, 1000, 12345}) {
    std::vector<Key> keys(static_cast<std::size_t>(size));
    for (Key& k : keys) k = static_cast<Key>(rng() % 5000);
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    multiway_sort_any(keys, 4);
    EXPECT_EQ(keys, expected) << size;
  }
}

TEST(FastSequenceSortTest, SortAnyKeepsRealMaxKeys) {
  // Padding sentinels equal Key-max; genuine Key-max keys must survive.
  std::vector<Key> keys = {5, std::numeric_limits<Key>::max(), 3,
                           std::numeric_limits<Key>::max(), 1, 2, 4, 0, 6,
                           7, 8, 9, 10, 11, 12, 13, 14};
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  multiway_sort_any(keys, 3);
  EXPECT_EQ(keys, expected);
}

TEST(FastSequenceSortTest, SortAnyValidation) {
  std::vector<Key> keys(10);
  EXPECT_THROW(multiway_sort_any(keys, 1), std::invalid_argument);
}

TEST(FastSequenceSortTest, ExtremeKeyValues) {
  std::vector<Key> keys(27);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = (i % 2 == 0) ? std::numeric_limits<Key>::max()
                           : std::numeric_limits<Key>::min();
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  multiway_merge_sort_fast(keys, 3);
  EXPECT_EQ(keys, expected);
}

// --- Adversarial differential test -----------------------------------------
//
// Both entry points against std::sort, serial and on four threads, over
// structured inputs whose periods straddle N and N^2 (the Step 2 run
// length and the Step 4 block size).

std::vector<std::vector<Key>> adversarial_zoo(std::int64_t size,
                                              std::int64_t n) {
  std::vector<std::vector<Key>> zoo;
  const auto add = [&](auto&& key_at) {
    std::vector<Key> keys(static_cast<std::size_t>(size));
    for (std::int64_t i = 0; i < size; ++i)
      keys[static_cast<std::size_t>(i)] = key_at(i);
    zoo.push_back(std::move(keys));
  };
  for (const std::int64_t ucnt : {2, 7, 100})
    add([&](std::int64_t i) { return (i + 13) % ucnt; });  // few distinct
  add([&](std::int64_t i) { return std::min(i, size - 1 - i); });  // organ pipe
  add([](std::int64_t i) { return i; });                             // sorted
  add([&](std::int64_t i) { return size - i; });                     // reversed
  add([](std::int64_t) { return Key{42}; });                         // all equal
  std::mt19937_64 rng(static_cast<std::uint64_t>(size * 31 + n));
  add([&](std::int64_t) {
    return (rng() & 1u) != 0 ? std::numeric_limits<Key>::max()
                             : std::numeric_limits<Key>::min();
  });
  for (const std::int64_t p : {n - 1, n, n + 1, n * n - 1, n * n, n * n + 1}) {
    add([&](std::int64_t i) { return i % p; });                   // sawtooth
    add([&](std::int64_t i) { return (i * p + i) % size; });      // stagger
    add([&](std::int64_t i) { return i - i % p + (p - 1 - i % p); });  // reversed blocks
  }
  return zoo;
}

class FastSortAdversarialTest : public ::testing::TestWithParam<int> {};

TEST_P(FastSortAdversarialTest, MatchesStdSortSerialAndThreaded) {
  const NodeId n = static_cast<NodeId>(GetParam());
  ParallelExecutor exec(4);
  // Power sizes from N^3 up to 4096 keys go to multiway_merge_sort_fast;
  // three padded sizes below the largest go to multiway_sort_any.
  std::vector<std::int64_t> sizes;
  for (std::int64_t size = pow_int(n, 3); size <= 4096; size *= n)
    sizes.push_back(size);
  const std::int64_t top = sizes.back();
  const std::size_t powers = sizes.size();
  sizes.insert(sizes.end(), {top - 1, top / n + 1, top - top / (2 * n) + 3});

  for (ParallelExecutor* executor : {static_cast<ParallelExecutor*>(nullptr), &exec}) {
    const char* mode = executor == nullptr ? "serial" : "4 threads";
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const auto zoo = adversarial_zoo(sizes[s], n);
      for (std::size_t c = 0; c < zoo.size(); ++c) {
        std::vector<Key> expected = zoo[c];
        std::sort(expected.begin(), expected.end());
        std::vector<Key> keys = zoo[c];
        if (s < powers)
          multiway_merge_sort_fast(keys, n, executor);
        else
          multiway_sort_any(keys, n, executor);
        ASSERT_EQ(keys, expected)
            << mode << " size=" << sizes[s] << " case=" << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radices, FastSortAdversarialTest,
                         ::testing::Values(2, 3, 4, 8));

// --- 0-1 coverage of the Step 4 cleanup --------------------------------------

TEST(FastSequenceSortTest, EveryZeroOneInputAtTwoToTheFour) {
  for (std::uint32_t bits = 0; bits < (1u << 16); ++bits) {
    std::vector<Key> keys(16);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = (bits >> i) & 1u;
    multiway_merge_sort_fast(keys, 2);
    ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end())) << bits;
    ASSERT_EQ(std::count(keys.begin(), keys.end(), Key{1}), std::popcount(bits))
        << bits;
  }
}

TEST(FastSequenceSortTest, RandomZeroOneInputs) {
  std::mt19937 rng(61);
  for (const auto& [n, r] : {std::pair<int, int>{3, 3}, std::pair<int, int>{4, 3},
                            std::pair<int, int>{8, 3}}) {
    const std::int64_t total = pow_int(n, r);
    for (int trial = 0; trial < 2000; ++trial) {
      // Sweep the density of ones so the dirty window moves across blocks.
      const std::uint32_t cut = rng() % 1025u;
      std::vector<Key> keys(static_cast<std::size_t>(total));
      for (Key& k : keys) k = (rng() % 1024u) < cut ? 1 : 0;
      std::vector<Key> expected = keys;
      std::sort(expected.begin(), expected.end());
      multiway_merge_sort_fast(keys, static_cast<NodeId>(n));
      ASSERT_EQ(keys, expected) << "N=" << n << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace prodsort
