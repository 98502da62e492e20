// The block-local key sort (core/key_sort.hpp): sort_block_keys must
// agree with std::sort on every value shape and on sizes around the
// std::sort fallback and the radix digit boundaries, and the
// BlockMachine local sort that uses it must not depend on the executor.

#include "core/key_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/hashing.hpp"
#include "graph/labeled_factor.hpp"
#include "network/block_machine.hpp"
#include "network/parallel_executor.hpp"

namespace prodsort {
namespace {

constexpr Key kMin = std::numeric_limits<Key>::min();
constexpr Key kMax = std::numeric_limits<Key>::max();

const std::vector<std::size_t> kSizes = {0,  1,  2,   3,   31,  32,  63,
                                         64, 65, 255, 256, 257, 4096};

struct Shape {
  std::string name;
  std::function<Key(std::size_t i, std::size_t n)> key;
};

std::uint64_t h(std::size_t i) {
  return mix64(0x5eed, static_cast<std::uint64_t>(i));
}

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all = {
      {"extremes",
       [](std::size_t i, std::size_t) {
         const Key pick[] = {kMin, kMax, 0, -1, 1, kMin + 1, kMax - 1};
         return pick[h(i) % 7];
       }},
      {"negatives",
       [](std::size_t i, std::size_t) {
         return -static_cast<Key>(h(i) % 1000003) - 1;
       }},
      {"mixed_sign",
       [](std::size_t i, std::size_t) { return static_cast<Key>(h(i)); }},
      {"stream_range",
       [](std::size_t i, std::size_t) {
         return static_cast<Key>(h(i) % 1000003);
       }},
      {"all_equal", [](std::size_t, std::size_t) { return Key{42}; }},
      {"zero_one",
       [](std::size_t i, std::size_t) { return static_cast<Key>(h(i) % 2); }},
      {"few_distinct",
       [](std::size_t i, std::size_t) {
         return static_cast<Key>((i + 13) % 77);
       }},
      {"sorted",
       [](std::size_t i, std::size_t) { return static_cast<Key>(i) * 3 - 50; }},
      {"reversed",
       [](std::size_t i, std::size_t n) {
         return static_cast<Key>(n - i) * 3 - 50;
       }},
      {"organ_pipe",
       [](std::size_t i, std::size_t n) {
         return static_cast<Key>(std::min(i, n - 1 - i));
       }},
      {"top_byte_only",
       [](std::size_t i, std::size_t) {
         // Sign-flipped, only the most significant byte varies.
         return static_cast<Key>((h(i) % 256) << 56);
       }},
      {"bottom_byte_only",
       [](std::size_t i, std::size_t) {
         return static_cast<Key>(0x1234'5678'9abc'de00LL) +
                static_cast<Key>(h(i) % 256);
       }},
  };
  return all;
}

TEST(KeySort, MatchesStdSortOnEveryShapeAndSize) {
  for (const Shape& shape : shapes()) {
    for (const std::size_t n : kSizes) {
      std::vector<Key> keys(n);
      for (std::size_t i = 0; i < n; ++i) keys[i] = shape.key(i, n);
      std::vector<Key> expected = keys;
      std::sort(expected.begin(), expected.end());
      sort_block_keys(keys);
      EXPECT_EQ(keys, expected) << shape.name << " n=" << n;
    }
  }
}

TEST(KeySort, SortsASubspanInPlaceOnly) {
  std::vector<Key> keys(300);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<Key>(h(i) % 5000);
  const std::vector<Key> before = keys;
  sort_block_keys(std::span<Key>(keys).subspan(10, 256));
  EXPECT_TRUE(std::is_sorted(keys.begin() + 10, keys.begin() + 266));
  EXPECT_TRUE(std::equal(keys.begin(), keys.begin() + 10, before.begin()));
  EXPECT_TRUE(std::equal(keys.begin() + 266, keys.end(), before.begin() + 266))
      << "keys outside the span are untouched";
}

TEST(KeySort, LocalBlocksEqualOnFourThreadsAndNone) {
  // cycle(4)^2 with block 256: the stream workload's run shape.
  const ProductGraph pg(labeled_cycle(4), 2);
  const int b = 256;
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()) * b);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<Key>(h(i)) >> (i % 3 == 0 ? 44 : 0);
  BlockMachine serial(pg, keys, b);
  ParallelExecutor exec(4);
  BlockMachine parallel(pg, keys, b, &exec);
  serial.sort_local_blocks();
  parallel.sort_local_blocks();
  EXPECT_TRUE(std::ranges::equal(serial.keys(), parallel.keys()));
  for (PNode v = 0; v < pg.num_nodes(); ++v) {
    const auto blk = serial.block(v);
    std::vector<Key> expected(
        keys.begin() + static_cast<std::ptrdiff_t>(v) * b,
        keys.begin() + static_cast<std::ptrdiff_t>(v + 1) * b);
    std::sort(expected.begin(), expected.end());
    EXPECT_TRUE(std::ranges::equal(blk, expected)) << "node " << v;
  }
  EXPECT_EQ(serial.cost().exec_steps, b) << "one local phase: b steps";
  EXPECT_EQ(serial.cost().comparisons, pg.num_nodes() * b);
}

}  // namespace
}  // namespace prodsort
