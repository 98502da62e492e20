// Streaming ingestion pipeline (src/stream/, docs/STREAMING.md): the
// splitter/scatter layer and its duplicate-heavy edge cases, the
// incremental fingerprint accumulator the certificate chain rides on,
// the measured host merge, the byte-accounted memory budget, and the
// StreamingSorter end to end — conservation, determinism across
// executor thread counts, backpressure under skew, and every rung of
// the recovery ladder (crash, outage, torn merge, silent comparator).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/certifier.hpp"
#include "core/hashing.hpp"
#include "core/host_merge.hpp"
#include "core/splitters.hpp"
#include "graph/labeled_factor.hpp"
#include "network/parallel_executor.hpp"
#include "stream/memory_budget.hpp"
#include "stream/streaming_sorter.hpp"

namespace prodsort {
namespace {

// --- splitters ----------------------------------------------------------

TEST(Splitters, SamplePrefixIsSortedSeededAndClamped) {
  std::vector<Key> prefix;
  for (int i = 0; i < 100; ++i)
    prefix.push_back(static_cast<Key>(mix64(7, static_cast<std::uint64_t>(i)) %
                                      1000));
  const std::vector<Key> a = sample_prefix(prefix, 32, 5);
  const std::vector<Key> b = sample_prefix(prefix, 32, 5);
  EXPECT_EQ(a, b) << "same seed must draw the same sample";
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a.size(), 32u);
  const std::vector<Key> c = sample_prefix(prefix, 32, 6);
  EXPECT_NE(a, c) << "different seeds should draw different samples";
  EXPECT_EQ(sample_prefix(prefix, 1000, 5).size(), prefix.size())
      << "count clamps to the prefix size";
  EXPECT_TRUE(sample_prefix({}, 8, 5).empty());
  EXPECT_THROW((void)sample_prefix(prefix, -1, 5), std::invalid_argument);
}

TEST(Splitters, PickSplittersQuantilesAndErrors) {
  const std::vector<Key> sample = {10, 20, 30, 40, 50, 60, 70, 80};
  const std::vector<Key> splitters = pick_splitters(sample, 4);
  ASSERT_EQ(splitters.size(), 3u);
  EXPECT_TRUE(std::is_sorted(splitters.begin(), splitters.end()));
  EXPECT_TRUE(pick_splitters(sample, 1).empty());
  EXPECT_THROW((void)pick_splitters(sample, 0), std::invalid_argument);
  const std::vector<Key> unsorted = {3, 1, 2};
  EXPECT_THROW((void)pick_splitters(unsorted, 2), std::invalid_argument);
  EXPECT_THROW((void)pick_splitters({}, 2), std::invalid_argument);
  EXPECT_TRUE(pick_splitters({}, 1).empty())
      << "one range needs no splitters, even from an empty sample";
}

TEST(Splitters, AllEqualSampleRoutesEverythingToOneRange) {
  // Duplicate-heavy worst case: every sample key equal, so every
  // splitter is equal and all mass lands in range 0 (keys <= splitter).
  const std::vector<Key> sample(16, 42);
  const std::vector<Key> splitters = pick_splitters(sample, 4);
  ASSERT_EQ(splitters.size(), 3u);
  const std::vector<Key> keys = {42, 42, 42, 42};
  const std::vector<std::vector<Key>> out = scatter_keys(keys, splitters);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].size(), 4u);
  EXPECT_TRUE(out[1].empty() && out[2].empty() && out[3].empty());
}

TEST(Splitters, EqualKeysAlwaysLandInOneRange) {
  const std::vector<Key> splitters = {10, 20, 30};
  EXPECT_EQ(range_of(10, splitters), 0) << "keys equal to a splitter go low";
  EXPECT_EQ(range_of(11, splitters), 1);
  EXPECT_EQ(range_of(20, splitters), 1);
  EXPECT_EQ(range_of(30, splitters), 2);
  EXPECT_EQ(range_of(31, splitters), 3);
  EXPECT_EQ(range_of(5, {}), 0) << "no splitters: single range";
}

TEST(Splitters, ScatterIsStableAndConserving) {
  const std::vector<Key> splitters = {50};
  const std::vector<Key> keys = {70, 10, 80, 20, 50};
  const std::vector<std::vector<Key>> out = scatter_keys(keys, splitters);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (std::vector<Key>{10, 20, 50}));
  EXPECT_EQ(out[1], (std::vector<Key>{70, 80}));
  const std::vector<std::vector<Key>> none = scatter_keys({}, splitters);
  EXPECT_TRUE(none[0].empty() && none[1].empty());
}

TEST(Splitters, PreSortedAndReversedInputsScatterConserving) {
  std::vector<Key> sorted;
  for (int i = 0; i < 64; ++i) sorted.push_back(i);
  std::vector<Key> reversed(sorted.rbegin(), sorted.rend());
  const std::vector<Key> splitters =
      pick_splitters(sample_prefix(sorted, 16, 3), 4);
  for (const std::vector<Key>& keys : {sorted, reversed}) {
    const std::vector<std::vector<Key>> out = scatter_keys(keys, splitters);
    std::size_t total = 0;
    for (const auto& frag : out) total += frag.size();
    EXPECT_EQ(total, keys.size());
  }
}

// The per-key scatter loop scatter_keys replaced, kept as its oracle.
std::vector<std::vector<Key>> scatter_by_range_of(
    std::span<const Key> keys, std::span<const Key> splitters) {
  std::vector<std::vector<Key>> out(splitters.size() + 1);
  for (const Key k : keys)
    out[static_cast<std::size_t>(range_of(k, splitters))].push_back(k);
  return out;
}

TEST(Splitters, ScatterMatchesPerKeyRangeOf) {
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  std::vector<Key> keys;
  for (int i = 0; i < 500; ++i)
    keys.push_back(static_cast<Key>(mix64(21, static_cast<std::uint64_t>(i)) %
                                    200) -
                   100);
  keys.insert(keys.end(), {kMin, kMax, kMin, kMax, 0, -1});

  std::vector<std::vector<Key>> cases = {
      {},                                  // no splitters: one range
      {0},                                 // keys equal to the splitter
      {-5, -5, -5, 7, 7},                  // duplicate splitters
      {kMin, kMax},                        // INT64 extremes as splitters
      {kMin, kMin, 0, kMax, kMax},
  };
  // 1 to 64 ranges from the keys' own sample, duplicates included, and
  // a few more, up to more ranges than distinct keys.
  std::vector<Key> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (int ranges = 1; ranges <= 64; ++ranges)
    cases.push_back(pick_splitters(sorted, ranges));
  for (const int ranges : {65, 66, 100, 300})
    cases.push_back(pick_splitters(sorted, ranges));

  for (const std::vector<Key>& splitters : cases) {
    EXPECT_EQ(scatter_keys(keys, splitters),
              scatter_by_range_of(keys, splitters))
        << splitters.size() << " splitters";
    const std::vector<std::vector<Key>> empty = scatter_keys({}, splitters);
    ASSERT_EQ(empty.size(), splitters.size() + 1);
    for (const auto& frag : empty) EXPECT_TRUE(frag.empty());
  }
}

// --- fingerprint accumulator --------------------------------------------

TEST(FingerprintAccumulator, MatchesFingerprintSequence) {
  std::vector<Key> keys;
  for (int i = 0; i < 257; ++i)
    keys.push_back(static_cast<Key>(mix64(11, static_cast<std::uint64_t>(i))));
  FingerprintAccumulator acc;
  acc.absorb(keys);
  EXPECT_EQ(acc.finalize(), fingerprint_sequence(keys))
      << "the pinned equivalence the certificate chain relies on";
  EXPECT_EQ(acc.count(), keys.size());
}

TEST(FingerprintAccumulator, DisjointMergeEqualsConcatenation) {
  std::vector<Key> all;
  FingerprintAccumulator merged;
  for (int part = 0; part < 5; ++part) {
    FingerprintAccumulator piece;
    for (int i = 0; i < 40 + part; ++i) {
      const Key k = static_cast<Key>(
          mix64(static_cast<std::uint64_t>(part), static_cast<std::uint64_t>(i)));
      piece.absorb(k);
      all.push_back(k);
    }
    merged.absorb(piece);
  }
  EXPECT_EQ(merged.finalize(), fingerprint_sequence(all));
}

TEST(FingerprintAccumulator, OrderInvariant) {
  std::vector<Key> keys = {5, 3, 9, 1, 3, 5};
  FingerprintAccumulator forward;
  forward.absorb(keys);
  std::reverse(keys.begin(), keys.end());
  FingerprintAccumulator backward;
  backward.absorb(keys);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.finalize(), backward.finalize());
}

// --- measured host merge ------------------------------------------------

// host_merge.hpp's count of a loser-tree merge of k non-empty runs
// holding n keys: (k - 1) + (n - 1) * ceil(log2 k), 0 when k = 0.
std::int64_t tree_comparisons(std::int64_t k, std::int64_t n) {
  if (k == 0) return 0;
  return (k - 1) +
         (n - 1) * std::bit_width(static_cast<std::uint64_t>(k - 1));
}

TEST(HostMerge, MergesUnequalRunsAndMeasures) {
  const std::vector<std::vector<Key>> runs = {
      {1, 4, 9, 12}, {2, 3}, {}, {5, 6, 7, 8, 10, 11}};
  HostMergeStats stats;
  const std::vector<Key> out = measured_multiway_merge(runs, stats);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 12u);
  EXPECT_EQ(stats.moves, 12);
  // k = 3 non-empty runs, n = 12 keys: 2 to build, 11 replays of 2.
  EXPECT_EQ(stats.comparisons, 2 + 11 * 2);
  EXPECT_EQ(stats.runs, 3);
  EXPECT_EQ(stats.steps(),
            (stats.comparisons + stats.moves + kHostMergeLanes - 1) /
                kHostMergeLanes)
      << "virtual-time charge is ceil(ops / lanes)";
}

// The counted work of fixed merges, each derived by hand from the
// formula in host_merge.hpp: (k - 1) to build, then (n - 1) replays of
// ceil(log2 k) comparisons, whatever the key values.
struct PinnedMerge {
  std::int64_t comparisons;
  std::int64_t moves;
  std::int64_t runs;
};

void expect_merge(const std::vector<std::vector<Key>>& runs,
                  const PinnedMerge& pinned, const std::string& what) {
  std::vector<Key> expected;
  for (const auto& run : runs)
    expected.insert(expected.end(), run.begin(), run.end());
  std::sort(expected.begin(), expected.end());
  HostMergeStats stats;
  EXPECT_EQ(measured_multiway_merge(runs, stats), expected) << what;
  EXPECT_EQ(stats.comparisons, pinned.comparisons) << what;
  EXPECT_EQ(stats.moves, pinned.moves) << what;
  EXPECT_EQ(stats.runs, pinned.runs) << what;
}

TEST(HostMerge, PinnedCountsOnFixedMerges) {
  expect_merge({{1, 2, 2, 5}, {2, 2, 3}, {2, 5, 5}, {2}},
               {3 + 10 * 2, 11, 4}, "ties across runs");
  expect_merge({{}, {3, 4}, {}, {1, 7}, {}}, {1 + 3 * 1, 4, 2},
               "empty runs");
  expect_merge({{}, {}}, {0, 0, 0}, "only empty runs");
  expect_merge({}, {0, 0, 0}, "no runs");
  expect_merge({{1, 2, 3, 4, 5}}, {0 + 4 * 0, 5, 1}, "one run");

  // k runs of 1-7 keys each, values in [0, 29) with repeats.
  const PinnedMerge by_k[] = {
      {1 + 6 * 1, 7, 2},     {2 + 10 * 2, 11, 3},   {3 + 12 * 2, 13, 4},
      {4 + 19 * 3, 20, 5},   {5 + 24 * 3, 25, 6},   {6 + 27 * 3, 28, 7},
      {7 + 28 * 3, 29, 8},   {8 + 34 * 4, 35, 9},   {9 + 38 * 4, 39, 10},
      {10 + 40 * 4, 41, 11}, {11 + 47 * 4, 48, 12}, {12 + 52 * 4, 53, 13},
      {13 + 55 * 4, 56, 14}, {14 + 56 * 4, 57, 15}, {15 + 62 * 4, 63, 16},
      {16 + 66 * 5, 67, 17}};
  for (int k = 2; k <= 17; ++k) {
    std::vector<std::vector<Key>> runs(static_cast<std::size_t>(k));
    for (int r = 0; r < k; ++r) {
      auto& run = runs[static_cast<std::size_t>(r)];
      for (int i = 0; i < (r * 5) % 7 + 1; ++i)
        run.push_back((r * 37 + i * 13) % 29);
      std::sort(run.begin(), run.end());
    }
    expect_merge(runs, by_k[k - 2], std::to_string(k) + " runs");
  }
}

TEST(HostMerge, RandomMergesMatchStdSortAndTheFormula) {
  // 0-17 runs of 0-40 keys over a small alphabet (ties everywhere,
  // empty runs common), plus a stretch with the keys at the type's
  // ends.
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  for (std::uint64_t trial = 0; trial < 600; ++trial) {
    const std::uint64_t h = mix64(0x4e7, trial);
    const auto k = static_cast<std::size_t>(h % 18);
    std::vector<std::vector<Key>> runs(k);
    std::int64_t live = 0;
    std::vector<Key> expected;
    for (std::size_t r = 0; r < k; ++r) {
      const std::uint64_t hr = mix64(h, r);
      const auto len = static_cast<std::size_t>(hr % 41) * ((hr >> 8) % 3);
      for (std::size_t i = 0; i < len; ++i) {
        const auto v = static_cast<Key>(mix64(hr, i) % 9);
        Key key = v;
        if (trial % 3 == 0) key = v < 4 ? kMax : kMin + v;
        if (trial % 3 == 1) key = kMax - v % 2;
        runs[r].push_back(key);
      }
      std::sort(runs[r].begin(), runs[r].end());
      if (!runs[r].empty()) ++live;
      expected.insert(expected.end(), runs[r].begin(), runs[r].end());
    }
    std::sort(expected.begin(), expected.end());
    const auto n = static_cast<std::int64_t>(expected.size());
    HostMergeStats stats;
    const std::string what = "trial " + std::to_string(trial);
    EXPECT_EQ(measured_multiway_merge(runs, stats), expected) << what;
    EXPECT_EQ(stats.comparisons, tree_comparisons(live, n)) << what;
    EXPECT_EQ(stats.moves, n) << what;
    EXPECT_EQ(stats.runs, live) << what;
  }
}

TEST(HostMerge, SentinelNeverBeatsARealExtremeKey) {
  // An exhausted run reads as a Key-max sentinel; a real Key-max key
  // must still leave before it, whichever run it sits in and however
  // early the sentinel's own run ran dry.
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  const std::vector<std::vector<Key>> runs = {
      {kMin}, {kMin, kMax, kMax}, {}, {kMax}, {0}, {kMin, kMin}, {kMax}};
  HostMergeStats stats;
  const std::vector<Key> out = measured_multiway_merge(runs, stats);
  EXPECT_EQ(out, (std::vector<Key>{kMin, kMin, kMin, kMin, 0, kMax, kMax,
                                   kMax, kMax}));
  EXPECT_EQ(stats.comparisons, 5 + 8 * 3);  // k = 6, n = 9
}

TEST(HostMerge, SpanMergeAppendsAndLeavesOutUntouchedOnThrow) {
  const std::vector<Key> a = {1, 5, 9};
  const std::vector<Key> b = {2, 2, 10};
  const std::vector<std::span<const Key>> runs = {a, {}, b};
  std::vector<Key> out = {-7, -3};
  HostMergeStats stats;
  measured_multiway_merge(runs, stats, out);
  EXPECT_EQ(out, (std::vector<Key>{-7, -3, 1, 2, 2, 5, 9, 10}))
      << "the merge appends; what out held stays";
  EXPECT_EQ(stats.comparisons, 1 + 5 * 1);

  const std::vector<Key> unsorted = {4, 3};
  const std::vector<std::span<const Key>> bad = {a, unsorted};
  const HostMergeStats before = stats;
  EXPECT_THROW(measured_multiway_merge(bad, stats, out),
               std::invalid_argument);
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(stats.comparisons, before.comparisons);
  EXPECT_EQ(stats.runs, before.runs);
}

TEST(HostMerge, LanesMatchCertificateLanes) {
  // The merge and the certificate stream through the same host lanes;
  // if one widens, the cost comparison across subsystems silently
  // skews — pin it.
  EXPECT_EQ(kHostMergeLanes, kCertLanes);
}

TEST(HostMerge, ThrowsOnUnsortedRun) {
  const std::vector<std::vector<Key>> runs = {{1, 2, 3}, {5, 4}};
  HostMergeStats stats;
  EXPECT_THROW((void)measured_multiway_merge(runs, stats),
               std::invalid_argument);
}

/// measured_host_sort's count: a tournament of m one-key runs per run
/// of m keys, then the merge of the runs when there are two or more.
std::int64_t host_sort_comparisons(std::int64_t n, std::int64_t run_keys) {
  std::int64_t total = 0;
  std::int64_t runs = 0;
  for (std::int64_t lo = 0; lo < n; lo += run_keys, ++runs) {
    const std::int64_t m = std::min(run_keys, n - lo);
    total += tree_comparisons(m, m);
  }
  return total + (runs > 1 ? tree_comparisons(runs, n) : 0);
}

TEST(HostMerge, MeasuredHostSortMatchesStdSort) {
  std::vector<Key> keys;
  for (int i = 0; i < 333; ++i)
    keys.push_back(static_cast<Key>(mix64(3, static_cast<std::uint64_t>(i)) %
                                    997));
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  HostMergeStats stats;
  EXPECT_EQ(measured_host_sort(keys, 64, stats), expected);
  // Five runs of 64 keys (63 + 63 * 6 each), one of 13 (12 + 12 * 4),
  // then six runs merged (5 + 332 * 3).
  EXPECT_EQ(stats.comparisons, 5 * (63 + 63 * 6) + (12 + 12 * 4) +
                                   (5 + 332 * 3));
  EXPECT_EQ(stats.moves, 333 + 333) << "each run's keys, then the merge's";
  EXPECT_EQ(stats.runs, (333 + 63) / 64);
  HostMergeStats single;
  EXPECT_EQ(measured_host_sort(keys, 1000, single), expected)
      << "run_keys beyond the input degenerates to one sorted run";
  EXPECT_EQ(single.comparisons, 332 + 332 * 9);
  EXPECT_EQ(single.moves, 333);
  EXPECT_EQ(single.runs, 1);
  HostMergeStats none;
  EXPECT_TRUE(measured_host_sort({}, 64, none).empty());
  EXPECT_EQ(none.comparisons + none.moves + none.runs, 0);
  EXPECT_THROW((void)measured_host_sort(keys, 0, stats),
               std::invalid_argument);
}

// The input shapes of RegionsMT's sort tests (src/test_sort.c,
// src/test/sort.c), with its quicksort cutoff taken as 16: block-wise
// descending sawtooth, the cutoff-straddling organ pipe (also at the
// key type's ends), few distinct values, and its interleaved halves.
std::vector<std::vector<Key>> regions_shapes() {
  constexpr std::int64_t kCutoff = 16;
  constexpr Key kMax = std::numeric_limits<Key>::max();
  std::vector<std::vector<Key>> shapes;
  for (int context = 1; context <= 10; context += 3) {
    const std::int64_t cnt = (std::int64_t{1} << context) - 1;
    std::vector<Key> saw;
    for (std::int64_t i = 0; i < cnt; ++i)
      saw.push_back(kCutoff * (i / kCutoff) - i % kCutoff);
    shapes.push_back(saw);

    const std::int64_t ucnt = context * context + 13;
    std::vector<Key> few;
    for (std::int64_t i = 0; i < (std::int64_t{1} << context) + ucnt; ++i)
      few.push_back((i + 13) % ucnt);
    shapes.push_back(few);

    std::vector<Key> interleaved(static_cast<std::size_t>(cnt));
    std::int64_t even = cnt;
    if ((even & 1) != 0) {
      interleaved[static_cast<std::size_t>(even - 1)] = even;
      --even;
    }
    const std::int64_t half = even / 2;
    for (std::int64_t i = 0; i < half; ++i) {
      interleaved[static_cast<std::size_t>(i)] =
          (i & 1) != 0 ? half + i + (half & 1) : i + 1;
      interleaved[static_cast<std::size_t>(half + i)] = (i + 1) << 1;
    }
    shapes.push_back(interleaved);
  }
  const std::int64_t cnt = ((kCutoff + 1) << 1) + 1;
  const std::int64_t half = cnt >> 1;
  std::vector<Key> pipe;
  std::vector<Key> pipe_ends;
  for (std::int64_t i = 0; i < half; ++i) {
    pipe.push_back(-(i + 1));
    pipe_ends.push_back(std::numeric_limits<Key>::min() + half - i - 1);
  }
  pipe.push_back(0);
  pipe_ends.push_back(0);
  for (std::int64_t i = 0; i < half; ++i) {
    pipe.push_back(half - i + 1);
    pipe_ends.push_back(kMax - i);
  }
  shapes.push_back(pipe);
  shapes.push_back(pipe_ends);
  return shapes;
}

TEST(HostMerge, RegionsShapesSortAndMergeWithTheFormulaCounts) {
  for (const std::vector<Key>& shape : regions_shapes()) {
    std::vector<Key> expected = shape;
    std::sort(expected.begin(), expected.end());
    const auto n = static_cast<std::int64_t>(shape.size());
    for (const std::int64_t run_keys : {1, 7, 16, 64}) {
      const std::string what = std::to_string(n) + " keys, runs of " +
                               std::to_string(run_keys);
      HostMergeStats stats;
      EXPECT_EQ(measured_host_sort(shape, run_keys, stats), expected) << what;
      EXPECT_EQ(stats.comparisons, host_sort_comparisons(n, run_keys))
          << what;

      // The shape cut into runs, each sorted, merged back.
      std::vector<std::vector<Key>> runs;
      for (std::int64_t lo = 0; lo < n; lo += run_keys) {
        runs.emplace_back(shape.begin() + lo,
                          shape.begin() + std::min(n, lo + run_keys));
        std::sort(runs.back().begin(), runs.back().end());
      }
      HostMergeStats merge;
      EXPECT_EQ(measured_multiway_merge(runs, merge), expected) << what;
      EXPECT_EQ(merge.comparisons,
                tree_comparisons(static_cast<std::int64_t>(runs.size()), n))
          << what;
    }
  }
}

// --- memory budget ------------------------------------------------------

TEST(MemoryBudget, ReserveReleaseHighWater) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.try_reserve(60));
  EXPECT_TRUE(budget.try_reserve(40));
  EXPECT_EQ(budget.used(), 100);
  EXPECT_EQ(budget.high_water(), 100);
  budget.release(70);
  EXPECT_EQ(budget.used(), 30);
  EXPECT_EQ(budget.high_water(), 100) << "high water never recedes";
  EXPECT_EQ(budget.refusals(), 0);
}

TEST(MemoryBudget, RefusalIsAllOrNothing) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.try_reserve(90));
  EXPECT_FALSE(budget.try_reserve(11)) << "would exceed: nothing reserved";
  EXPECT_EQ(budget.used(), 90);
  EXPECT_EQ(budget.refusals(), 1);
  EXPECT_TRUE(budget.try_reserve(10)) << "exact fit still admitted";
}

TEST(MemoryBudget, GuardsAgainstMisuse) {
  EXPECT_THROW(MemoryBudget(0), std::invalid_argument);
  MemoryBudget budget(10);
  EXPECT_THROW((void)budget.try_reserve(-1), std::invalid_argument);
  EXPECT_THROW(budget.release(1), std::logic_error)
      << "over-release is an accounting bug, not a no-op";
}

// --- streaming sorter ---------------------------------------------------

StreamConfig small_config() {
  StreamConfig cfg;
  cfg.seed = 7;
  cfg.batches = 6;
  cfg.batch_keys = 100;
  cfg.ranges = 4;
  cfg.block = 4;  // run_keys = 16 * 4 = 64 on cycle(4)^2
  cfg.budget_bytes = 1 << 14;
  cfg.backends = 3;
  cfg.domains = 2;
  return cfg;
}

struct StreamOutcome {
  StreamReport report;
  std::vector<Key> emitted;
};

StreamOutcome run_stream(const StreamConfig& cfg, int threads = 1) {
  const LabeledFactor factor = labeled_cycle(4);
  const ProductGraph pg(factor, 2);
  ParallelExecutor executor(threads);
  StreamingSorter sorter(pg, cfg, &executor);
  StreamOutcome outcome;
  outcome.report = sorter.run();
  outcome.emitted = sorter.emitted();
  return outcome;
}

TEST(StreamingSorter, FaultFreeStreamConservesAndSorts) {
  const StreamOutcome out = run_stream(small_config());
  const StreamReport& report = out.report;
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.conserved()) << report.summary();
  EXPECT_EQ(report.keys_ingested, 600);
  EXPECT_EQ(report.keys_emitted, 600);
  EXPECT_EQ(report.cert_escapes, 0);
  EXPECT_LE(report.high_water_bytes, report.budget_bytes);
  EXPECT_TRUE(std::is_sorted(out.emitted.begin(), out.emitted.end()))
      << "sealed ranges must concatenate into one sorted sequence";
  EXPECT_EQ(static_cast<std::int64_t>(out.emitted.size()),
            report.keys_emitted);
  EXPECT_EQ(report.sealed_fp, report.ingest_fp);
}

TEST(StreamingSorter, DeterministicAcrossThreadCounts) {
  StreamConfig cfg = small_config();
  cfg.faulty = 1;
  cfg.crash_rate = 0.1;
  cfg.tear_rate = 0.2;
  const StreamOutcome one = run_stream(cfg, 1);
  const StreamOutcome four = run_stream(cfg, 4);
  EXPECT_EQ(one.report.hash(), four.report.hash())
      << "the virtual clock must not observe the executor width";
  EXPECT_EQ(one.emitted, four.emitted);
  EXPECT_EQ(one.report.chain_hash, four.report.chain_hash);
}

TEST(StreamingSorter, SkewedKeysRespectBudgetUnderBackpressure) {
  StreamConfig cfg = small_config();
  cfg.pattern = 2;  // few-distinct: most ranges empty, survivors skewed
  cfg.ranges = 8;   // only 4 distinct values: at least half stay empty
  cfg.batches = 10;
  cfg.batch_keys = 200;
  cfg.budget_bytes = 200 * 8 + 64;  // barely above one batch
  const StreamOutcome out = run_stream(cfg);
  EXPECT_TRUE(out.report.conserved()) << out.report.summary();
  EXPECT_LE(out.report.high_water_bytes, out.report.budget_bytes)
      << "skew must spill through forced cuts, never overshoot";
  EXPECT_GT(out.report.forced_cuts, 0);
  EXPECT_GT(out.report.backpressure_stalls, 0);
  EXPECT_GT(out.report.empty_ranges, 0)
      << "four distinct values cannot populate every range";
  EXPECT_TRUE(std::is_sorted(out.emitted.begin(), out.emitted.end()));
}

TEST(StreamingSorter, TwoValuedAndReversedPatternsConserve) {
  for (int pattern : {1, 3}) {  // binary, reversed
    StreamConfig cfg = small_config();
    cfg.pattern = pattern;
    const StreamOutcome out = run_stream(cfg);
    EXPECT_TRUE(out.report.conserved())
        << "pattern " << pattern << ": " << out.report.summary();
    EXPECT_TRUE(std::is_sorted(out.emitted.begin(), out.emitted.end()));
  }
}

TEST(StreamingSorter, SingletonBatchPadsAndConserves) {
  StreamConfig cfg = small_config();
  cfg.batches = 1;
  cfg.batch_keys = 1;
  const StreamOutcome out = run_stream(cfg);
  EXPECT_TRUE(out.report.conserved()) << out.report.summary();
  EXPECT_EQ(out.report.keys_emitted, 1);
  EXPECT_EQ(out.report.padded_keys, 63)
      << "a 1-key run pads to run_keys with sentinels, all stripped";
  EXPECT_GT(out.report.empty_ranges, 0);
}

TEST(StreamingSorter, BatchCountNotDividingRangesStillSeals) {
  StreamConfig cfg = small_config();
  cfg.batches = 7;   // does not divide ranges = 4
  cfg.batch_keys = 37;  // nothing divides run_keys = 64
  cfg.ranges = 3;
  const StreamOutcome out = run_stream(cfg);
  EXPECT_TRUE(out.report.conserved()) << out.report.summary();
  EXPECT_EQ(out.report.keys_emitted, 7 * 37);
  EXPECT_EQ(out.report.ranges_sealed, 3);
  EXPECT_GT(out.report.padded_keys, 0);
}

TEST(StreamingSorter, CrashedRunsRedispatchFromRetainedSlices) {
  StreamConfig cfg = small_config();
  cfg.crash_rate = 0.3;
  const StreamOutcome out = run_stream(cfg);
  EXPECT_GT(out.report.crash_injected, 0);
  EXPECT_GT(out.report.retries, 0);
  EXPECT_TRUE(out.report.conserved())
      << "every crashed run must be re-served from its slice: "
      << out.report.summary();
  EXPECT_EQ(out.report.runs_failed, 0);
}

TEST(StreamingSorter, OutageWindowRefusesThenRecovers) {
  StreamConfig cfg = small_config();
  cfg.outage = "0@100~400";
  const StreamOutcome out = run_stream(cfg);
  EXPECT_GT(out.report.outage_refusals + out.report.outage_failures, 0)
      << "the window overlaps the dispatch burst, something must be hit";
  EXPECT_TRUE(out.report.conserved()) << out.report.summary();
}

TEST(StreamingSorter, TornMergeRollsBackAndReseals) {
  StreamConfig cfg = small_config();
  cfg.tear_rate = 0.4;
  cfg.seed = 3;
  const StreamOutcome out = run_stream(cfg);
  EXPECT_GT(out.report.merge_rollbacks, 0);
  EXPECT_TRUE(out.report.conserved())
      << "a torn merge must re-merge from retained runs: "
      << out.report.summary();
  EXPECT_TRUE(std::is_sorted(out.emitted.begin(), out.emitted.end()));
}

TEST(StreamingSorter, SilentComparatorIsCaughtAndRepaired) {
  StreamConfig cfg = small_config();
  cfg.faulty = 2;
  const StreamOutcome out = run_stream(cfg);
  EXPECT_GT(out.report.sdc_detected, 0)
      << "the inverted comparator must trip the end-to-end certificate";
  EXPECT_EQ(out.report.cert_escapes, 0)
      << "detected is fine, escaped is the gate";
  EXPECT_TRUE(out.report.conserved()) << out.report.summary();
}

TEST(StreamingSorter, EveryBatchIngestedExactlyOnceUnderFaults) {
  StreamConfig cfg = small_config();
  cfg.crash_rate = 0.2;
  cfg.tear_rate = 0.2;
  cfg.faulty = 1;
  cfg.outage = "1@200~500";
  const StreamOutcome out = run_stream(cfg);
  EXPECT_EQ(out.report.batches, cfg.batches)
      << "recovery re-dispatches runs, never re-ingests batches";
  EXPECT_EQ(out.report.keys_ingested, cfg.batches * cfg.batch_keys);
  EXPECT_TRUE(out.report.conserved()) << out.report.summary();
}

TEST(StreamingSorter, RejectsConfigsItCannotHonor) {
  const LabeledFactor factor = labeled_cycle(4);
  const ProductGraph pg(factor, 2);
  StreamConfig cfg = small_config();
  cfg.budget_bytes = cfg.batch_keys * 8 - 1;  // below one batch
  EXPECT_THROW(StreamingSorter(pg, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.ranges = 0;
  EXPECT_THROW(StreamingSorter(pg, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.outage = "9@1~2";  // domain out of range
  EXPECT_THROW(StreamingSorter(pg, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.tear_rate = 1.0;
  EXPECT_THROW(StreamingSorter(pg, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.backoff_base = 0;  // 0 << k stays 0: no backoff at all
  EXPECT_THROW(StreamingSorter(pg, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.backoff_cap = cfg.backoff_base - 1;  // ceiling below the first delay
  EXPECT_THROW(StreamingSorter(pg, cfg), std::invalid_argument);
  const ProductGraph line(factor, 1);
  EXPECT_THROW(StreamingSorter(line, small_config()), std::invalid_argument);
}

// --- outage schedule grammar --------------------------------------------

TEST(DomainOutages, ParsesAndFormatsRoundTrip) {
  const auto windows = parse_domain_outages("0@10~20+1@5~8+0@30~40", 2);
  ASSERT_EQ(windows.size(), 2u);
  ASSERT_EQ(windows[0].size(), 2u);
  EXPECT_EQ(windows[0][0].from, 10);
  EXPECT_EQ(windows[0][1].until, 40);
  ASSERT_EQ(windows[1].size(), 1u);
  const std::string formatted = format_domain_outages(windows);
  EXPECT_EQ(parse_domain_outages(formatted, 2), windows)
      << "format must be a parse fixed point";
  EXPECT_TRUE(format_domain_outages(parse_domain_outages("", 3)).empty());
}

TEST(DomainOutages, RejectsMalformedTokensByName) {
  for (const char* bad : {"junk", "0@5", "0@5~", "0@5~5", "0@8~5", "2@1~2",
                          "-1@1~2", "0@x~2", "0@1~2+garbage", "0@-5~9"}) {
    try {
      (void)parse_domain_outages(bad, 2);
      FAIL() << "accepted malformed schedule: " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("outage token"), std::string::npos)
          << "error must name the grammar: " << e.what();
    }
  }
}

}  // namespace
}  // namespace prodsort
