// Experiment E11 (Section 1 comparison claims): the multiway-merge sort
// against Columnsort, Batcher's odd-even merge, shearsort, and std::sort
// at the sequence level.  The paper argues its merge-based scheme beats
// Columnsort's sort-based scheme because Step 1/3 are free and the only
// full sorts touch N^2 keys; here we report total comparison-ish work
// (host wall time) and the structural counters for the same inputs.
// Each timing is the median of five warm runs on fresh copies of the
// input; the parallel column uses min(4, hardware threads) workers.
// `gap` is the fast engine's 1-thread time over std::sort's.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/batcher_sequence.hpp"
#include "baselines/columnsort.hpp"
#include "baselines/samplesort.hpp"
#include "baselines/shearsort.hpp"
#include "bench_util.hpp"
#include "core/fast_sequence_sort.hpp"
#include "core/sequence_sort.hpp"

namespace {

using namespace prodsort;
using bench::Table;
using bench::fmt;

constexpr int kTimedRuns = 5;

// Times `sort` on fresh copies of `keys`: one untimed warm-up, then the
// median of kTimedRuns runs.  `out` keeps the last run's output.
template <typename Sort>
double median_ms(const std::vector<Key>& keys, std::vector<Key>& out,
                 Sort&& sort) {
  out = keys;
  sort(out);
  std::vector<double> samples;
  for (int run = 0; run < kTimedRuns; ++run) {
    out = keys;
    samples.push_back(bench::time_ms([&] { sort(out); }));
  }
  std::nth_element(samples.begin(), samples.begin() + kTimedRuns / 2,
                   samples.end());
  return samples[kTimedRuns / 2];
}

}  // namespace

int main() {
  std::printf("E11: sequence-level comparison — multiway merge vs baselines\n"
              "(each cell: one warm-up, then the median of %d runs)\n\n",
              kTimedRuns);

  ParallelExecutor exec(static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u)));
  const std::string par_header =
      "mw-fast " + std::to_string(exec.num_threads()) + "t ms";
  Table table({"keys", "N", "r", "mw-merge ms", "mw-fast ms", par_header,
               "columnsort ms", "batcher ms", "shearsort ms", "samplesort ms",
               "std::sort ms", "gap", "all agree"});
  struct Shape {
    NodeId n;
    int r;
    std::int64_t cs_rows, cs_cols;  // columnsort shape for the same total
    std::int64_t sh_rows, sh_cols;  // shearsort mesh
  };
  const Shape shapes[] = {
      {2, 10, 256, 4, 32, 32},      // 1024 keys
      {4, 6, 512, 8, 64, 64},       // 4096 keys
      {8, 5, 4096, 8, 128, 256},    // 32768 keys, the seq_zoo shape
      {2, 16, 8192, 8, 256, 256},   // 65536 keys
      {8, 6, 32768, 8, 512, 512},   // 262144 keys
  };
  for (const Shape& s : shapes) {
    const std::int64_t total = pow_int(s.n, s.r);
    const auto keys = bench::random_keys(total, 11u);

    std::vector<Key> expected, mw, mwf, mwp, cs, bt, sh, ss;
    const double std_ms = median_ms(keys, expected, [](std::vector<Key>& v) {
      std::sort(v.begin(), v.end());
    });
    const double mw_ms = median_ms(keys, mw, [&](std::vector<Key>& v) {
      (void)multiway_merge_sort(v, s.n);
    });
    const double mwf_ms = median_ms(keys, mwf, [&](std::vector<Key>& v) {
      multiway_merge_sort_fast(v, s.n);
    });
    const double mwp_ms = median_ms(keys, mwp, [&](std::vector<Key>& v) {
      multiway_merge_sort_fast(v, s.n, &exec);
    });
    const double cs_ms = median_ms(keys, cs, [&](std::vector<Key>& v) {
      (void)columnsort(v, s.cs_rows, s.cs_cols);
    });
    const double bt_ms = median_ms(
        keys, bt, [](std::vector<Key>& v) { (void)batcher_sort(v); });
    const double sh_ms = median_ms(keys, sh, [&](std::vector<Key>& v) {
      (void)shearsort(v, s.sh_rows, s.sh_cols);
    });
    const std::vector<Key> sh_seq = snake_to_sequence(sh, s.sh_rows, s.sh_cols);
    const double ss_ms = median_ms(keys, ss, [](std::vector<Key>& v) {
      (void)samplesort(v, 16, 42u);
    });

    const bool agree = mw == expected && mwf == expected && mwp == expected &&
                       cs == expected && bt == expected && sh_seq == expected &&
                       ss == expected;
    table.add_row({fmt(total), fmt(s.n), fmt(s.r), bench::fmt(mw_ms),
                   bench::fmt(mwf_ms), bench::fmt(mwp_ms), bench::fmt(cs_ms),
                   bench::fmt(bt_ms), bench::fmt(sh_ms), bench::fmt(ss_ms),
                   bench::fmt(std_ms), bench::fmt(mwf_ms / std_ms),
                   agree ? "yes" : "NO"});
  }
  table.print();
  table.maybe_export_csv("baselines");

  std::printf("\nStructural comparison on 4^6 = 4096 keys:\n");
  {
    auto keys = bench::random_keys(4096, 13u);
    std::vector<Key> mw = keys;
    const MergeStats stats = multiway_merge_sort(mw, 4);
    std::vector<Key> cs = keys;
    const ColumnsortStats cstats = columnsort(cs, 512, 8);
    std::printf("  multiway merge: %lld merges, %lld N^2-key base sorts, %lld"
                " block sorts, %lld transposition phases\n",
                static_cast<long long>(stats.merges),
                static_cast<long long>(stats.base_sorts),
                static_cast<long long>(stats.block_sorts),
                static_cast<long long>(stats.transpositions));
    std::printf("  columnsort:     %d full column-sort rounds over %lld-key"
                " columns, %lld keys routed\n",
                cstats.column_sort_rounds, 512ll,
                static_cast<long long>(cstats.routed_keys));
    std::printf("  -> the merge scheme's only full sorts touch N^2 = 16 keys"
                " at a time;\n     Columnsort repeatedly sorts whole"
                " 512-key columns (the paper's Section 1 argument).\n");
  }
  return 0;
}
