#pragma once

// Order statistics shared by the harness and the workload replays.
//
// The fastest-tenth rule: on a host whose cores are shared, identical
// work runs up to ~1.8x slower for seconds or minutes at a time.  The
// median of all repetitions then moves with the share of slow time in
// each run; the fastest repetitions of one piece of work are the ones
// least slowed, so statistics over them repeat from run to run.  On ten
// 20 s runs per workload taken while the host was contended, keeping
// the fastest tenth instead of the fastest quarter cut the widest spread
// (quartiles over median) of keys/s, p50 and p90 from 12-31% to 7-18%
// across the five workloads.
// Every timing the benchmark reports is taken over the fastest tenth of
// the repetitions of identical work.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace prodsort::wallclock {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// How many of `n` samples the fastest tenth keeps: ceil(n / 10).
inline std::size_t fastest_tenth(std::size_t n) { return (n + 9) / 10; }

/// Median of the smallest tenth of `v` (durations: the fastest).
inline double fast_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  v.resize(fastest_tenth(v.size()));
  return median(std::move(v));
}

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
inline double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = std::clamp<std::size_t>(
      (static_cast<std::size_t>(p) * n + 99) / 100, 1, n);
  return v[rank - 1];
}

}  // namespace prodsort::wallclock
