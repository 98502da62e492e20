#include "core/host_merge.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>

namespace prodsort {

namespace {

/// Heap entry: the head key of run `run` at offset `pos`.
struct HeadRef {
  Key key;
  std::size_t run;
  std::size_t pos;
};

}  // namespace

std::vector<Key> measured_multiway_merge(
    std::span<const std::vector<Key>> runs, HostMergeStats& stats) {
  std::int64_t total = 0;
  for (const auto& run : runs) {
    if (!std::is_sorted(run.begin(), run.end()))
      throw std::invalid_argument("measured_multiway_merge: run not sorted");
    total += static_cast<std::int64_t>(run.size());
    if (!run.empty()) ++stats.runs;
  }

  std::vector<Key> out;
  out.reserve(static_cast<std::size_t>(total));

  // Min-heap over the live run heads.  Every heap comparison goes
  // through the instrumented comparator; ties break on run index, which
  // fixes the merge order.  It does not fix the count: how many
  // comparisons a push or pop makes is the standard library's
  // push_heap/pop_heap pattern (pinned for libstdc++ in stream_test),
  // as measured_host_sort's count is std::sort's.
  auto greater = [&stats](const HeadRef& a, const HeadRef& b) {
    ++stats.comparisons;
    if (a.key != b.key) return a.key > b.key;
    return a.run > b.run;
  };
  std::priority_queue<HeadRef, std::vector<HeadRef>, decltype(greater)> heap(
      greater);
  for (std::size_t r = 0; r < runs.size(); ++r)
    if (!runs[r].empty()) heap.push(HeadRef{runs[r][0], r, 0});

  while (!heap.empty()) {
    const HeadRef head = heap.top();
    heap.pop();
    out.push_back(head.key);
    ++stats.moves;
    const auto& run = runs[head.run];
    if (head.pos + 1 < run.size())
      heap.push(HeadRef{run[head.pos + 1], head.run, head.pos + 1});
  }
  return out;
}

std::vector<Key> measured_host_sort(std::span<const Key> keys,
                                    std::int64_t run_keys,
                                    HostMergeStats& stats) {
  if (run_keys < 1)
    throw std::invalid_argument("measured_host_sort: run_keys < 1");
  const auto n = static_cast<std::int64_t>(keys.size());
  std::vector<std::vector<Key>> runs;
  for (std::int64_t lo = 0; lo < n; lo += run_keys) {
    const std::int64_t hi = std::min(n, lo + run_keys);
    std::vector<Key> run(keys.begin() + lo, keys.begin() + hi);
    std::sort(run.begin(), run.end(), [&stats](Key a, Key b) {
      ++stats.comparisons;
      return a < b;
    });
    stats.moves += hi - lo;  // materializing the sorted run
    runs.push_back(std::move(run));
  }
  if (runs.size() == 1) {
    ++stats.runs;
    return std::move(runs.front());
  }
  return measured_multiway_merge(runs, stats);
}

}  // namespace prodsort
