#include "core/splitters.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/hashing.hpp"

namespace prodsort {

std::vector<Key> sample_prefix(std::span<const Key> prefix, std::int64_t count,
                               std::uint64_t seed) {
  if (count < 0) throw std::invalid_argument("sample_prefix: count < 0");
  const auto n = static_cast<std::int64_t>(prefix.size());
  count = std::min(count, n);
  std::vector<Key> sample;
  sample.reserve(static_cast<std::size_t>(count));
  for (std::int64_t slot = 0; slot < count; ++slot) {
    const std::uint64_t h = mix64(seed, static_cast<std::uint64_t>(slot));
    sample.push_back(prefix[static_cast<std::size_t>(
        h % static_cast<std::uint64_t>(n))]);
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

std::vector<Key> pick_splitters(std::span<const Key> sample, int ranges) {
  if (ranges < 1) throw std::invalid_argument("pick_splitters: ranges < 1");
  if (!std::is_sorted(sample.begin(), sample.end()))
    throw std::invalid_argument("pick_splitters: sample must be sorted");
  if (ranges == 1) return {};
  if (sample.empty())
    throw std::invalid_argument("pick_splitters: empty sample, ranges > 1");
  std::vector<Key> splitters;
  splitters.reserve(static_cast<std::size_t>(ranges) - 1);
  const auto n = static_cast<std::int64_t>(sample.size());
  for (int b = 1; b < ranges; ++b) {
    // Interior quantile, clamped so a tiny sample still yields P-1
    // (possibly duplicate) splitters.
    const std::int64_t pos =
        std::min<std::int64_t>(n - 1, n * b / ranges);
    splitters.push_back(sample[static_cast<std::size_t>(pos)]);
  }
  return splitters;
}

int range_of(Key key, std::span<const Key> splitters) {
  const auto it =
      std::lower_bound(splitters.begin(), splitters.end(), key);
  // lower_bound: splitters >= key stay above, so range i gets keys in
  // (splitters[i-1], splitters[i]] — boundary keys go to the *lower*
  // range, keeping equal keys together under duplicate splitters.
  return static_cast<int>(it - splitters.begin());
}

std::vector<std::vector<Key>> scatter_keys(std::span<const Key> keys,
                                           std::span<const Key> splitters) {
  // One classifying pass records each key's range and counts the range
  // sizes; the fragments are then allocated at their exact size and
  // filled in arrival order.  A key's range is the number of splitters
  // below it, as in range_of, counted branch-free over all splitters:
  // range_of's binary search branches on random keys and mispredicts.
  // Per key on a 2.0 GHz Xeon, against the per-key range_of loop this
  // replaced: 6-9 vs 17 ns at 8 ranges, 17-21 vs 38-40 at 32, 56-58 vs
  // 66 at 128; the count is linear in the splitters, so it loses from
  // about 192 ranges on (148 vs 80 ns at 300).
  const std::size_t ranges = splitters.size() + 1;
  std::vector<std::uint32_t> range(keys.size());
  std::vector<std::size_t> sizes(ranges, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Key k = keys[i];
    std::size_t r = 0;
    for (const Key s : splitters) r += static_cast<std::size_t>(s < k);
    range[i] = static_cast<std::uint32_t>(r);
    ++sizes[r];
  }
  std::vector<std::vector<Key>> out(ranges);
  std::vector<Key*> cursor(ranges);
  for (std::size_t r = 0; r < ranges; ++r) {
    out[r].resize(sizes[r]);
    cursor[r] = out[r].data();
  }
  for (std::size_t i = 0; i < keys.size(); ++i) *cursor[range[i]]++ = keys[i];
  return out;
}

}  // namespace prodsort
