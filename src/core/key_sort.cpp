#include "core/key_sort.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace prodsort {

namespace {

// Blocks shorter than this go to std::sort: at 64 keys of 64-bit
// values the radix passes already cost more per key than std::sort,
// while at 256 keys they win by 1.8x (64-bit) to 3.5x (20-bit keys).
constexpr std::size_t kRadixMinKeys = 64;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr unsigned kDigitBits = 8;
constexpr std::size_t kDigits = 64 / kDigitBits;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

// Flipping the sign bit maps signed order onto unsigned order.
inline std::uint64_t radix_bits(Key k) noexcept {
  return static_cast<std::uint64_t>(k) ^ kSignBit;
}

inline std::size_t digit(Key k, std::size_t d) noexcept {
  return static_cast<std::size_t>(radix_bits(k) >> (d * kDigitBits)) &
         (kBuckets - 1);
}

}  // namespace

void sort_block_keys(std::span<Key> keys) {
  const std::size_t n = keys.size();
  if (n < kRadixMinKeys || n > UINT32_MAX) {
    std::sort(keys.begin(), keys.end());
    return;
  }

  // Bits on which some key differs from the first; a byte with none set
  // is shared by every key and needs no pass.
  const std::uint64_t first = radix_bits(keys[0]);
  std::uint64_t differ = 0;
  for (const Key k : keys) differ |= radix_bits(k) ^ first;
  if (differ == 0) return;  // all keys equal

  std::array<std::size_t, kDigits> active{};
  std::size_t passes = 0;
  for (std::size_t d = 0; d < kDigits; ++d)
    if (((differ >> (d * kDigitBits)) & (kBuckets - 1)) != 0)
      active[passes++] = d;

  // Every active digit's histogram in one read of the keys.  Only the
  // active rows are cleared, and no other row is read: clearing all
  // eight made a 256-key sort about 13% slower.
  std::array<std::array<std::uint32_t, kBuckets>, kDigits> counts;
  for (std::size_t p = 0; p < passes; ++p) counts[active[p]].fill(0);
  for (const Key k : keys)
    for (std::size_t p = 0; p < passes; ++p)
      ++counts[active[p]][digit(k, active[p])];

  thread_local std::vector<Key> scratch;
  if (scratch.size() < n) scratch.resize(n);
  Key* src = keys.data();
  Key* dst = scratch.data();
  for (std::size_t p = 0; p < passes; ++p) {
    const std::size_t d = active[p];
    auto& bucket = counts[d];
    std::uint32_t offset = 0;
    for (std::uint32_t& c : bucket) {
      const std::uint32_t size = c;
      c = offset;
      offset += size;
    }
    for (std::size_t i = 0; i < n; ++i)
      dst[bucket[digit(src[i], d)]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys.data()) std::copy(src, src + n, keys.data());
}

}  // namespace prodsort
