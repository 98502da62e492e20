#pragma once

// The width-n sorting network the sweep tools (prodsort_audit,
// prodsort_staticcheck) hand to NetworkS2: Batcher's odd-even merge
// sort when n is a power of two, odd-even transposition otherwise.

#include "sortnet/batcher.hpp"

namespace prodsort {

[[nodiscard]] inline ComparatorNetwork any_width_network(int n) {
  if ((n & (n - 1)) == 0) return odd_even_merge_sort_network(n);
  return odd_even_transposition_network(n);
}

}  // namespace prodsort
