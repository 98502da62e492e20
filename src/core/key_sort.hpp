#pragma once

// Block-local key sort: the one kernel every block-mode path uses to
// sort a single processor's block in place (BlockMachine's local sort,
// the arbitrary-output fault's victim re-sort, and the block repair's
// re-sort; docs/STREAMING.md, "Block-local sort").
//
// An LSD radix sort over the sign-flipped key with 8-bit digits.  One
// pass finds the bytes on which the keys differ; every byte all keys
// share is skipped, so a block of non-negative keys below 2^24 takes
// three counting passes instead of eight.  A block that mixes such keys
// with the stream's sentinel padding (Key max), with negative keys or
// with an arbitrary-output fault's garbage keys differs in every byte
// and takes all eight.  Below 64 keys the counting overhead outweighs
// the gain and std::sort runs instead.  Keys are
// plain integers, so the result is the same sequence std::sort
// produces; only wall time differs.  The simulated cost of a local
// sort stays analytic (BlockMachine charges b steps and one comparison
// per key), independent of this kernel.

#include <span>

#include "core/multiway_merge.hpp"  // Key

namespace prodsort {

/// Sorts `keys` ascending in place.  Thread-safe: each thread keeps its
/// own scratch buffer.
void sort_block_keys(std::span<Key> keys);

}  // namespace prodsort
