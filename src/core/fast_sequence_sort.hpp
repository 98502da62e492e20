#pragma once

// Production sequence-level engine for the Section 3.3 sort: identical
// algorithm to multiway_merge_sort (same merge tree, same Step 1-4
// semantics) but engineered for throughput, using what each stage knows
// about its input:
//   - Step 2's base case holds N sorted runs of N keys (each B_{u,v} is a
//     subsequence of a sorted A_u), so it merges them pairwise with a
//     branch-free two-way merge instead of sorting.
//   - Step 4: by Lemma 1 every key is within N^2 of its place, so it
//     sorts each N^2 block by insertion sort, then merge-splits adjacent
//     blocks in one even and one odd transposition step (Lemma 2 with
//     block mode's block-sorting lemma), skipping pairs already in order.
// One scratch buffer as large as the input serves every merge;
// gather/interleave are single passes; ParallelExecutor parallelizes
// independent groups / columns / cleanup blocks (never nested).  Used by
// the baseline bench to show the algorithm is competitive as a plain
// in-memory sort, not just as a network schedule.

#include "core/multiway_merge.hpp"
#include "network/parallel_executor.hpp"

namespace prodsort {

/// Sorts `keys` (size N^r) in place; behaviorally identical to
/// multiway_merge_sort.  `executor` is optional.
void multiway_merge_sort_fast(std::vector<Key>& keys, NodeId n,
                              ParallelExecutor* executor = nullptr);

/// Arbitrary-size convenience wrapper: pads to the next power of N with
/// maximal sentinels, runs the fast engine, truncates.  Sizes below N^2
/// fall through to std::sort.
void multiway_sort_any(std::vector<Key>& keys, NodeId n,
                       ParallelExecutor* executor = nullptr);

}  // namespace prodsort
