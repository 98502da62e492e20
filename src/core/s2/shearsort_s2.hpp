#pragma once

// ShearsortS2: executable snake sorter for any 2-D view, O(N log N)
// compare-exchange phases.
//
// The view's N x N layout has rows indexed by the higher free dimension
// and columns by the lower one; the view's snake order is exactly the
// boustrophedon row-major order, so classic shearsort applies: repeat
// ceil(log2 N) + 1 times { sort rows in alternating directions, sort
// columns downward }, then one final row pass.  Row/column sorts are
// lockstep odd-even transposition sorts (N phases each) whose partners
// are label-consecutive factor nodes (<= dilation hops apart).  The row
// and column passes are built once per sort_views call, straight from
// the view strides, and replayed for every iteration.

#include "core/s2/s2_sorter.hpp"

namespace prodsort {

/// ceil(log2 n); 0 for n <= 1.
[[nodiscard]] int ceil_log2(NodeId n);

/// Shearsort's two passes over every view: `rows` fixes the high free
/// digit and runs along the low one in snake-alternating directions,
/// `cols` fixes the low free digit and runs along the high one.
/// `descending[i]` flips view i.  Shared by ShearsortS2 and
/// BlockShearsortS2.
struct ShearsortPasses {
  LockstepPass rows;
  LockstepPass cols;
};
[[nodiscard]] ShearsortPasses shearsort_passes(
    const ProductGraph& pg, std::span<const ViewSpec> views,
    const std::vector<bool>& descending);

class ShearsortS2 final : public S2Sorter {
 public:
  [[nodiscard]] std::string name() const override { return "shearsort"; }
  [[nodiscard]] bool data_oblivious() const override { return true; }

  /// Executable analytic cost: (ceil(log2 N) + 1) * 2N + N phases of
  /// dilation hops each.
  [[nodiscard]] double phase_cost(const LabeledFactor& factor) const override;

  void sort_views(Machine& machine, std::span<const ViewSpec> views,
                  const std::vector<bool>& descending) const override;
};

}  // namespace prodsort
