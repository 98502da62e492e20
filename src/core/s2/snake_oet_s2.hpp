#pragma once

// SnakeOETS2: executable odd-even transposition sort along the view's
// snake (N^2 phases of label-consecutive compare-exchanges).  Slowest of
// the sorters but trivially correct — it serves as the executable test
// oracle, and doubles as a baseline showing why the 2-D sorter's
// efficiency matters in Theorem 1.  The snake pass's two pair sets are
// built once per sort_views call and replayed for all N^2 steps.

#include "core/s2/s2_sorter.hpp"

namespace prodsort {

/// The lockstep pass along every view's snake (N^2 positions per view);
/// `descending[i]` flips view i.  Shared by SnakeOETS2 and
/// BlockSnakeOETS2.
[[nodiscard]] LockstepPass snake_pass(const ProductGraph& pg,
                                      std::span<const ViewSpec> views,
                                      const std::vector<bool>& descending);

class SnakeOETS2 final : public S2Sorter {
 public:
  [[nodiscard]] std::string name() const override { return "snake-oet"; }
  [[nodiscard]] bool data_oblivious() const override { return true; }

  /// N^2 phases of `dilation` hops each.
  [[nodiscard]] double phase_cost(const LabeledFactor& factor) const override {
    const double n = factor.size();
    return n * n * factor.dilation;
  }

  void sort_views(Machine& machine, std::span<const ViewSpec> views,
                  const std::vector<bool>& descending) const override;
};

}  // namespace prodsort
