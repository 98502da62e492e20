#pragma once

// NetworkS2: executes an arbitrary comparator sorting network over the
// snake positions of a 2-D view, layer by layer, as machine phases.
// This is Section 5.5 made literal: the paper's S2 for de Bruijn /
// shuffle-exchange products is "Batcher's algorithm emulated on the
// N^2-node factor network embedded in PG_2" — here the emulation is the
// identity snake map and the comparator partners are routed through the
// product (cost: their exact product distance, the sum of per-dimension
// factor distances).
//
//   NetworkS2 s2(bitonic_sort_network(n * n));   // any sorting network
//   sort_product_network(machine, {.s2 = &s2});

#include "core/s2/s2_sorter.hpp"
#include "sortnet/comparator_network.hpp"

namespace prodsort {

class NetworkS2 final : public S2Sorter {
 public:
  /// `network` must sort (checked against the zero-one principle only in
  /// tests, not here) and have width N^2 matching the machines it is
  /// used with.
  explicit NetworkS2(ComparatorNetwork network);

  [[nodiscard]] std::string name() const override { return "network-s2"; }
  [[nodiscard]] bool data_oblivious() const override { return true; }

  /// Executable cost: the sum over layers of the worst partner distance
  /// (depth-weighted emulation time), exact — computed from all-pairs
  /// factor distances on the snake of the canonical PG_2.  Nothing is
  /// cached: the driver calls this once per S2 phase, so a generating
  /// sort rebuilds PG_2 and the distance table every phase, while a
  /// SortPlan (core/sort_plan.hpp) records each phase's weight once.
  [[nodiscard]] double phase_cost(const LabeledFactor& factor) const override;

  void sort_views(Machine& machine, std::span<const ViewSpec> views,
                  const std::vector<bool>& descending) const override;

  [[nodiscard]] const ComparatorNetwork& network() const noexcept {
    return network_;
  }

 private:
  ComparatorNetwork network_;
};

}  // namespace prodsort
