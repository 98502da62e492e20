#pragma once

// The S2(N) primitive: "an algorithm which can sort N^2 keys" on the
// two-dimensional product PG_2 (Section 3.2).  The merge algorithm is
// parameterized by it; its efficiency dominates Theorem 1's bound.
//
// Three implementations are provided:
//
//  * OracleS2     — sorts a view instantly and charges the analytic cost
//                   the paper cites for the network at hand (Schnorr-
//                   Shamir 3N on grids, Kunde 2.5N on tori, 3 on the
//                   4-node hypercube, ...).  Reproduces the paper's
//                   formula-level numbers exactly.
//  * ShearsortS2  — executable O(N log N)-phase shearsort over the snake
//                   layout, valid for every factor graph.
//  * SnakeOETS2   — executable N^2-phase odd-even transposition along the
//                   snake; the simplest correct sorter, used as a test
//                   oracle for the executable path.
//
// A sorter operates on *many* disjoint 2-D views at once, in lockstep,
// because the enclosing algorithm runs them as one parallel phase: the
// executed step time is that of a single view.  The executable sorters
// are odd-even transposition passes (LockstepPass below) whose two pair
// sets are built once per pass and replayed step by step.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "network/machine.hpp"

namespace prodsort {

class S2Sorter {
 public:
  virtual ~S2Sorter() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Analytic time of one S2 phase, charged to CostModel::formula_time.
  [[nodiscard]] virtual double phase_cost(const LabeledFactor& factor) const {
    return factor.s2_cost;
  }

  /// True when the compare-exchange schedule of sort_views depends only
  /// on (graph, views, directions), never on the keys — the condition
  /// for recording one run and replaying it (core/sort_plan.hpp).
  /// OracleS2 reads the keys, so the default is false.
  [[nodiscard]] virtual bool data_oblivious() const { return false; }

  /// Sorts every view (each with exactly two free dimensions) into its
  /// local snake order; `descending[i]` flips view i's direction.  Views
  /// must be disjoint.  Executed in lockstep across views.
  virtual void sort_views(Machine& machine, std::span<const ViewSpec> views,
                          const std::vector<bool>& descending) const = 0;

  /// Convenience: sort one view.
  void sort_view(Machine& machine, const ViewSpec& view,
                 bool descending = false) const;
};

/// One lockstep odd-even transposition sort over equal-length node
/// lines: `length` compare-exchange steps, step p comparing positions
/// (i, i+1) of every line for i = p (mod 2).  The schedule is the same
/// for every input, so a pass has only two distinct pair sets; each is
/// built once, line by line in step order, and replayed for every step
/// that uses it.
class LockstepPass {
 public:
  /// An empty pass over lines of `length` nodes (`lines` only sizes
  /// the reservation).
  LockstepPass(std::size_t length, std::size_t lines) : length_(length) {
    for (auto& pairs : by_parity_) pairs.reserve(lines * (length / 2));
  }

  /// Appends a line whose position i is node `node_at(i)`; a
  /// descending line has its pairs reversed.
  template <class NodeAt>
  void add_line(bool descending, NodeAt node_at) {
    PNode prev = length_ > 0 ? node_at(std::size_t{0}) : 0;
    for (std::size_t i = 1; i < length_; ++i) {
      const PNode next = node_at(i);
      by_parity_[(i - 1) % 2].push_back(descending ? CEPair{next, prev}
                                                   : CEPair{prev, next});
      prev = next;
    }
  }

  /// Step p's pairs: the even set for even p, the odd set for odd p.
  [[nodiscard]] std::span<const CEPair> phase(std::size_t p) const noexcept {
    return by_parity_[p % 2];
  }

  /// Calls `step(phase(p))` for each of the `length` steps in order.
  template <class Step>
  void run(Step&& step) const {
    for (std::size_t p = 0; p < length_; ++p) step(phase(p));
  }

 private:
  std::size_t length_;
  std::vector<CEPair> by_parity_[2];
};

}  // namespace prodsort
