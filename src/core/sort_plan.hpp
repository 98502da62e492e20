#pragma once

// SortPlan: one recorded fault-free run of sort_product_network for a
// fixed (graph, S2 sorter), replayed instead of regenerated.
//
// Section 4's algorithm is data-oblivious: for a fixed topology and a
// data-oblivious S2 sorter (S2Sorter::data_oblivious), Theorem 1's
// (r-1)^2 S2 phases and (r-1)(r-2) transposition phases are the same
// compare-exchange schedule for every input.  A plan holds:
//
//   * the PhaseRecord charge groups, in order;
//   * the recorded ScheduleIR (staticcheck/schedule_ir.hpp), one phase
//     per compare-exchange step;
//   * the full-view snake order (rank -> node).
//
// It is recorded through the PhaseObserver seam (a ScheduleRecorder)
// plus SortOptions::trace during a sort the caller runs anyway — the
// PoolRouter's fault-free probe — so there is no second schedule
// generator.  Attached to a Machine (Machine::set_plan), it is used in
// three places: sort_product_network replays it, Machine::read_snake of
// the full view gathers through its rank table, and the certifier's
// repair pass pairs snake ranks through the same table.  Replay makes
// the same charge_s2_phase / charge_routing_phase and
// compare_exchange_step(pairs, hop) calls in the same order as
// generation, so the fault clock, crashes and rollback, checkpoints,
// TMR, observers, the Debug disjointness sweep and every report hash
// are unchanged; only building views, Gray tuples and snake ranks is
// skipped.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/product_sort.hpp"
#include "staticcheck/schedule_ir.hpp"

namespace prodsort {

class SortPlan {
 public:
  /// Size cap per plan.  Above it, record() returns no plan and callers
  /// keep generating.  The 64-node cycle(4)^3 shearsort plan is
  /// 48,176 B (2,736 pairs in 114 steps).
  static constexpr std::size_t kMaxBytes = std::size_t{1} << 20;

  /// Runs sort_product_network(machine, options) exactly once and
  /// records it.  Returns the plan, or nullptr (the sort still ran) when
  /// the sorter is absent or not data-oblivious (OracleS2, the
  /// default), a fault model is attached, or the plan would exceed
  /// kMaxBytes.  `options.trace`, when set, receives the sort's phases
  /// as usual.  The machine's graph and the sorter are borrowed by the
  /// plan and must outlive it.
  [[nodiscard]] static std::unique_ptr<const SortPlan> record(
      Machine& machine, const SortOptions& options);

  /// True when sort_product_network may replay this plan for `options`:
  /// the same sorter object, and no per-level validation (which reads
  /// views between levels, so it keeps the generating path).
  [[nodiscard]] bool replays(const SortOptions& options) const noexcept {
    return options.s2 == s2_ && !options.validate_levels;
  }

  /// Replays the recorded run on `machine`: the same charges, trace
  /// records and compare-exchange steps, in order.  Throws
  /// std::invalid_argument when the machine's graph is not the one the
  /// plan was recorded on.
  SortReport replay(Machine& machine, const SortOptions& options) const;

  [[nodiscard]] const ProductGraph& graph() const noexcept { return *pg_; }
  [[nodiscard]] const S2Sorter& sorter() const noexcept { return *s2_; }
  [[nodiscard]] std::span<const PhaseRecord> groups() const noexcept {
    return groups_;
  }
  /// The recorded compare-exchange steps, one phase per step.
  [[nodiscard]] const ScheduleIR& schedule() const noexcept {
    return schedule_;
  }
  /// Rank -> node along the full view's snake.
  [[nodiscard]] std::span<const PNode> snake_order() const noexcept {
    return snake_;
  }

  /// Fault-free executed step time of one replay: the sum of step hops.
  [[nodiscard]] std::int64_t exec_steps() const;
  /// Bytes held by the plan's arrays (what kMaxBytes caps).
  [[nodiscard]] std::size_t bytes() const noexcept;
  /// The schedule's canonical hash, equal to record_product_schedule's.
  [[nodiscard]] std::uint64_t canonical_hash() const {
    return schedule_.canonical_hash();
  }

 private:
  SortPlan(const ProductGraph& pg, const S2Sorter& s2) : pg_(&pg), s2_(&s2) {}

  const ProductGraph* pg_;
  const S2Sorter* s2_;
  std::vector<PhaseRecord> groups_;
  std::vector<std::size_t> group_end_;  ///< one past each group's last step
  ScheduleIR schedule_;
  std::vector<PNode> snake_;
};

}  // namespace prodsort
