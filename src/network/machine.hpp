#pragma once

// The simulated machine of the paper: an N^r-processor network with the
// topology of PG_r, one key per processor, operated in synchronous
// phases.  "During the sorting algorithm, each processor needs enough
// memory to hold at most two values being compared" (Section 4) — the
// simulator's only data-moving primitive is the compare-exchange step
// over disjoint processor pairs, optionally routed across a few hops
// inside one factor subgraph.
//
// Time accounting is described in cost_model.hpp.  Phases are applied in
// parallel by an optional ParallelExecutor; because pairs within a phase
// are disjoint, results are deterministic for any thread count.

#include <span>
#include <vector>

#include "core/multiway_merge.hpp"  // Key
#include "network/cost_model.hpp"
#include "network/fault_model.hpp"
#include "network/parallel_executor.hpp"
#include "network/phase_observer.hpp"  // CEPair, PhaseObserver
#include "product/subgraph_view.hpp"

namespace prodsort {

class SortPlan;  // core/sort_plan.hpp

class Machine {
 public:
  /// `keys.size()` must equal `pg.num_nodes()`.  The executor (optional)
  /// is borrowed and must outlive the machine.
  Machine(const ProductGraph& pg, std::vector<Key> keys,
          ParallelExecutor* executor = nullptr);

  [[nodiscard]] const ProductGraph& graph() const noexcept { return *pg_; }
  [[nodiscard]] std::span<const Key> keys() const noexcept { return keys_; }
  [[nodiscard]] std::span<Key> mutable_keys() noexcept { return keys_; }
  [[nodiscard]] Key key(PNode node) const {
    return keys_[static_cast<std::size_t>(node)];
  }

  [[nodiscard]] CostModel& cost() noexcept { return cost_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] ParallelExecutor* executor() const noexcept { return executor_; }

  /// One synchronous compare-exchange step.  `pairs` must be disjoint
  /// (checked when `check_disjoint` is set); `hop_distance` is the
  /// largest factor-graph distance between partners (exec time charge).
  void compare_exchange_step(std::span<const CEPair> pairs, int hop_distance = 1);

  /// Per-step disjointness validation: O(pairs) extra work and one
  /// zeroed byte per processor, roughly doubling the per-phase overhead
  /// of small steps.  On by default in Debug builds (NDEBUG undefined);
  /// Release builds keep it opt-in so the hot path stays a plain sweep.
  /// An attached *validating* observer (supersedes_validation() true,
  /// e.g. the StepAuditor) supersedes this flag; passive observers like
  /// the CheckpointManager leave it in force.
  void set_check_disjoint(bool on) noexcept { check_disjoint_ = on; }

  /// Statically-audited mode: declares that every schedule this machine
  /// will run has been proven disjoint offline (staticcheck/
  /// static_prover.hpp — a clean StaticProof covering the schedule's
  /// canonical hash).  While set, the per-step disjointness sweep is
  /// skipped even when `check_disjoint` is on, moving the O(pairs +
  /// nodes) per-phase validation cost to a one-time static proof.  The
  /// caller owns the obligation: setting this without a proof silently
  /// disables the safety net (tools/prodsort_staticcheck measures the
  /// sweep cost this mode saves and gates on the proof actually
  /// existing).  A validating observer still supersedes everything.
  void set_statically_audited(bool on) noexcept { statically_audited_ = on; }
  [[nodiscard]] bool statically_audited() const noexcept {
    return statically_audited_;
  }

  /// Attaches a phase observer (borrowed; must outlive the machine, pass
  /// nullptr to detach).  While attached it is invoked around every
  /// compare-exchange step and supersedes `set_check_disjoint`.
  void set_observer(PhaseObserver* observer) noexcept { observer_ = observer; }
  [[nodiscard]] PhaseObserver* observer() const noexcept { return observer_; }

  /// Attaches a fault model (borrowed; must outlive the machine, pass
  /// nullptr to detach).  While attached, compare-exchange steps are
  /// subject to its compute-side faults: dropped pairs (counted as
  /// CostModel::retries), key corruption, and straggler slowdown (the
  /// step's exec charge is multiplied by straggler_factor when any pair
  /// touches a straggler).  With no model attached — or a model with all
  /// compute rates zero — results are bit-identical to the fault-free
  /// machine.  If the model selects stragglers, call
  /// `select_stragglers(graph().num_nodes())` on it first.
  ///
  /// Fail-stop crashes (FaultConfig::crash_schedule) fire at the start
  /// of the scheduled phase (this machine's fault-step counter): the
  /// node's key decays to crash_garbage.  If the crashed node is paired
  /// in that very phase and the crash is restartable, its partner still
  /// holds both values of the exchange (the Section-4 two-value memory),
  /// so the machine restores the key and re-executes the phase in place
  /// (charged as an extra phase; CostModel::reexec_phases).  Otherwise
  /// the key has no live copy and the machine throws CrashInterrupt for
  /// the caller to escalate (checkpoint rollback / degraded remap — see
  /// network/recovery.hpp).  While any node is dead, issuing a pair that
  /// touches it is a std::logic_error: degraded schedules must pair live
  /// nodes only (product/degraded_view.hpp).
  void set_fault_model(FaultModel* faults) noexcept { faults_ = faults; }
  [[nodiscard]] FaultModel* fault_model() const noexcept { return faults_; }

  /// Triple-modular-redundancy mode: every compare-exchange pair is
  /// evaluated by three comparator replicas and the majority outcome is
  /// committed.  The redundancy is *spatial* — a silently-faulty
  /// comparator (FaultConfig::comparator_schedule) occupies one
  /// seed-hashed replica (FaultModel::faulty_replica, hashed only for an
  /// endpoint whose fault window covers the step), so voting masks any
  /// single faulty comparator per pair; per-message faults (CE drops,
  /// corruption) are decided per replica and masked the same way.
  /// Honestly charged: 3x comparisons plus one extra exec step per phase
  /// for the vote (CostModel::tmr_phases / tmr_masked).  Without faults
  /// the voted outcome is bit-identical to plain mode, so a step where
  /// no fault can fire runs the plain loop and is charged as TMR.
  void set_tmr(bool on) noexcept { tmr_ = on; }
  [[nodiscard]] bool tmr() const noexcept { return tmr_; }

  /// Synchronous phases executed so far under an attached fault model —
  /// the phase clock crash events are keyed on.
  [[nodiscard]] std::int64_t fault_phase() const noexcept {
    return fault_step_;
  }

  /// Re-arms the fault clock for a fresh trial on the same machine, so
  /// a crash schedule keyed on phase indices fires again from phase 0.
  /// Pair with FaultModel::reset() (which un-fires the events) and, if
  /// cumulative counters must restart, cost().reset_fault_counters() —
  /// the service retry path relies on this trio to keep back-to-back
  /// sorts on one machine from double-counting or silently skipping
  /// scheduled faults.
  void reset_fault_clock() noexcept { fault_step_ = 0; }

  /// Attaches a recorded fault-free sort of this machine's graph
  /// (core/sort_plan.hpp; borrowed, must outlive the machine, nullptr
  /// detaches).  While attached, sort_product_network replays it when
  /// the options match, and the full view's snake order comes from its
  /// rank table.  Throws std::invalid_argument when the plan was
  /// recorded on another graph.
  void set_plan(const SortPlan* plan);
  [[nodiscard]] const SortPlan* plan() const noexcept { return plan_; }

  /// The attached plan's rank -> node table when `view` is the full
  /// view; empty otherwise (callers then generate snake ranks).
  [[nodiscard]] std::span<const PNode> planned_snake(
      const ViewSpec& view) const noexcept;

  /// Reads the keys out in snake order of `view` — the "result" of a sort
  /// phase for verification.
  [[nodiscard]] std::vector<Key> read_snake(const ViewSpec& view) const;

  /// True iff the keys of `view` ascend (or descend) along its snake.
  [[nodiscard]] bool snake_sorted(const ViewSpec& view,
                                  bool descending = false) const;

 private:
  /// Fires due crash events for `step`; returns true when the phase must
  /// be re-executed (partner recovery), throws CrashInterrupt when the
  /// lost key has no live copy.
  bool fire_crashes(std::span<const CEPair> pairs, std::int64_t step);

  const ProductGraph* pg_;
  std::vector<Key> keys_;
  CostModel cost_;
  ParallelExecutor* executor_;
  FaultModel* faults_ = nullptr;
  PhaseObserver* observer_ = nullptr;
  const SortPlan* plan_ = nullptr;
  std::int64_t fault_step_ = 0;  ///< event-id stream for fault decisions
  bool tmr_ = false;             ///< triple-redundant voting; see set_tmr
  bool statically_audited_ = false;  ///< see set_statically_audited
#ifdef NDEBUG
  bool check_disjoint_ = false;
#else
  bool check_disjoint_ = true;  ///< Debug default; see set_check_disjoint
#endif
};

}  // namespace prodsort
