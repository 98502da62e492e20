#pragma once

// Cost accounting for the simulated machine, in the paper's units.
//
// Two clocks are kept:
//
//  * formula_time — Lemma 3 / Theorem 1 accounting: every S2 phase adds
//    S2(N) (the factor's s2_cost), every inter-block transposition phase
//    adds R(N) (routing_cost).  This is what Theorem 1 predicts as
//    (r-1)^2 S2(N) + (r-1)(r-2) R(N), and what the benches compare.
//
//  * exec_steps — synchronous primitive steps actually executed: one
//    compare-exchange step over disjoint pairs costs its maximum
//    factor-graph hop distance (1 for adjacent partners).  Oracle-mode S2
//    sorters do not execute steps; they charge their analytic cost here
//    as a documented proxy so both clocks stay comparable.
//
// Work counters (comparisons/exchanges) measure total work, not time.

#include <cstdint>

namespace prodsort {

struct CostModel {
  std::int64_t s2_phases = 0;       ///< S2-sort phases (Theorem 1: (r-1)^2)
  std::int64_t routing_phases = 0;  ///< transposition phases ((r-1)(r-2))
  double formula_time = 0;          ///< paper time: sum of phase weights

  std::int64_t exec_steps = 0;      ///< executed synchronous step time
  std::int64_t comparisons = 0;     ///< total pairwise comparisons (work)
  std::int64_t exchanges = 0;       ///< total key swaps (work)

  // Fault accounting (all zero unless a FaultModel is attached; see
  // network/fault_model.hpp and docs/FAULTS.md).
  std::int64_t retries = 0;         ///< lost messages that must be redone
  std::int64_t reroutes = 0;        ///< paths redirected around failed links
  std::int64_t degraded_phases = 0; ///< phases that hit a fault or straggler
  std::int64_t recovery_steps = 0;  ///< exec_steps spent in certify-and-repair

  // Fail-stop crash / checkpoint accounting (network/checkpoint.hpp and
  // network/recovery.hpp): the machine-readable recovery report.
  std::int64_t crashes = 0;          ///< fail-stop crash events fired
  std::int64_t reexec_phases = 0;    ///< phases re-executed from partner copy
  std::int64_t checkpoints = 0;      ///< snake-order snapshots taken
  std::int64_t checkpoint_steps = 0; ///< exec_steps spent checkpointing
  std::int64_t rollbacks = 0;        ///< checkpoint restores (incl. remaps)
  std::int64_t remap_sorts = 0;      ///< degraded-topology restart sorts

  // Silent-fault defenses (core/certifier.hpp, Machine TMR mode;
  // docs/FAULTS.md "Silent faults"): redundancy and repair are charged
  // honestly, never hidden.
  std::int64_t tmr_phases = 0;    ///< phases executed triple-redundant
  std::int64_t tmr_masked = 0;    ///< pair outcomes fixed by majority vote
  std::int64_t repair_passes = 0; ///< certify-and-repair OET passes run
  std::int64_t cert_steps = 0;    ///< exec_steps spent on certification
  std::int64_t certificates = 0;  ///< charged certifications issued

  /// The one field list, in declaration order: the paper clocks and
  /// work counters, then fault_fields().  `v(name, field...)` is called
  /// with the same field of every CostModel passed, so operator+= walks
  /// two models in lockstep.
  static void fields(auto&& v, auto&... self) {
    v("s2_phases", self.s2_phases...);
    v("routing_phases", self.routing_phases...);
    v("formula_time", self.formula_time...);
    v("exec_steps", self.exec_steps...);
    v("comparisons", self.comparisons...);
    v("exchanges", self.exchanges...);
    fault_fields(v, self...);
  }

  /// The fault/recovery group: what reset_fault_counters() zeroes.
  static void fault_fields(auto&& v, auto&... self) {
    v("retries", self.retries...);
    v("reroutes", self.reroutes...);
    v("degraded_phases", self.degraded_phases...);
    v("recovery_steps", self.recovery_steps...);
    v("crashes", self.crashes...);
    v("reexec_phases", self.reexec_phases...);
    v("checkpoints", self.checkpoints...);
    v("checkpoint_steps", self.checkpoint_steps...);
    v("rollbacks", self.rollbacks...);
    v("remap_sorts", self.remap_sorts...);
    v("tmr_phases", self.tmr_phases...);
    v("tmr_masked", self.tmr_masked...);
    v("repair_passes", self.repair_passes...);
    v("cert_steps", self.cert_steps...);
    v("certificates", self.certificates...);
  }

  /// Zeroes every fault/recovery counter (the paper-model clocks and the
  /// work counters are untouched).  Call between trials that reuse a
  /// machine so recovery reports never leak across runs.
  void reset_fault_counters() {
    fault_fields([](const char*, auto& field) { field = 0; }, *this);
  }

  void charge_s2_phase(double weight) {
    ++s2_phases;
    formula_time += weight;
  }
  void charge_routing_phase(double weight) {
    ++routing_phases;
    formula_time += weight;
  }

  CostModel& operator+=(const CostModel& other) {
    fields([](const char*, auto& sum, const auto& term) { sum += term; },
           *this, other);
    return *this;
  }
};

}  // namespace prodsort
