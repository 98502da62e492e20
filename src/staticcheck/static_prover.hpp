#pragma once

// Static prover: establishes, once per ScheduleIR, the Section-4 phase
// disciplines StepAuditor (analysis/step_auditor.hpp) re-checks
// dynamically on every run — disjointness, locality (hop honesty) and
// the two-value memory bound.  Both run the same per-pair checks,
// PhaseDiscipline (analysis/phase_discipline.hpp), so static and
// dynamic reports read identically.  The schedule is finite data, so a
// full scan IS a proof: the checks are exhaustive over every phase and
// pair, not sampled.
//
// A refuted property carries minimal counterexamples (its first
// kMaxCounterexamples offending pairs).  A schedule whose proof is
// clean can run with Machine::set_statically_audited(true), skipping
// the Debug-default per-phase disjointness sweep.

#include <cstdint>
#include <vector>

#include "analysis/phase_discipline.hpp"
#include "staticcheck/schedule_ir.hpp"

namespace prodsort {

struct StaticProverOptions {
  /// NetworkS2 legitimately routes partners across both view dimensions
  /// charging the full product distance; mirror of the StepAuditor flag.
  bool allow_cross_dimension = false;
};

/// Counterexamples kept per property; violation_count keeps counting.
inline constexpr std::size_t kMaxCounterexamples = 16;

/// One property's verdict: proven means the exhaustive schedule scan
/// found zero violations (a proof, not a sample).
struct PropertyProof {
  bool proven = true;
  std::int64_t violation_count = 0;  ///< keeps counting past the cap
  std::vector<Violation> counterexamples;
};

struct StaticProof {
  std::uint64_t schedule_hash = 0;
  std::int64_t phases = 0;
  std::int64_t pairs = 0;
  PropertyProof disjointness;
  PropertyProof locality;
  PropertyProof memory;
  int max_resident_values = 1;  ///< Section-4 bound: must be <= 2

  [[nodiscard]] bool all_proven() const noexcept {
    return disjointness.proven && locality.proven && memory.proven;
  }
};

/// Proves (or refutes, with counterexamples) the three disciplines over
/// the whole schedule.  `pg` must be the graph the schedule was
/// recorded on; a pair endpoint outside the graph throws.
[[nodiscard]] StaticProof prove_schedule(const ProductGraph& pg,
                                         const ScheduleIR& ir,
                                         const StaticProverOptions& options = {});

}  // namespace prodsort
