#pragma once

// PhaseDiscipline: the Section-4 pair checks of one synchronous phase,
// declared once for the dynamic StepAuditor (analysis/step_auditor.hpp)
// and the static prover (staticcheck/static_prover.hpp).  Section 4 of
// the paper rests on three facts about every phase:
//
//   disjointness — no pair is degenerate and no processor is in two
//                  pairs; parallel application is deterministic only
//                  under this premise;
//   locality     — partners differ in exactly one product dimension
//                  (or, with allow_cross_dimension, in any number) and
//                  the charged hop is >= their factor (product)
//                  distance, so CostModel::exec_steps is never
//                  undercharged;
//   memory       — "each processor needs enough memory to hold at most
//                  two values being compared": no processor is resident
//                  in more than one exchange per phase (its own value
//                  plus one partner value, blocks counting as one).
//
// check() walks a phase's pairs once and hands each finding, tagged
// with the property it refutes, to the caller: pair by pair, and within
// a pair the disjointness and memory findings before the locality one.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "network/phase_observer.hpp"  // CEPair
#include "product/product_graph.hpp"

namespace prodsort {

enum class ViolationKind {
  kDegeneratePair,     ///< low == high: a processor compared with itself
  kOverlappingPair,    ///< a processor appears in more than one pair
  kWrongDimension,     ///< endpoints differ in != 1 product dimension
  kUnderchargedHop,    ///< charged hop < factor-graph partner distance
  kMemoryDiscipline,   ///< a processor would hold > 2 values in a phase
  kLockstepDivergence, ///< parallel result != serial replay of the phase
};

[[nodiscard]] std::string to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::kDegeneratePair;
  std::int64_t phase = 0;       ///< phase id (0-based)
  std::int64_t pair_index = -1; ///< offending pair, -1 if phase-level
  PNode node = -1;              ///< offending processor, -1 if none
  int expected = 0;             ///< invariant bound (true distance, ...)
  int observed = 0;             ///< observed value (charged hop, ...)
  std::string message;          ///< one-line human-readable report
};

/// The Section-4 fact a finding refutes.
enum class PhaseProperty { kDisjointness, kLocality, kMemory };

class PhaseDiscipline {
 public:
  using Report = std::function<void(PhaseProperty, Violation)>;

  /// Factor distances are precomputed from `pg`, which must outlive the
  /// checker.  `owner` (a string literal) prefixes the endpoint-range
  /// error.
  PhaseDiscipline(const ProductGraph& pg, bool allow_cross_dimension,
                  const char* owner);
  PhaseDiscipline(const ProductGraph&& pg, bool allow_cross_dimension,
                  const char* owner) = delete;

  /// Checks the pairs of phase `phase`, charged `hop_distance` each,
  /// and hands every finding to `report`.  Raises `max_resident_values`
  /// to the most values any processor holds in this phase (own value
  /// plus one per partner).  An endpoint outside the graph throws
  /// std::logic_error("<owner>: phase P pair I: pair endpoint out of
  /// range").
  void check(std::int64_t phase, std::span<const CEPair> pairs,
             int hop_distance, int& max_resident_values,
             const Report& report);

 private:
  const ProductGraph* pg_;
  bool allow_cross_dimension_;
  const char* owner_;
  std::vector<int> factor_distance_;       ///< N x N, all_pairs_distances
  std::vector<std::int64_t> touch_stamp_;  ///< check() call per node
  std::vector<int> touch_count_;           ///< pair memberships per node
  std::int64_t calls_ = 0;
};

}  // namespace prodsort
