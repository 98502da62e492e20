#include "staticcheck/static_prover.hpp"

#include <stdexcept>

namespace prodsort {

StaticProof prove_schedule(const ProductGraph& pg, const ScheduleIR& ir,
                           const StaticProverOptions& options) {
  if (pg.num_nodes() != ir.num_nodes)
    throw std::invalid_argument("prove_schedule: graph/schedule size mismatch");

  StaticProof proof;
  proof.schedule_hash = ir.canonical_hash();
  proof.phases = static_cast<std::int64_t>(ir.phases().size());
  proof.pairs = ir.total_pairs();

  // Each finding refutes the property it is tagged with.
  PhaseDiscipline discipline(pg, options.allow_cross_dimension,
                             "prove_schedule");
  const PhaseDiscipline::Report report = [&proof](PhaseProperty property,
                                                  Violation violation) {
    PropertyProof& refuted = property == PhaseProperty::kDisjointness
                                 ? proof.disjointness
                                 : property == PhaseProperty::kLocality
                                       ? proof.locality
                                       : proof.memory;
    refuted.proven = false;
    ++refuted.violation_count;
    if (refuted.counterexamples.size() < kMaxCounterexamples)
      refuted.counterexamples.push_back(std::move(violation));
  };
  for (std::int64_t phase = 0; phase < proof.phases; ++phase) {
    const SchedulePhase sp = ir.phase(static_cast<std::size_t>(phase));
    discipline.check(phase, sp.pairs, sp.hop_distance,
                     proof.max_resident_values, report);
  }
  return proof;
}

}  // namespace prodsort
