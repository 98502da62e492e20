#include "analysis/phase_discipline.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/graph_algos.hpp"

namespace prodsort {

namespace {

std::string pair_prefix(std::int64_t phase, std::int64_t pair_index) {
  return "phase " + std::to_string(phase) + " pair " +
         std::to_string(pair_index) + ": ";
}

}  // namespace

std::string to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kDegeneratePair: return "degenerate-pair";
    case ViolationKind::kOverlappingPair: return "overlapping-pair";
    case ViolationKind::kWrongDimension: return "wrong-dimension";
    case ViolationKind::kUnderchargedHop: return "undercharged-hop";
    case ViolationKind::kMemoryDiscipline: return "memory-discipline";
    case ViolationKind::kLockstepDivergence: return "lockstep-divergence";
  }
  return "unknown";
}

PhaseDiscipline::PhaseDiscipline(const ProductGraph& pg,
                                 bool allow_cross_dimension,
                                 const char* owner)
    : pg_(&pg),
      allow_cross_dimension_(allow_cross_dimension),
      owner_(owner),
      factor_distance_(all_pairs_distances(pg.factor().graph)),
      touch_stamp_(static_cast<std::size_t>(pg.num_nodes()), -1),
      touch_count_(static_cast<std::size_t>(pg.num_nodes()), 0) {}

void PhaseDiscipline::check(std::int64_t phase, std::span<const CEPair> pairs,
                            int hop_distance, int& max_resident_values,
                            const Report& report) {
  const std::int64_t call = calls_++;
  const PNode num_nodes = pg_->num_nodes();
  const NodeId n = pg_->radix();
  const int dims = pg_->dims();

  for (std::int64_t i = 0; i < static_cast<std::int64_t>(pairs.size()); ++i) {
    const CEPair& p = pairs[static_cast<std::size_t>(i)];
    if (p.low < 0 || p.low >= num_nodes || p.high < 0 || p.high >= num_nodes)
      throw std::logic_error(std::string(owner_) + ": " +
                             pair_prefix(phase, i) +
                             "pair endpoint out of range");

    // Disjointness and memory: a degenerate pair, and a processor
    // resident in a second exchange.  A self-pair counts once.
    const bool degenerate = p.low == p.high;
    if (degenerate) {
      report(PhaseProperty::kDisjointness,
             {ViolationKind::kDegeneratePair, phase, i, p.low, 1, 0,
              pair_prefix(phase, i) + "degenerate pair (node " +
                  std::to_string(p.low) + " compared with itself)"});
    }
    for (const PNode node : {p.low, p.high}) {
      auto& stamp = touch_stamp_[static_cast<std::size_t>(node)];
      auto& count = touch_count_[static_cast<std::size_t>(node)];
      if (stamp != call) {
        stamp = call;
        count = 0;
      }
      ++count;
      const int resident = 1 + count;  // own value + one per partner
      max_resident_values = std::max(max_resident_values, resident);
      if (count >= 2) {
        if (!degenerate) {
          report(PhaseProperty::kDisjointness,
                 {ViolationKind::kOverlappingPair, phase, i, node, 1, count,
                  pair_prefix(phase, i) + "node " + std::to_string(node) +
                      " already paired this phase (pairs must be "
                      "disjoint)"});
        }
        report(PhaseProperty::kMemory,
               {ViolationKind::kMemoryDiscipline, phase, i, node, 2,
                resident,
                pair_prefix(phase, i) + "node " + std::to_string(node) +
                    " would hold " + std::to_string(resident) +
                    " values (Section 4 allows at most 2)"});
      }
      if (degenerate) break;
    }
    if (degenerate) continue;

    // Locality and hop honesty against the charged hop.
    int differing = 0;
    int dim = 0;
    int true_distance = 0;  // product distance over differing dimensions
    NodeId da = 0, db = 0;
    for (int d = 1; d <= dims; ++d) {
      const NodeId a = pg_->digit(p.low, d);
      const NodeId b = pg_->digit(p.high, d);
      if (a != b) {
        ++differing;
        dim = d;
        da = a;
        db = b;
        true_distance +=
            factor_distance_[static_cast<std::size_t>(a) * n + b];
      }
    }
    if (differing != 1 && !allow_cross_dimension_) {
      report(PhaseProperty::kLocality,
             {ViolationKind::kWrongDimension, phase, i, p.low, 1, differing,
              pair_prefix(phase, i) + "nodes " + std::to_string(p.low) +
                  " and " + std::to_string(p.high) + " differ in " +
                  std::to_string(differing) +
                  " product dimensions (must be exactly 1)"});
    } else if (hop_distance < true_distance) {
      const std::string where =
          differing == 1 ? " between digits " + std::to_string(da) + " and " +
                               std::to_string(db) + " (dimension " +
                               std::to_string(dim) + ")"
                         : " across " + std::to_string(differing) +
                               " dimensions";
      report(PhaseProperty::kLocality,
             {ViolationKind::kUnderchargedHop, phase, i, p.low, true_distance,
              hop_distance,
              pair_prefix(phase, i) + "charged hop " +
                  std::to_string(hop_distance) + " < " +
                  (differing == 1 ? "factor" : "product") + " distance " +
                  std::to_string(true_distance) + where});
    }
  }
}

}  // namespace prodsort
