#include "staticcheck/static_prover.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/graph_algos.hpp"

namespace prodsort {

namespace {

std::string pair_prefix(std::int64_t phase, std::int64_t pair_index) {
  return "phase " + std::to_string(phase) + " pair " +
         std::to_string(pair_index) + ": ";
}

void report(PropertyProof& proof, const StaticProverOptions& options,
            Violation violation) {
  proof.proven = false;
  ++proof.violation_count;
  if (proof.counterexamples.size() < options.max_counterexamples)
    proof.counterexamples.push_back(std::move(violation));
}

}  // namespace

StaticProof prove_schedule(const ProductGraph& pg, const ScheduleIR& ir,
                           const StaticProverOptions& options) {
  if (pg.num_nodes() != ir.num_nodes)
    throw std::invalid_argument("prove_schedule: graph/schedule size mismatch");

  // Same all-pairs factor-distance table StepAuditor precomputes; the
  // prover consults it per pair instead of per run.
  const NodeId n = pg.radix();
  std::vector<int> factor_distance(static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(n));
  for (NodeId a = 0; a < n; ++a) {
    const std::vector<int> row = bfs_distances(pg.factor().graph, a);
    std::copy(row.begin(), row.end(),
              factor_distance.begin() + static_cast<std::size_t>(a) * n);
  }

  StaticProof proof;
  proof.schedule_hash = ir.canonical_hash();
  proof.phases = static_cast<std::int64_t>(ir.phases().size());
  proof.pairs = ir.total_pairs();

  const PNode num_nodes = ir.num_nodes;
  const int dims = pg.dims();
  std::vector<int> touch_count(static_cast<std::size_t>(num_nodes), 0);
  std::vector<std::int64_t> touch_stamp(static_cast<std::size_t>(num_nodes),
                                        -1);

  for (std::int64_t phase = 0; phase < proof.phases; ++phase) {
    const SchedulePhase sp = ir.phase(static_cast<std::size_t>(phase));
    for (std::int64_t i = 0;
         i < static_cast<std::int64_t>(sp.pairs.size()); ++i) {
      const CEPair& p = sp.pairs[static_cast<std::size_t>(i)];
      if (p.low < 0 || p.low >= num_nodes || p.high < 0 ||
          p.high >= num_nodes)
        throw std::logic_error("prove_schedule: " + pair_prefix(phase, i) +
                               "pair endpoint out of range");

      // Disjointness: no degenerate pairs, no processor in two pairs.
      // Memory: Section 4's two-value bound — the count of exchanges a
      // processor is resident in, plus its own value.  (The dynamic
      // auditor folds these into one sweep; statically we keep both
      // verdicts so a report can say which property failed.)
      const bool degenerate = p.low == p.high;
      if (degenerate) {
        report(proof.disjointness, options,
               {ViolationKind::kDegeneratePair, phase, i, p.low, 1, 0,
                pair_prefix(phase, i) + "degenerate pair (node " +
                    std::to_string(p.low) + " compared with itself)"});
      }
      for (const PNode node : {p.low, p.high}) {
        auto& stamp = touch_stamp[static_cast<std::size_t>(node)];
        auto& count = touch_count[static_cast<std::size_t>(node)];
        if (stamp != phase) {
          stamp = phase;
          count = 0;
        }
        ++count;
        const int resident = 1 + count;  // own value + one per partner
        proof.max_resident_values =
            std::max(proof.max_resident_values, resident);
        if (count >= 2) {
          if (!degenerate) {
            report(proof.disjointness, options,
                   {ViolationKind::kOverlappingPair, phase, i, node, 1, count,
                    pair_prefix(phase, i) + "node " + std::to_string(node) +
                        " already paired this phase (pairs must be "
                        "disjoint)"});
          }
          report(proof.memory, options,
                 {ViolationKind::kMemoryDiscipline, phase, i, node, 2,
                  resident,
                  pair_prefix(phase, i) + "node " + std::to_string(node) +
                      " would hold " + std::to_string(resident) +
                      " values (Section 4 allows at most 2)"});
        }
        if (degenerate) break;
      }

      // Locality and hop honesty against the recorded charged hop.
      if (!degenerate) {
        int differing = 0;
        int dim = 0;
        int true_distance = 0;
        NodeId da = 0, db = 0;
        for (int d = 1; d <= dims; ++d) {
          const NodeId a = pg.digit(p.low, d);
          const NodeId b = pg.digit(p.high, d);
          if (a != b) {
            ++differing;
            dim = d;
            da = a;
            db = b;
            true_distance +=
                factor_distance[static_cast<std::size_t>(a) * n + b];
          }
        }
        if (differing != 1 && !options.allow_cross_dimension) {
          report(proof.locality, options,
                 {ViolationKind::kWrongDimension, phase, i, p.low, 1,
                  differing,
                  pair_prefix(phase, i) + "nodes " + std::to_string(p.low) +
                      " and " + std::to_string(p.high) + " differ in " +
                      std::to_string(differing) +
                      " product dimensions (must be exactly 1)"});
        } else if (sp.hop_distance < true_distance) {
          const std::string where =
              differing == 1
                  ? " between digits " + std::to_string(da) + " and " +
                        std::to_string(db) + " (dimension " +
                        std::to_string(dim) + ")"
                  : " across " + std::to_string(differing) + " dimensions";
          report(proof.locality, options,
                 {ViolationKind::kUnderchargedHop, phase, i, p.low,
                  true_distance, sp.hop_distance,
                  pair_prefix(phase, i) + "charged hop " +
                      std::to_string(sp.hop_distance) + " < " +
                      (differing == 1 ? "factor" : "product") +
                      " distance " + std::to_string(true_distance) + where});
        }
      }
    }
  }
  return proof;
}

}  // namespace prodsort
