// Violation messages of the Section-4 phase disciplines, pinned.
//
// Hand-made broken phases go through both checkers: the dynamic
// StepAuditor (attached to a Machine, recording instead of throwing)
// and the static prove_schedule.  Each finding's kind, phase, pair,
// node, expected and observed values and its literal message are
// pinned, and the two paths must report the same findings.  The
// auditor reports no memory-discipline findings: a processor resident
// in two exchanges is already named by its overlapping-pair report.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/step_auditor.hpp"
#include "graph/labeled_factor.hpp"
#include "network/machine.hpp"
#include "staticcheck/schedule_ir.hpp"
#include "staticcheck/static_prover.hpp"

namespace prodsort {
namespace {

struct Expected {
  ViolationKind kind;
  std::int64_t pair_index;
  PNode node;
  int expected;
  int observed;
  const char* message;
};

struct BrokenPhase {
  std::vector<CEPair> pairs;
  int hop_distance = 1;
  bool allow_cross_dimension = false;
};

// Every broken phase runs as phase 1, after one clean phase, so the
// phase id in each message is exercised.
const CEPair kCleanPhase[] = {{0, 1}};

std::vector<Violation> audit(const ProductGraph& pg, const BrokenPhase& b) {
  AuditorConfig config;
  config.throw_on_violation = false;
  config.allow_cross_dimension = b.allow_cross_dimension;
  StepAuditor auditor(pg, config);
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<Key>(keys.size() - i);
  Machine machine(pg, std::move(keys));
  machine.set_observer(&auditor);
  machine.compare_exchange_step(kCleanPhase);
  machine.compare_exchange_step(b.pairs, b.hop_distance);
  EXPECT_EQ(auditor.violation_count(),
            static_cast<std::int64_t>(auditor.violations().size()));
  return {auditor.violations().begin(), auditor.violations().end()};
}

StaticProof prove(const ProductGraph& pg, const BrokenPhase& b) {
  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  ir.add_phase({.pairs = kCleanPhase});
  ir.add_phase({.pairs = b.pairs, .hop_distance = b.hop_distance});
  StaticProverOptions options;
  options.allow_cross_dimension = b.allow_cross_dimension;
  return prove_schedule(pg, ir, options);
}

void expect_findings(const std::vector<Violation>& actual,
                     const std::vector<Expected>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("finding " + std::to_string(i));
    const Violation& v = actual[i];
    const Expected& e = expected[i];
    EXPECT_EQ(v.kind, e.kind);
    EXPECT_EQ(v.phase, 1);
    EXPECT_EQ(v.pair_index, e.pair_index);
    EXPECT_EQ(v.node, e.node);
    EXPECT_EQ(v.expected, e.expected);
    EXPECT_EQ(v.observed, e.observed);
    EXPECT_EQ(v.message, e.message);
  }
}

// Pins both paths.  `disjointness`, `locality` and `memory` are the
// prover's per-property counterexamples; the auditor must report the
// disjointness findings followed by the locality ones (every case
// below reports locality findings after all disjointness findings).
void expect_both(const ProductGraph& pg, const BrokenPhase& b,
                 const std::vector<Expected>& disjointness,
                 const std::vector<Expected>& locality,
                 const std::vector<Expected>& memory) {
  const StaticProof proof = prove(pg, b);
  {
    SCOPED_TRACE("prover disjointness");
    expect_findings(proof.disjointness.counterexamples, disjointness);
  }
  {
    SCOPED_TRACE("prover locality");
    expect_findings(proof.locality.counterexamples, locality);
  }
  {
    SCOPED_TRACE("prover memory");
    expect_findings(proof.memory.counterexamples, memory);
  }
  EXPECT_EQ(proof.disjointness.proven, disjointness.empty());
  EXPECT_EQ(proof.locality.proven, locality.empty());
  EXPECT_EQ(proof.memory.proven, memory.empty());

  std::vector<Expected> dynamic = disjointness;
  dynamic.insert(dynamic.end(), locality.begin(), locality.end());
  SCOPED_TRACE("auditor");
  expect_findings(audit(pg, b), dynamic);
}

// path(3)^2: node v has digits (v % 3, v / 3).
ProductGraph grid3() { return ProductGraph(labeled_path(3), 2); }

TEST(PhaseDisciplineMessages, DegeneratePair) {
  const ProductGraph pg = grid3();
  expect_both(pg, {.pairs = {{4, 4}}},
              {{ViolationKind::kDegeneratePair, 0, 4, 1, 0,
                "phase 1 pair 0: degenerate pair (node 4 compared with "
                "itself)"}},
              {}, {});
}

TEST(PhaseDisciplineMessages, OverlappingPairs) {
  const ProductGraph pg = grid3();
  expect_both(pg, {.pairs = {{0, 1}, {1, 2}}},
              {{ViolationKind::kOverlappingPair, 1, 1, 1, 2,
                "phase 1 pair 1: node 1 already paired this phase (pairs "
                "must be disjoint)"}},
              {},
              {{ViolationKind::kMemoryDiscipline, 1, 1, 2, 3,
                "phase 1 pair 1: node 1 would hold 3 values (Section 4 "
                "allows at most 2)"}});
}

TEST(PhaseDisciplineMessages, DegeneratePairOnAPairedNode) {
  // The self-pair is a disjointness finding; the node it lands on is
  // already paired, which the prover also reports as memory.
  const ProductGraph pg = grid3();
  expect_both(pg, {.pairs = {{0, 1}, {1, 1}}},
              {{ViolationKind::kDegeneratePair, 1, 1, 1, 0,
                "phase 1 pair 1: degenerate pair (node 1 compared with "
                "itself)"}},
              {},
              {{ViolationKind::kMemoryDiscipline, 1, 1, 2, 3,
                "phase 1 pair 1: node 1 would hold 3 values (Section 4 "
                "allows at most 2)"}});
}

TEST(PhaseDisciplineMessages, WrongDimension) {
  const ProductGraph pg = grid3();
  expect_both(pg, {.pairs = {{0, 4}}, .hop_distance = 2}, {},
              {{ViolationKind::kWrongDimension, 0, 0, 1, 2,
                "phase 1 pair 0: nodes 0 and 4 differ in 2 product "
                "dimensions (must be exactly 1)"}},
              {});
}

TEST(PhaseDisciplineMessages, SingleDimensionUndercharge) {
  const ProductGraph pg = grid3();
  expect_both(pg, {.pairs = {{0, 6}}, .hop_distance = 1}, {},
              {{ViolationKind::kUnderchargedHop, 0, 0, 2, 1,
                "phase 1 pair 0: charged hop 1 < factor distance 2 "
                "between digits 0 and 2 (dimension 2)"}},
              {});
}

TEST(PhaseDisciplineMessages, CrossDimensionUndercharge) {
  const ProductGraph pg = grid3();
  expect_both(pg,
              {.pairs = {{0, 8}}, .hop_distance = 3,
               .allow_cross_dimension = true},
              {},
              {{ViolationKind::kUnderchargedHop, 0, 0, 4, 3,
                "phase 1 pair 0: charged hop 3 < product distance 4 "
                "across 2 dimensions"}},
              {});
}

TEST(PhaseDisciplineMessages, ReportOrderWithinOnePhase) {
  // One phase breaking every rule: findings come pair by pair, and
  // within a pair disjointness before locality.
  const ProductGraph pg = grid3();
  expect_both(
      pg, {.pairs = {{4, 4}, {0, 1}, {1, 2}, {0, 6}}, .hop_distance = 1},
      {{ViolationKind::kDegeneratePair, 0, 4, 1, 0,
        "phase 1 pair 0: degenerate pair (node 4 compared with itself)"},
       {ViolationKind::kOverlappingPair, 2, 1, 1, 2,
        "phase 1 pair 2: node 1 already paired this phase (pairs must be "
        "disjoint)"},
       {ViolationKind::kOverlappingPair, 3, 0, 1, 2,
        "phase 1 pair 3: node 0 already paired this phase (pairs must be "
        "disjoint)"}},
      {{ViolationKind::kUnderchargedHop, 3, 0, 2, 1,
        "phase 1 pair 3: charged hop 1 < factor distance 2 between digits "
        "0 and 2 (dimension 2)"}},
      {{ViolationKind::kMemoryDiscipline, 2, 1, 2, 3,
        "phase 1 pair 2: node 1 would hold 3 values (Section 4 allows at "
        "most 2)"},
       {ViolationKind::kMemoryDiscipline, 3, 0, 2, 3,
        "phase 1 pair 3: node 0 would hold 3 values (Section 4 allows at "
        "most 2)"}});
}

TEST(PhaseDisciplineMessages, OutOfRangeEndpointThrowsInBothPaths) {
  const ProductGraph pg = grid3();
  const BrokenPhase b{.pairs = {{0, 9}}};
  try {
    (void)prove(pg, b);
    FAIL() << "prove_schedule accepted an out-of-range endpoint";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "prove_schedule: phase 1 pair 0: pair endpoint out of range");
  }
  try {
    (void)audit(pg, b);
    FAIL() << "StepAuditor accepted an out-of-range endpoint";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "StepAuditor: phase 1 pair 0: pair endpoint out of range");
  }
}

}  // namespace
}  // namespace prodsort
