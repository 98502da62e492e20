#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <span>

#include "analysis/step_auditor.hpp"
#include "core/block_sort.hpp"
#include "core/product_sort.hpp"
#include "core/s2/oracle_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "graph/labeled_factor.hpp"
#include "product/snake_order.hpp"
#include "product/subgraph_view.hpp"
#include "sortnet/zero_one.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/schedule_ir.hpp"
#include "staticcheck/static_prover.hpp"
#include "staticcheck/zero_one_check.hpp"

namespace prodsort {
namespace {

std::vector<Key> random_keys(PNode count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(static_cast<std::size_t>(count));
  for (Key& k : keys) k = static_cast<Key>(rng() % 1000);
  return keys;
}

// ------------------------------------------------------------- recorder

TEST(ScheduleRecorderTest, RecordsTheFullSchedule) {
  const ProductGraph pg(labeled_path(3), 2);
  const ShearsortS2 s2;
  const ScheduleIR ir = record_product_schedule(pg, s2);

  EXPECT_EQ(ir.num_nodes, pg.num_nodes());
  EXPECT_EQ(ir.dims, 2);
  EXPECT_EQ(ir.block_size, 1);
  EXPECT_EQ(ir.topology, "path-3^2");
  EXPECT_EQ(ir.sorter, "shearsort");
  EXPECT_GT(ir.phases().size(), 0u);
  EXPECT_GT(ir.total_pairs(), 0);
  EXPECT_FALSE(ir.any_faulty());
  EXPECT_FALSE(ir.any_tmr());
}

TEST(ScheduleRecorderTest, ScheduleIsDataOblivious) {
  // The recorder's premise: the schedule is a constant of
  // (topology, sorter), independent of the keys.  Record from iota and
  // from a shuffled permutation; the canonical hashes must agree.
  const ProductGraph pg(labeled_cycle(4), 2);
  const SnakeOETS2 s2;
  const std::uint64_t expected =
      record_product_schedule(pg, s2).canonical_hash();

  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  std::iota(keys.begin(), keys.end(), Key{0});
  std::mt19937_64 rng(99);
  std::shuffle(keys.begin(), keys.end(), rng);
  Machine machine(pg, std::move(keys));
  ScheduleRecorder recorder(pg);
  machine.set_observer(&recorder);
  SortOptions options;
  options.s2 = &s2;
  (void)sort_product_network(machine, options);
  EXPECT_EQ(recorder.take().canonical_hash(), expected);
}

TEST(ScheduleRecorderTest, ChainsToNextObserver) {
  // Recorder in front of a StepAuditor: the auditor still sees every
  // phase (stats match the IR), and its validation authority forwards.
  const ProductGraph pg(labeled_path(3), 2);
  const ShearsortS2 s2;
  StepAuditor auditor(pg);
  ScheduleRecorder recorder(pg, &auditor);
  EXPECT_TRUE(recorder.supersedes_validation());

  std::vector<Key> keys = random_keys(pg.num_nodes(), 3);
  Machine machine(pg, std::move(keys));
  machine.set_observer(&recorder);
  SortOptions options;
  options.s2 = &s2;
  (void)sort_product_network(machine, options);

  const ScheduleIR ir = recorder.take();
  EXPECT_EQ(auditor.stats().phases,
            static_cast<std::int64_t>(ir.phases().size()));
  EXPECT_EQ(auditor.stats().pairs, ir.total_pairs());
  EXPECT_TRUE(auditor.clean());
}

TEST(ScheduleRecorderTest, PassiveRecorderDoesNotSupersedeValidation) {
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleRecorder recorder(pg);
  EXPECT_FALSE(recorder.supersedes_validation());
}

TEST(ScheduleRecorderTest, CanonicalHashIgnoresLabels) {
  const ProductGraph pg(labeled_path(3), 2);
  const ShearsortS2 s2;
  ScheduleIR a = record_product_schedule(pg, s2);
  ScheduleIR b = a;
  b.topology = "renamed";
  b.sorter = "other";
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  // ...but not the pairs: rebuild `a` with its first endpoint flipped.
  ScheduleIR c;
  c.num_nodes = a.num_nodes;
  SchedulePhase first = a.phase(0);
  std::vector<CEPair> flipped(first.pairs.begin(), first.pairs.end());
  flipped.front().low ^= 1;
  first.pairs = flipped;
  c.add_phase(first);
  for (std::size_t i = 1; i < a.phases().size(); ++i) c.add_phase(a.phase(i));
  EXPECT_NE(a.canonical_hash(), c.canonical_hash());
}

TEST(ScheduleRecorderTest, GraphFingerprintSeparatesFactors) {
  // Same size, same dims, different factor: schedules could collide by
  // hash, the fingerprint tells the proofs apart.
  EXPECT_NE(graph_fingerprint(ProductGraph(labeled_path(4), 2)),
            graph_fingerprint(ProductGraph(labeled_cycle(4), 2)));
  EXPECT_NE(graph_fingerprint(ProductGraph(labeled_path(4), 2)),
            graph_fingerprint(ProductGraph(labeled_path(4), 3)));
}

TEST(ScheduleRecorderTest, AppliedScheduleReproducesTheSort) {
  // Replaying the recorded schedule on fresh keys is the sort.
  const ProductGraph pg(labeled_path(4), 2);
  const ShearsortS2 s2;
  const ScheduleIR ir = record_product_schedule(pg, s2);

  Machine machine(pg, random_keys(pg.num_nodes(), 17));
  apply_schedule(machine, ir);
  EXPECT_TRUE(machine.snake_sorted(full_view(pg)));

  // Machine keeps a reference to its graph — the graph must outlive it.
  const ProductGraph small(labeled_path(3), 2);
  Machine wrong(small, random_keys(9, 1));
  EXPECT_THROW(apply_schedule(wrong, ir), std::invalid_argument);
}

// --------------------------------------------------------------- prover

TEST(StaticProverTest, ProvesStandardSorters) {
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  const OracleS2 oracle;
  const S2Sorter* sorters[] = {&shearsort, &snake_oet, &oracle};
  for (const LabeledFactor& factor :
       {labeled_path(3), labeled_cycle(4), labeled_k2()}) {
    for (const S2Sorter* s2 : sorters) {
      const ProductGraph pg(factor, factor.size() == 2 ? 3 : 2);
      const ScheduleIR ir = record_product_schedule(pg, *s2);
      const StaticProof proof = prove_schedule(pg, ir);
      EXPECT_TRUE(proof.all_proven())
          << factor.name << " " << s2->name();
      EXPECT_LE(proof.max_resident_values, 2);
      EXPECT_EQ(proof.pairs, ir.total_pairs());
    }
  }
}

TEST(StaticProverTest, OverlappingPairCounterexample) {
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  const CEPair pairs[] = {{0, 1}, {1, 2}};  // node 1 in two pairs
  ir.add_phase({.pairs = pairs});

  const StaticProof proof = prove_schedule(pg, ir);
  EXPECT_FALSE(proof.disjointness.proven);
  EXPECT_FALSE(proof.memory.proven);  // 3 resident values at node 1
  ASSERT_EQ(proof.disjointness.counterexamples.size(), 1u);
  const Violation& v = proof.disjointness.counterexamples.front();
  EXPECT_EQ(v.kind, ViolationKind::kOverlappingPair);
  EXPECT_EQ(v.phase, 0);
  EXPECT_EQ(v.pair_index, 1);
  EXPECT_EQ(v.node, 1);
  EXPECT_EQ(proof.max_resident_values, 3);
  EXPECT_TRUE(proof.locality.proven);  // both pairs are fine locally
}

TEST(StaticProverTest, DegeneratePairCounterexample) {
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  const CEPair pairs[] = {{4, 4}};
  ir.add_phase({.pairs = pairs});

  const StaticProof proof = prove_schedule(pg, ir);
  EXPECT_FALSE(proof.disjointness.proven);
  ASSERT_GE(proof.disjointness.counterexamples.size(), 1u);
  EXPECT_EQ(proof.disjointness.counterexamples.front().kind,
            ViolationKind::kDegeneratePair);
}

TEST(StaticProverTest, CrossDimensionCounterexample) {
  const ProductGraph pg(labeled_path(3), 2);
  // Nodes 0 = (0,0) and 4 = (1,1) differ in both dimensions.
  const CEPair pairs[] = {{0, 4}};
  const auto schedule = [&](int hop_distance) {
    ScheduleIR ir;
    ir.num_nodes = pg.num_nodes();
    ir.add_phase({.pairs = pairs, .hop_distance = hop_distance});
    return ir;
  };
  const ScheduleIR ir = schedule(2);

  StaticProof proof = prove_schedule(pg, ir);
  EXPECT_FALSE(proof.locality.proven);
  ASSERT_EQ(proof.locality.counterexamples.size(), 1u);
  EXPECT_EQ(proof.locality.counterexamples.front().kind,
            ViolationKind::kWrongDimension);
  EXPECT_TRUE(proof.disjointness.proven);

  // The NetworkS2 exemption: cross-dimension pairs are legal when the
  // charged hop covers the full product distance.
  StaticProverOptions options;
  options.allow_cross_dimension = true;
  proof = prove_schedule(pg, ir, options);
  EXPECT_TRUE(proof.locality.proven);

  // ...but an undercharged cross-dimension hop is still caught.
  proof = prove_schedule(pg, schedule(1), options);
  EXPECT_FALSE(proof.locality.proven);
  EXPECT_EQ(proof.locality.counterexamples.front().kind,
            ViolationKind::kUnderchargedHop);
}

TEST(StaticProverTest, UnderchargedHopCounterexample) {
  const ProductGraph pg(labeled_path(4), 2);
  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  // Nodes 0 = (0,0) and 3 = (3,0): distance 3 along dimension 1.
  const CEPair pairs[] = {{0, 3}};
  ir.add_phase({.pairs = pairs, .hop_distance = 2});

  const StaticProof proof = prove_schedule(pg, ir);
  EXPECT_FALSE(proof.locality.proven);
  ASSERT_EQ(proof.locality.counterexamples.size(), 1u);
  const Violation& v = proof.locality.counterexamples.front();
  EXPECT_EQ(v.kind, ViolationKind::kUnderchargedHop);
  EXPECT_EQ(v.expected, 3);
  EXPECT_EQ(v.observed, 2);
}

TEST(StaticProverTest, CounterexampleCapKeepsCounting) {
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  // 20 copies of one pair: every copy after the first overlaps at both
  // endpoints, so 38 findings per property against a cap of 16.
  const std::vector<CEPair> pairs(20, CEPair{0, 1});
  ir.add_phase({.pairs = pairs});

  const StaticProof proof = prove_schedule(pg, ir);
  EXPECT_EQ(proof.disjointness.counterexamples.size(), kMaxCounterexamples);
  EXPECT_EQ(proof.disjointness.violation_count, 38);
  EXPECT_EQ(proof.memory.counterexamples.size(), kMaxCounterexamples);
  EXPECT_EQ(proof.memory.violation_count, 38);
}

TEST(StaticProverTest, DegenerateSchedules) {
  // Empty schedule and empty phases are vacuously proven.
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleIR empty;
  empty.num_nodes = pg.num_nodes();
  EXPECT_TRUE(prove_schedule(pg, empty).all_proven());

  ScheduleIR empty_phase;
  empty_phase.num_nodes = pg.num_nodes();
  empty_phase.add_phase(SchedulePhase{});
  const StaticProof proof = prove_schedule(pg, empty_phase);
  EXPECT_TRUE(proof.all_proven());
  EXPECT_EQ(proof.phases, 1);
  EXPECT_EQ(proof.pairs, 0);

  // Single-dimension product (r = 1): one legal pair along the path.
  const ProductGraph line(labeled_path(2), 1);
  ScheduleIR single;
  single.num_nodes = line.num_nodes();
  const CEPair edge[] = {{0, 1}};
  single.add_phase({.pairs = edge});
  EXPECT_TRUE(prove_schedule(line, single).all_proven());

  // Out-of-range endpoints are a hard error, not a counterexample.
  ScheduleIR bad;
  bad.num_nodes = pg.num_nodes();
  const CEPair out_of_range[] = {{0, 99}};
  bad.add_phase({.pairs = out_of_range});
  EXPECT_THROW((void)prove_schedule(pg, bad), std::logic_error);
  EXPECT_THROW((void)prove_schedule(ProductGraph(labeled_path(4), 2), empty),
               std::invalid_argument);
}

TEST(StaticProverTest, AgreesWithStepAuditorOnBrokenSchedule) {
  // The same broken phase, judged statically and dynamically, yields
  // the same violation kinds — the two auditors share one taxonomy.
  const ProductGraph pg(labeled_path(3), 2);
  const std::vector<CEPair> pairs = {{0, 1}, {1, 2}, {3, 3}};

  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  ir.add_phase({.pairs = pairs});
  const StaticProof proof = prove_schedule(pg, ir);

  AuditorConfig config;
  config.throw_on_violation = false;
  StepAuditor auditor(pg, config);
  std::vector<Key> keys = random_keys(pg.num_nodes(), 5);
  auditor.before_phase(keys, pairs, 1, 1, false);
  auditor.after_phase(keys);

  std::vector<ViolationKind> static_kinds, dynamic_kinds;
  for (const Violation& v : proof.disjointness.counterexamples)
    static_kinds.push_back(v.kind);
  for (const Violation& v : auditor.violations())
    dynamic_kinds.push_back(v.kind);
  EXPECT_EQ(static_kinds, dynamic_kinds);
}

// ------------------------------------------------------------- zero-one

TEST(ZeroOneCheckTest, LowersOverSnakeRanks) {
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  const CEPair pairs[] = {{0, 1}};
  ir.add_phase({.pairs = pairs});

  const LoweredSchedule lowered = lower_to_comparators(pg, ir);
  EXPECT_EQ(lowered.width, 9);
  ASSERT_EQ(lowered.comparators.size(), 1u);
  EXPECT_EQ(lowered.comparators[0].low,
            static_cast<int>(snake_rank(pg, 0)));
  EXPECT_EQ(lowered.comparators[0].high,
            static_cast<int>(snake_rank(pg, 1)));
  EXPECT_EQ(lowered.phase_of[0], 0);

  const LoweredSchedule identity = lower_to_comparators(pg, ir, false);
  EXPECT_EQ(identity.comparators[0].low, 0);
  EXPECT_EQ(identity.comparators[0].high, 1);
}

TEST(ZeroOneCheckTest, ProvesRecordedSchedulesExhaustively) {
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  for (const S2Sorter* s2 :
       {static_cast<const S2Sorter*>(&shearsort),
        static_cast<const S2Sorter*>(&snake_oet)}) {
    const ProductGraph pg(labeled_path(3), 2);
    const ScheduleIR ir = record_product_schedule(pg, *s2);
    const ZeroOneCheckResult result =
        check_zero_one(lower_to_comparators(pg, ir));
    EXPECT_TRUE(result.proven()) << s2->name();
    EXPECT_EQ(result.cert.inputs_tested, 512);  // all 2^9
  }
}

TEST(ZeroOneCheckTest, BrokenScheduleYieldsMinimizedWitness) {
  // Truncate a snake OET schedule to its opening phase: some 0-1 input
  // must survive unsorted, and the greedy minimization strips 1s while
  // the input keeps failing.
  const ProductGraph pg(labeled_path(3), 2);
  const ScheduleIR full = record_product_schedule(pg, SnakeOETS2{});
  ASSERT_GT(full.phases().size(), 1u);
  ScheduleIR ir;
  ir.num_nodes = full.num_nodes;
  ir.add_phase(full.phase(0));

  const LoweredSchedule lowered = lower_to_comparators(pg, ir);
  const auto ones = [](const std::vector<Key>& v) {
    return std::count(v.begin(), v.end(), Key{1});
  };
  ZeroOneCheckOptions raw;
  raw.minimize_witness = false;
  const ZeroOneCheckResult unminimized = check_zero_one(lowered, raw);
  const ZeroOneCheckResult minimized = check_zero_one(lowered);
  ASSERT_FALSE(unminimized.sorts());
  ASSERT_FALSE(minimized.sorts());
  ASSERT_EQ(minimized.cert.witness.size(), 9u);
  EXPECT_FALSE(schedule_sorts_input(lowered, minimized.cert.witness));
  EXPECT_EQ(ones(minimized.cert.witness),
            ones(unminimized.cert.witness) - minimized.witness_ones_removed);
  // Characterization of the greedy pass on this schedule: the surviving
  // witness is locally minimal — losing any remaining 1 makes it sort.
  std::vector<Key> probe = minimized.cert.witness;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (probe[i] == 0) continue;
    probe[i] = 0;
    EXPECT_TRUE(schedule_sorts_input(lowered, probe)) << i;
    probe[i] = 1;
  }
}

TEST(ZeroOneCheckTest, SampledModeIsDeterministic) {
  const ProductGraph pg(labeled_path(3), 3);  // 27 wires: beyond cutoff
  const ScheduleIR ir = record_product_schedule(pg, ShearsortS2{});
  const LoweredSchedule lowered = lower_to_comparators(pg, ir);

  ZeroOneCheckOptions options;
  options.max_exhaustive_width = 22;
  options.sample_budget = 256;
  options.seed = 42;
  const ZeroOneCheckResult a = check_zero_one(lowered, options);
  const ZeroOneCheckResult b = check_zero_one(lowered, options);
  EXPECT_FALSE(a.cert.exhaustive);
  EXPECT_TRUE(a.sorts());
  EXPECT_FALSE(a.proven());  // sampled: evidence, not proof
  EXPECT_EQ(a.cert.inputs_tested, b.cert.inputs_tested);

  options.seed = 43;  // a different stream is a different computation
  const ZeroOneCheckResult c = check_zero_one(lowered, options);
  EXPECT_TRUE(c.sorts());
}

TEST(ZeroOneCheckTest, WidthOneSortsTrivially) {
  LoweredSchedule one;
  one.width = 1;
  const ZeroOneCheckResult result = check_zero_one(one);
  EXPECT_TRUE(result.proven());
  EXPECT_EQ(result.cert.inputs_tested, 2);
}

TEST(ZeroOneEngineTest, BitParallelMatchesBlackBoxBitForBit) {
  // Satellite contract of the dedupe: the bit-parallel engine and the
  // black-box certifier consume the same input stream and must agree on
  // inputs_tested and the witness, exhaustively and sampled.
  std::vector<Comparator> broken = {{0, 1}, {2, 3}};  // width 4, no merge
  const auto algorithm = [&](std::span<Key> v) {
    for (const Comparator& c : broken) {
      if (v[static_cast<std::size_t>(c.low)] >
          v[static_cast<std::size_t>(c.high)])
        std::swap(v[static_cast<std::size_t>(c.low)],
                  v[static_cast<std::size_t>(c.high)]);
    }
  };
  for (const std::int64_t budget : {std::int64_t{16}, std::int64_t{7}}) {
    const ZeroOneCertificate scalar =
        certify_zero_one(4, algorithm, budget, 9);
    const ZeroOneCertificate parallel =
        certify_comparators_zero_one(4, broken, budget, 9).cert;
    EXPECT_EQ(scalar.exhaustive, parallel.exhaustive) << budget;
    EXPECT_EQ(scalar.inputs_tested, parallel.inputs_tested) << budget;
    EXPECT_EQ(scalar.failures, parallel.failures) << budget;
    EXPECT_EQ(scalar.witness, parallel.witness) << budget;
  }
}

// ------------------------------------------------------------- dataflow

TEST(DataflowTest, RelationDomainKillsRepeatedComparators) {
  const ProductGraph pg(labeled_path(2), 1);
  ScheduleIR ir;
  ir.num_nodes = 2;
  const CEPair pairs[] = {{0, 1}};
  ir.add_phase({.pairs = pairs});
  ir.add_phase({.pairs = pairs});  // identical pair again: dead

  const LoweredSchedule lowered = lower_to_comparators(pg, ir);
  const DataflowReport report = analyze_dataflow(lowered, ir);
  EXPECT_TRUE(report.relation_ran);
  ASSERT_EQ(report.dead.size(), 2u);
  EXPECT_EQ(report.dead[0], 0);
  EXPECT_EQ(report.dead[1], 1);
  EXPECT_GE(report.dead_by_relation, 1);
  EXPECT_EQ(report.saved_steps_prune, 1);  // second phase empties out
}

TEST(DataflowTest, AppendedRedundantPassIsDeadAndPrunable) {
  // Append a full re-run of the final phase to a proven sorter: every
  // appended pair is dead (the sorted prefix never exchanges again),
  // pruning drops the phase, and the replay matches end to end with
  // strictly fewer charged steps.
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleIR ir = record_product_schedule(pg, ShearsortS2{});
  const std::size_t original_phases = ir.phases().size();
  SchedulePhase last = ir.phases().back();
  const std::vector<CEPair> last_pairs(last.pairs.begin(), last.pairs.end());
  last.pairs = last_pairs;  // add_phase must not read the IR it grows
  ir.add_phase(last);

  const LoweredSchedule lowered = lower_to_comparators(pg, ir);
  const DataflowReport report = analyze_dataflow(lowered, ir);
  ASSERT_TRUE(report.dead_exact);
  const std::size_t appended = ir.phases().back().pairs.size();
  std::int64_t appended_dead = 0;
  for (std::size_t k = report.dead.size() - appended; k < report.dead.size();
       ++k)
    appended_dead += report.dead[k];
  EXPECT_EQ(appended_dead, static_cast<std::int64_t>(appended));

  const ScheduleIR pruned = prune_schedule(ir, report.dead);
  EXPECT_LE(pruned.phases().size(), original_phases);

  const std::vector<Key> keys = random_keys(pg.num_nodes(), 23);
  Machine full(pg, keys), slim(pg, keys);
  apply_schedule(full, ir);
  apply_schedule(slim, pruned);
  EXPECT_TRUE(std::equal(full.keys().begin(), full.keys().end(),
                         slim.keys().begin()));
  EXPECT_LT(slim.cost().exec_steps, full.cost().exec_steps);
  EXPECT_LT(slim.cost().comparisons, full.cost().comparisons);
}

TEST(DataflowTest, ShearsortCarriesProvablyDeadComparators) {
  // The acceptance case: shearsort's fixed iteration count over-runs
  // once the grid is sorted, so the exact 0-1 activity analysis finds
  // genuinely dead comparators in the unmodified recorded schedule —
  // and the pruned schedule still sorts every input (0-1 proof), with
  // fewer charged comparisons end-to-end.
  const ProductGraph pg(labeled_path(4), 2);
  const ScheduleIR ir = record_product_schedule(pg, ShearsortS2{});
  const LoweredSchedule lowered = lower_to_comparators(pg, ir);
  const DataflowReport report = analyze_dataflow(lowered, ir);
  ASSERT_TRUE(report.dead_exact);
  EXPECT_GT(report.dead_total(), 0);

  const ScheduleIR pruned = prune_schedule(ir, report.dead);
  EXPECT_TRUE(
      check_zero_one(lower_to_comparators(pg, pruned)).proven());

  const std::vector<Key> keys = random_keys(pg.num_nodes(), 31);
  Machine full(pg, keys), slim(pg, keys);
  apply_schedule(full, ir);
  apply_schedule(slim, pruned);
  EXPECT_TRUE(slim.snake_sorted(full_view(pg)));
  EXPECT_TRUE(std::equal(full.keys().begin(), full.keys().end(),
                         slim.keys().begin()));
  EXPECT_LT(slim.cost().comparisons, full.cost().comparisons);
  if (report.saved_steps_prune > 0) {
    EXPECT_LT(slim.cost().exec_steps, full.cost().exec_steps);
  }
}

TEST(DataflowTest, FusionFindsDisjointAdjacentPhases) {
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  const CEPair a[] = {{0, 1}};
  const CEPair b[] = {{2, 5}};  // disjoint from a: fusable boundary
  const CEPair c[] = {{0, 1}};  // overlaps b?  no — but a+b already consumed
  ir.add_phase({.pairs = a, .hop_distance = 1});
  ir.add_phase({.pairs = b, .hop_distance = 1});
  ir.add_phase({.pairs = c, .hop_distance = 1});

  const DataflowReport report =
      analyze_dataflow(lower_to_comparators(pg, ir), ir);
  ASSERT_EQ(report.fusions.size(), 1u);
  EXPECT_EQ(report.fusions[0].first_phase, 0);
  EXPECT_EQ(report.fusions[0].saved_hops, 1);
  EXPECT_EQ(report.saved_steps_fusion, 1);
}

TEST(DataflowTest, CriticalPathAndSlack) {
  // Two sequentially dependent comparators spread over three phases:
  // depth 2, slack 1.
  const ProductGraph pg(labeled_path(3), 2);
  ScheduleIR ir;
  ir.num_nodes = pg.num_nodes();
  const CEPair a[] = {{0, 1}};
  const CEPair b[] = {{1, 2}};
  ir.add_phase({.pairs = a});
  ir.add_phase({.pairs = b});
  ir.add_phase({});  // empty trailing phase

  const DataflowReport report =
      analyze_dataflow(lower_to_comparators(pg, ir), ir);
  EXPECT_EQ(report.phase_count, 3);
  EXPECT_EQ(report.critical_path, 2);
  EXPECT_EQ(report.slack, 1);
}

TEST(DataflowTest, PruneValidatesFlagCount) {
  const ProductGraph pg(labeled_path(3), 2);
  const ScheduleIR ir = record_product_schedule(pg, ShearsortS2{});
  EXPECT_THROW((void)prune_schedule(ir, std::vector<std::uint8_t>(3, 0)),
               std::invalid_argument);
}

// ---------------------------------------------- statically-audited mode

TEST(StaticallyAuditedTest, SkipsTheDisjointnessSweep) {
  const ProductGraph pg(labeled_path(3), 2);
  const std::vector<CEPair> overlapping = {{0, 1}, {1, 2}};

  Machine machine(pg, random_keys(pg.num_nodes(), 7));
  machine.set_check_disjoint(true);
  EXPECT_THROW(machine.compare_exchange_step(overlapping), std::logic_error);

  machine.set_statically_audited(true);
  EXPECT_TRUE(machine.statically_audited());
  EXPECT_NO_THROW(machine.compare_exchange_step(overlapping));

  machine.set_statically_audited(false);
  EXPECT_THROW(machine.compare_exchange_step(overlapping), std::logic_error);
}

TEST(StaticallyAuditedTest, ProvenScheduleRunsIdentically) {
  // The mode only skips validation; results are bit-identical.
  const ProductGraph pg(labeled_path(4), 2);
  const ScheduleIR ir = record_product_schedule(pg, ShearsortS2{});
  ASSERT_TRUE(prove_schedule(pg, ir).all_proven());

  const std::vector<Key> keys = random_keys(pg.num_nodes(), 11);
  Machine checked(pg, keys), audited(pg, keys);
  checked.set_check_disjoint(true);
  audited.set_check_disjoint(true);
  audited.set_statically_audited(true);
  apply_schedule(checked, ir);
  apply_schedule(audited, ir);
  EXPECT_TRUE(std::equal(checked.keys().begin(), checked.keys().end(),
                         audited.keys().begin()));
  EXPECT_EQ(checked.cost().exec_steps, audited.cost().exec_steps);
}

// ---------------------------------------------------------------- block

TEST(BlockScheduleTest, RecordsAndCertifiesBlockSchedules) {
  // Block schedules certify at unit granularity (Knuth 5.3.4): the
  // merge-split pair schedule, lowered to unit comparators, must sort
  // all 0-1 inputs — and the real block machine then sorts too.
  const ProductGraph pg(labeled_path(3), 2);
  const BlockShearsortS2 s2;
  const ScheduleIR ir = record_block_schedule(pg, s2, 4);
  EXPECT_EQ(ir.block_size, 4);
  EXPECT_EQ(ir.sorter, "block-shearsort");
  EXPECT_TRUE(prove_schedule(pg, ir).all_proven());
  EXPECT_TRUE(check_zero_one(lower_to_comparators(pg, ir)).proven());
}

}  // namespace
}  // namespace prodsort
