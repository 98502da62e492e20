// Differential test of SortPlan replay against schedule generation.  For
// every data-oblivious S2 sorter on three topologies and five fault
// settings, a machine that replays the recorded plan and one that
// regenerates the schedule must agree on the output keys, every
// CostModel field, every FaultCounters field, the phase a CrashInterrupt
// fires at, the emitted PhaseRecord trace, and the canonical hash of the
// schedule an observer sees.

#include "core/sort_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/certifier.hpp"
#include "core/s2/network_s2.hpp"
#include "core/s2/oracle_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "graph/labeled_factor.hpp"
#include "network/recovery.hpp"
#include "product/snake_order.hpp"
#include "sortnet/batcher.hpp"
#include "staticcheck/schedule_ir.hpp"

namespace prodsort {
namespace {

struct Topology {
  const char* name;
  LabeledFactor (*factor)();
  int dims;
};

const Topology kTopologies[] = {
    {"cycle4^3", [] { return labeled_cycle(4); }, 3},
    {"path3^4", [] { return labeled_path(3); }, 4},
    {"k2^6", labeled_k2, 6},
};

// The three data-oblivious sorters for one topology; NetworkS2 runs a
// sorting network of width N^2 (bitonic when N^2 is a power of two).
std::vector<std::unique_ptr<S2Sorter>> sorters(const ProductGraph& pg) {
  const int width = static_cast<int>(pg.radix() * pg.radix());
  std::vector<std::unique_ptr<S2Sorter>> out;
  out.push_back(std::make_unique<SnakeOETS2>());
  out.push_back(std::make_unique<ShearsortS2>());
  out.push_back(std::make_unique<NetworkS2>(
      std::has_single_bit(static_cast<unsigned>(width))
          ? bitonic_sort_network(width)
          : odd_even_transposition_network(width)));
  return out;
}

std::vector<Key> input_keys(const ProductGraph& pg) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(pg.num_nodes()));
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  for (Key& k : keys) k = static_cast<Key>(rng() % 40);  // duplicates
  return keys;
}

std::unique_ptr<const SortPlan> record_plan(const ProductGraph& pg,
                                            const S2Sorter& s2) {
  Machine probe(pg, input_keys(pg));
  SortOptions options;
  options.s2 = &s2;
  return SortPlan::record(probe, options);
}

enum class Setting {
  kNone,
  kDropsAndCorruption,
  kComparatorWindow,
  kCrashRollback,
  kTmr,
};

const Setting kSettings[] = {Setting::kNone, Setting::kDropsAndCorruption,
                             Setting::kComparatorWindow,
                             Setting::kCrashRollback, Setting::kTmr};

std::string to_string(Setting s) {
  const char* const names[] = {"none", "drops+corruption", "comparator window",
                               "crash rollback", "tmr"};
  return names[static_cast<int>(s)];
}

// A node no pair of `step` touches: a crash there has no live copy, so
// the machine interrupts and recovery must roll back.
PNode idle_node(const ProductGraph& pg, std::span<const CEPair> pairs) {
  std::vector<char> busy(static_cast<std::size_t>(pg.num_nodes()), 0);
  for (const CEPair& p : pairs) {
    busy[static_cast<std::size_t>(p.low)] = 1;
    busy[static_cast<std::size_t>(p.high)] = 1;
  }
  const auto it = std::find(busy.begin(), busy.end(), 0);
  return it == busy.end() ? -1 : static_cast<PNode>(it - busy.begin());
}

FaultConfig fault_config(Setting setting, const ProductGraph& pg,
                         const SortPlan& plan) {
  FaultConfig config;
  config.seed = 17;
  switch (setting) {
    case Setting::kNone:
      break;
    case Setting::kDropsAndCorruption:
      config.ce_drop_rate = 0.03;
      config.key_corrupt_rate = 0.01;
      break;
    case Setting::kTmr:
      config.ce_drop_rate = 0.02;
      [[fallthrough]];
    case Setting::kComparatorWindow:
      config.comparator_schedule.push_back(
          {.node = 5,
           .from_phase = 3,
           .until_phase = 40,
           .kind = ComparatorFaultKind::kInverted});
      break;
    case Setting::kCrashRollback:
      for (std::size_t s = 2; s < plan.schedule().phases().size(); ++s) {
        const PNode node = idle_node(pg, plan.schedule().phase(s).pairs);
        if (node >= 0) {
          config.crash_schedule.push_back(
              {.node = node, .phase = static_cast<std::int64_t>(s)});
          break;
        }
      }
      EXPECT_FALSE(config.crash_schedule.empty()) << "no idle node";
      break;
  }
  return config;
}

struct Outcome {
  std::vector<Key> keys;
  CostModel cost;
  FaultCounters counters;
  std::int64_t crash_phase = -1;
  PNode crash_node = -1;
  int rollbacks = 0;
  std::vector<PhaseRecord> trace;
  std::uint64_t schedule_hash = 0;
};

// One sort on a fresh machine: plain sort_product_network, or under the
// RecoveryController ladder when `recover` is set.
Outcome run(const ProductGraph& pg, const S2Sorter& s2, const SortPlan* plan,
            Setting setting, const FaultConfig& config, bool recover,
            ParallelExecutor* executor = nullptr) {
  Machine machine(pg, input_keys(pg), executor);
  machine.set_plan(plan);
  machine.set_tmr(setting == Setting::kTmr);
  FaultModel faults(config);
  if (setting != Setting::kNone) machine.set_fault_model(&faults);
  ScheduleRecorder recorder(pg);
  machine.set_observer(&recorder);

  Outcome out;
  SortOptions options;
  options.s2 = &s2;
  options.trace = &out.trace;
  try {
    if (recover) {
      RecoveryController controller(machine);
      out.rollbacks = controller.run(options).rollbacks;
    } else {
      (void)sort_product_network(machine, options);
    }
  } catch (const CrashInterrupt& crash) {
    out.crash_phase = crash.phase();
    out.crash_node = crash.node();
  }
  out.keys.assign(machine.keys().begin(), machine.keys().end());
  out.cost = machine.cost();
  out.counters = faults.counters();
  out.schedule_hash = recorder.take().canonical_hash();
  return out;
}

void expect_same(const Outcome& replayed, const Outcome& generated) {
  EXPECT_EQ(replayed.keys, generated.keys);
  CostModel::fields(
      [](const char* name, const auto& r, const auto& g) {
        EXPECT_EQ(r, g) << "CostModel::" << name;
      },
      replayed.cost, generated.cost);
  const FaultCounters& r = replayed.counters;
  const FaultCounters& g = generated.counters;
  EXPECT_EQ(r.ce_drops, g.ce_drops);
  EXPECT_EQ(r.key_corruptions, g.key_corruptions);
  EXPECT_EQ(r.straggler_phases, g.straggler_phases);
  EXPECT_EQ(r.crashes, g.crashes);
  EXPECT_EQ(r.comparator_faults, g.comparator_faults);
  EXPECT_EQ(r.decisions, g.decisions);
  EXPECT_EQ(replayed.crash_phase, generated.crash_phase);
  EXPECT_EQ(replayed.crash_node, generated.crash_node);
  EXPECT_EQ(replayed.rollbacks, generated.rollbacks);
  EXPECT_EQ(replayed.schedule_hash, generated.schedule_hash);
  ASSERT_EQ(replayed.trace.size(), generated.trace.size());
  for (std::size_t i = 0; i < replayed.trace.size(); ++i) {
    const PhaseRecord& a = replayed.trace[i];
    const PhaseRecord& b = generated.trace[i];
    EXPECT_EQ(a.kind, b.kind) << "trace " << i;
    EXPECT_EQ(a.lo, b.lo) << "trace " << i;
    EXPECT_EQ(a.hi, b.hi) << "trace " << i;
    EXPECT_EQ(a.weight, b.weight) << "trace " << i;
    EXPECT_EQ(a.units, b.units) << "trace " << i;
  }
}

TEST(SortPlanTest, ReplayMatchesGenerationUnderEveryFaultSetting) {
  for (const Topology& topo : kTopologies) {
    const ProductGraph pg(topo.factor(), topo.dims);
    for (const auto& s2 : sorters(pg)) {
      const auto plan = record_plan(pg, *s2);
      ASSERT_NE(plan, nullptr) << topo.name << " " << s2->name();
      EXPECT_EQ(plan->canonical_hash(),
                record_product_schedule(pg, *s2).canonical_hash());
      for (const Setting setting : kSettings) {
        SCOPED_TRACE(std::string(topo.name) + " " + s2->name() + " " +
                     to_string(setting));
        const FaultConfig config = fault_config(setting, pg, *plan);
        for (const bool recover : {false, true}) {
          const Outcome replayed =
              run(pg, *s2, plan.get(), setting, config, recover);
          const Outcome generated =
              run(pg, *s2, nullptr, setting, config, recover);
          expect_same(replayed, generated);
          // Each setting really exercises its fault path.
          switch (setting) {
            case Setting::kNone:
              break;
            case Setting::kDropsAndCorruption:
              EXPECT_GT(generated.counters.ce_drops, 0);
              break;
            case Setting::kComparatorWindow:
              EXPECT_GT(generated.counters.comparator_faults, 0);
              break;
            case Setting::kCrashRollback:
              EXPECT_GE(recover ? generated.rollbacks : generated.crash_phase,
                        recover ? 1 : 0);
              break;
            case Setting::kTmr:
              EXPECT_GT(generated.cost.tmr_masked, 0);
              break;
          }
          if (setting == Setting::kNone && !recover) {
            EXPECT_EQ(replayed.schedule_hash, plan->canonical_hash());
          }
        }
      }
    }
  }
}

TEST(SortPlanTest, ReplayOnAFourThreadExecutorMatchesGeneration) {
  ParallelExecutor executor(4);
  const ProductGraph pg(labeled_cycle(4), 3);
  const SnakeOETS2 s2;
  const auto plan = record_plan(pg, s2);
  ASSERT_NE(plan, nullptr);
  const FaultConfig config = fault_config(Setting::kTmr, pg, *plan);
  expect_same(run(pg, s2, plan.get(), Setting::kTmr, config, true, &executor),
              run(pg, s2, nullptr, Setting::kTmr, config, true));
}

TEST(SortPlanTest, RecordsTheTraceTheSortEmits) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const ShearsortS2 s2;
  Machine probe(pg, input_keys(pg));
  std::vector<PhaseRecord> trace;
  SortOptions options;
  options.s2 = &s2;
  options.trace = &trace;
  const auto plan = SortPlan::record(probe, options);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->groups().size(), trace.size());
  // Theorem 1: (r-1)^2 S2 phases and (r-1)(r-2) transposition phases.
  EXPECT_EQ(trace.size(), 4u + 2u);
  EXPECT_EQ(plan->exec_steps(), probe.cost().exec_steps);
  EXPECT_TRUE(probe.snake_sorted(full_view(pg)));
}

TEST(SortPlanTest, RankTableMatchesTheGeneratedSnake) {
  const ProductGraph pg(labeled_path(3), 4);
  const SnakeOETS2 s2;
  const auto plan = record_plan(pg, s2);
  ASSERT_NE(plan, nullptr);
  const ViewSpec full = full_view(pg);
  ASSERT_EQ(plan->snake_order().size(),
            static_cast<std::size_t>(pg.num_nodes()));
  for (PNode rank = 0; rank < pg.num_nodes(); ++rank)
    EXPECT_EQ(plan->snake_order()[static_cast<std::size_t>(rank)],
              view_node_at_snake_rank(pg, full, rank));

  // read_snake gathers through the table for the full view only, and
  // the repair pass pairs the same nodes with or without it.
  Machine planned(pg, input_keys(pg));
  Machine generated(pg, input_keys(pg));
  planned.set_plan(plan.get());
  EXPECT_EQ(planned.planned_snake(full).size(), plan->snake_order().size());
  EXPECT_TRUE(planned.planned_snake(all_views(pg, 1, 2).front()).empty());
  EXPECT_EQ(planned.read_snake(full), generated.read_snake(full));
  const Certifier certifier(planned.keys());
  const RepairReport a = certify_and_repair(planned, full, certifier);
  const RepairReport b = certify_and_repair(generated, full, certifier);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(planned.read_snake(full), generated.read_snake(full));
}

TEST(SortPlanTest, KeyReadingSortersAndFaultyProbesRecordNoPlan) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const OracleS2 oracle;
  EXPECT_FALSE(oracle.data_oblivious());
  EXPECT_EQ(record_plan(pg, oracle), nullptr);

  Machine unset(pg, input_keys(pg));
  EXPECT_EQ(SortPlan::record(unset, SortOptions{}), nullptr);
  EXPECT_TRUE(unset.snake_sorted(full_view(pg)));  // the sort still ran

  const SnakeOETS2 s2;
  Machine faulty(pg, input_keys(pg));
  FaultModel faults(FaultConfig{});
  faulty.set_fault_model(&faults);
  SortOptions options;
  options.s2 = &s2;
  EXPECT_EQ(SortPlan::record(faulty, options), nullptr);
}

TEST(SortPlanTest, ValidateLevelsAndOtherSortersKeepGenerating) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const SnakeOETS2 s2;
  const ShearsortS2 other;
  const auto plan = record_plan(pg, s2);
  ASSERT_NE(plan, nullptr);
  SortOptions options;
  options.s2 = &s2;
  EXPECT_TRUE(plan->replays(options));
  options.validate_levels = true;
  EXPECT_FALSE(plan->replays(options));
  options.validate_levels = false;
  options.s2 = &other;
  EXPECT_FALSE(plan->replays(options));

  // A machine carrying the snake-OET plan still sorts with shearsort.
  Machine machine(pg, input_keys(pg));
  machine.set_plan(plan.get());
  const SortReport report = sort_product_network(machine, options);
  EXPECT_TRUE(machine.snake_sorted(full_view(pg)));
  EXPECT_EQ(report.cost.exec_steps, record_plan(pg, other)->exec_steps());
}

TEST(SortPlanTest, ReplayOnAnotherGraphThrows) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const ProductGraph other(labeled_cycle(4), 3);
  const SnakeOETS2 s2;
  const auto plan = record_plan(pg, s2);
  ASSERT_NE(plan, nullptr);
  Machine machine(other, input_keys(other));
  EXPECT_THROW(machine.set_plan(plan.get()), std::invalid_argument);
  SortOptions options;
  options.s2 = &s2;
  EXPECT_THROW((void)plan->replay(machine, options), std::invalid_argument);
}

}  // namespace
}  // namespace prodsort
