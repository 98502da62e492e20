// Fault-tolerance envelope: sort success rate and slowdown under
// injected faults.  Sweeps compare-exchange/packet drop rate x number of
// permanently failed (non-cut) links on an executable sorter, reporting
// per-cell success rate, exec-step slowdown vs the fault-free run, retry
// and reroute counts, recovery work, and worst packet-path dilation.
// The fault-free column doubles as a regression sentinel: with no
// FaultModel attached the exec_steps must match a plain run exactly.
//
// A second sweep measures fail-stop crash recovery overhead vs the
// checkpoint interval: frequent snapshots cost checkpoint_steps up
// front but keep rollbacks cheap; sparse ones invert the trade.  The
// curve is exported as BENCH_fault_recovery.json for the perf
// trajectory.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>

#include "bench_util.hpp"
#include "core/certifier.hpp"
#include "core/product_sort.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "network/packet_sim.hpp"
#include "network/recovery.hpp"

namespace {

using namespace prodsort;
using bench::Table;
using bench::fmt;

struct Cell {
  int trials = 0;
  int sorted = 0;
  int recovered = 0;
  double slowdown = 0;  // mean exec_steps ratio vs fault-free
  std::int64_t retries = 0;
  std::int64_t reroutes = 0;
  std::int64_t recovery_steps = 0;
  double dilation = 1.0;  // worst packet-path stretch
};

/// Per-checkpoint-interval aggregate of the crash-recovery sweep.
struct RecoveryCell {
  int interval = 0;
  int trials = 0;
  int sorted = 0;
  int data_loss = 0;
  std::int64_t crashes = 0;
  std::int64_t checkpoints = 0;
  std::int64_t checkpoint_steps = 0;
  std::int64_t recovery_steps = 0;
  std::int64_t rollbacks = 0;
  std::int64_t remaps = 0;
  double overhead = 0;  // mean exec_steps ratio vs fault-free
};

/// Synchronous-phase count of the fault-free schedule: an attached
/// all-zero FaultModel only ticks the clock, so the run is bit-identical
/// to a plain sort and fault_phase() reads the schedule length.
std::int64_t probe_phases(const ProductGraph& pg, const SortOptions& options) {
  FaultConfig tick;  // all rates zero: the model only ticks the clock
  FaultModel clock(tick);
  Machine m(pg, bench::random_keys(pg.num_nodes(), 1), nullptr);
  m.set_fault_model(&clock);
  (void)sort_product_network(m, options);
  return m.fault_phase();
}

void write_recovery_json(const std::vector<RecoveryCell>& cells,
                         const char* family, int r, PNode nodes, int trials,
                         std::int64_t base_steps) {
  using bench::JsonValue;
  JsonValue curves = JsonValue::array();
  for (const RecoveryCell& c : cells) {
    curves.push(JsonValue::object()
                    .set("interval", c.interval)
                    .set("sorted", c.sorted)
                    .set("data_loss", c.data_loss)
                    .set("crashes", c.crashes)
                    .set("checkpoints", c.checkpoints)
                    .set("checkpoint_steps", c.checkpoint_steps)
                    .set("recovery_steps", c.recovery_steps)
                    .set("rollbacks", c.rollbacks)
                    .set("remaps", c.remaps)
                    .set("overhead", c.overhead / c.trials));
  }
  JsonValue root = JsonValue::object()
                       .set("bench", "fault_recovery")
                       .set("topology", JsonValue::object()
                                            .set("factor", family)
                                            .set("r", r)
                                            .set("nodes", std::int64_t{nodes}))
                       .set("trials_per_interval", trials)
                       .set("baseline_exec_steps", base_steps)
                       .set("curves", std::move(curves));
  bench::export_json("BENCH_fault_recovery", root);
}

}  // namespace

int main() {
  std::printf("fault tolerance: success rate and slowdown vs fault rate\n\n");

  const LabeledFactor factor = labeled_cycle(6);
  const int r = 3;  // 216 nodes: executable sorter stays fast
  const ProductGraph pg(factor, r);
  const SnakeOETS2 oet;
  const int kTrials = 25;

  // Fault-free baseline exec_steps for the slowdown denominator.
  std::int64_t base_steps = 0;
  {
    Machine m(pg, bench::random_keys(pg.num_nodes(), 1), nullptr);
    SortOptions options;
    options.s2 = &oet;
    (void)sort_product_network(m, options);
    base_steps = m.cost().exec_steps;
  }

  const double rates[] = {0.0, 1e-4, 1e-3, 5e-3};
  const int link_counts[] = {0, 1, 2};

  Table table({"drop rate", "failed links", "sorted", "recovered",
               "slowdown", "retries", "reroutes", "recovery", "dilation"});
  std::mt19937_64 rng(29);
  for (const double rate : rates) {
    for (const int links : link_counts) {
      Cell cell;
      for (int trial = 0; trial < kTrials; ++trial) {
        FaultConfig config;
        config.seed = 100 + static_cast<std::uint64_t>(trial);
        config.ce_drop_rate = rate;
        config.packet_drop_rate = rate;
        config.failed_links = links;
        // The 0/0 cell is the attached-but-inert sentinel; every other
        // cell also carries one 4x straggler.
        config.stragglers = (rate == 0.0 && links == 0) ? 0 : 1;
        config.straggler_factor = 4;
        FaultModel fm(config);
        fm.select_stragglers(pg.num_nodes());

        const auto keys =
            bench::random_keys(pg.num_nodes(), 40 + static_cast<unsigned>(trial));
        const Certifier certifier(keys);
        Machine m(pg, keys, nullptr);
        m.set_fault_model(&fm);
        SortOptions options;
        options.s2 = &oet;
        (void)sort_product_network(m, options);

        const RepairReport report = certify_and_repair(
            m, full_view(pg), certifier,
            {.max_passes = static_cast<int>(pg.num_nodes()) + 4});
        const auto got = m.read_snake(full_view(pg));
        std::vector<Key> expected = keys;
        std::sort(expected.begin(), expected.end());

        ++cell.trials;
        cell.sorted += got == expected;
        cell.recovered += report.outcome == RepairOutcome::kRepaired;
        cell.slowdown += static_cast<double>(m.cost().exec_steps) /
                         static_cast<double>(base_steps);
        cell.retries += m.cost().retries;
        cell.recovery_steps += report.repair_steps;

        // Packet layer on the factor graph: retry + reroute behavior.
        std::vector<NodeId> dest(static_cast<std::size_t>(factor.size()));
        std::iota(dest.begin(), dest.end(), 0);
        std::shuffle(dest.begin(), dest.end(), rng);
        const PacketStats stats = simulate_permutation(factor.graph, dest, &fm);
        cell.retries += stats.retries;
        cell.reroutes += stats.reroutes;
        cell.dilation = std::max(cell.dilation, stats.dilation);
      }

      char rate_buf[32], sorted_buf[32], slow_buf[32], dil_buf[32];
      std::snprintf(rate_buf, sizeof rate_buf, "%g", rate);
      std::snprintf(sorted_buf, sizeof sorted_buf, "%d/%d", cell.sorted,
                    cell.trials);
      std::snprintf(slow_buf, sizeof slow_buf, "%.3fx",
                    cell.slowdown / cell.trials);
      std::snprintf(dil_buf, sizeof dil_buf, "%.2f", cell.dilation);
      table.add_row({rate_buf, fmt(links), sorted_buf, fmt(cell.recovered),
                     slow_buf, fmt(cell.retries), fmt(cell.reroutes),
                     fmt(cell.recovery_steps), dil_buf});
    }
  }
  table.print();
  table.maybe_export_csv("bench_fault_tolerance");

  std::printf(
      "\nslowdown = mean exec_steps over the fault-free run (%lld steps);"
      "\nthe 0/0 cell must read 1.000x: an attached all-zero FaultModel"
      " never perturbs the sort.\n",
      static_cast<long long>(base_steps));

  // ---- recovery overhead vs checkpoint interval -----------------------
  std::printf("\ncrash recovery: overhead vs checkpoint interval\n\n");

  SortOptions options;
  options.s2 = &oet;
  const std::int64_t phases = probe_phases(pg, options);
  const int intervals[] = {1, 2, 4, 8, 16, 32};
  const int kRecTrials = 12;

  Table rec_table({"interval", "sorted", "crashes", "ckpts", "ckpt steps",
                   "recovery", "rollbacks", "remaps", "overhead"});
  std::vector<RecoveryCell> cells;
  for (const int interval : intervals) {
    RecoveryCell cell;
    cell.interval = interval;
    for (int trial = 0; trial < kRecTrials; ++trial) {
      // Fixed per-trial crash schedule, identical across intervals so the
      // columns differ only in checkpoint policy: one restartable crash
      // mid-schedule plus, on every third trial, a permanent one that
      // forces the degraded-remap rung.
      FaultConfig config;
      config.seed = 500 + static_cast<std::uint64_t>(trial);
      config.crash_schedule.push_back(
          {.node = (trial * 13 + 5) % pg.num_nodes(),
           .phase = (trial * 7 + 3) % phases,
           .permanent = false});
      if (trial % 3 == 2)
        config.crash_schedule.push_back(
            {.node = (trial * 29 + 11) % pg.num_nodes(),
             .phase = (trial * 11 + 7) % phases,
             .permanent = true});
      FaultModel fm(config);

      const auto keys = bench::random_keys(
          pg.num_nodes(), 70 + static_cast<unsigned>(trial));
      Machine m(pg, keys, nullptr);
      m.set_fault_model(&fm);
      RecoveryController controller(m, {.checkpoint_interval = interval});
      const CrashRecoveryReport report = controller.run(options);

      ++cell.trials;
      cell.sorted += report.sorted;
      cell.data_loss += report.data_loss;
      cell.crashes += report.crashes;
      cell.checkpoints += m.cost().checkpoints;
      cell.checkpoint_steps += m.cost().checkpoint_steps;
      cell.recovery_steps += m.cost().recovery_steps;
      cell.rollbacks += m.cost().rollbacks;
      cell.remaps += m.cost().remap_sorts;
      cell.overhead += static_cast<double>(m.cost().exec_steps) /
                       static_cast<double>(base_steps);
    }

    char sorted_buf[32], over_buf[32];
    std::snprintf(sorted_buf, sizeof sorted_buf, "%d/%d", cell.sorted,
                  cell.trials);
    std::snprintf(over_buf, sizeof over_buf, "%.3fx",
                  cell.overhead / cell.trials);
    rec_table.add_row({fmt(interval), sorted_buf, fmt(cell.crashes),
                       fmt(cell.checkpoints), fmt(cell.checkpoint_steps),
                       fmt(cell.recovery_steps), fmt(cell.rollbacks),
                       fmt(cell.remaps), over_buf});
    cells.push_back(cell);
  }
  rec_table.print();
  rec_table.maybe_export_csv("bench_fault_recovery");
  write_recovery_json(cells, "cycle-6", r, pg.num_nodes(), kRecTrials,
                      base_steps);

  std::printf(
      "\nsmall intervals front-load checkpoint steps and shrink the work a"
      "\nrollback repeats; large ones invert the trade (schedule: %lld"
      " phases).\n",
      static_cast<long long>(phases));
  return 0;
}
