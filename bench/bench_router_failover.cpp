// Federated failover and topology-quarantine envelope — the
// router-layer acceptance experiments (docs/SERVICE.md, "Federation &
// fault domains"), self-gated so CI fails loudly when a claim regresses:
//
//   (a) cross-pool failover: with one pool's fault domain dark for a
//       sweep of outage widths, failover-on must keep strictly more
//       jobs on time than failover-off at identical offered load;
//   (b) quarantine vs TMR: routing merges around ONE attributed suspect
//       comparator (DegradedView + orphan merge) must cost fewer total
//       comparisons than whole-backend TMR at an equal zero-silent-
//       escape soak (>= 1000 trials, cross-checked against std::sort);
//   (c) determinism: the federated report conserves every job, is
//       hash-identical across executor thread counts, and replays
//       bit-identically from the same config.
//
// Results are exported as BENCH_router_failover.json; every experiment
// prints its seed so any row can be replayed by hand.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/hashing.hpp"
#include "core/product_sort.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "network/recovery.hpp"
#include "product/degraded_view.hpp"
#include "service/router/pool_router.hpp"

namespace {

using namespace prodsort;
using bench::fmt;
using bench::JsonValue;
using bench::Table;

int g_gate_failures = 0;

void gate(bool ok, const char* what) {
  if (ok) return;
  ++g_gate_failures;
  std::fprintf(stderr, "GATE FAILED: %s\n", what);
}

// --- experiment (a): failover on vs off during an injected outage -------

struct FailoverCell {
  std::int64_t outage_steps = 0;
  std::int64_t on_time_on = 0;
  std::int64_t on_time_off = 0;
  std::int64_t failovers = 0;
  std::int64_t hedged = 0;
  std::int64_t refusals = 0;
};

std::vector<FailoverCell> run_failover_sweep(const ProductGraph& pg,
                                             const S2Sorter* s2,
                                             std::uint64_t seed,
                                             std::int64_t mean) {
  std::vector<FailoverCell> cells;
  for (const std::int64_t width : {std::int64_t{0}, 8 * mean, 24 * mean}) {
    FailoverCell cell;
    cell.outage_steps = width;
    for (const bool failover : {true, false}) {
      RouterConfig config;
      config.seed = seed;
      config.jobs = 40;
      // Half the federation going dark doubles the load on the
      // survivor; 0.4 leaves it the headroom failover needs to help.
      config.load = 0.4;
      config.deadline_slack = 8.0;
      config.policy = ShedPolicy::kEdf;
      config.breaker = {.failure_threshold = 2, .cooldown = 2 * mean};
      config.failover = failover;
      config.hedging = failover;

      std::vector<PoolSpec> pools(2);
      for (PoolSpec& p : pools) p.backends.resize(1);
      if (width > 0)
        pools[0].domain_schedule =
            "seed=3,outages=0~" + std::to_string(width);

      PoolRouter router(pg, config, pools, s2);
      const RouterReport report = router.run();
      gate(report.conserved(), "failover sweep: conservation");
      if (failover) {
        cell.on_time_on = report.completed_on_time;
        cell.failovers = report.failovers;
        cell.hedged = report.hedged_jobs;
        cell.refusals = report.pools[0].outage_refusals;
      } else {
        cell.on_time_off = report.completed_on_time;
      }
    }
    if (width > 0)
      gate(cell.on_time_on > cell.on_time_off,
           "failover-on must beat failover-off on on-time completions"
           " during an outage");
    cells.push_back(cell);
  }
  return cells;
}

// --- experiment (b): quarantine one suspect vs whole-backend TMR --------

struct SoakTotals {
  int trials = 0;
  int tmr_escapes = 0;
  int quarantine_escapes = 0;
  std::int64_t tmr_comparisons = 0;
  std::int64_t quarantine_comparisons = 0;
  std::vector<std::int64_t> tmr_samples;  ///< per-trial, for percentiles
  std::vector<std::int64_t> quarantine_samples;
};

SoakTotals run_quarantine_soak(const ProductGraph& pg, const S2Sorter* s2,
                               int trials) {
  SoakTotals totals;
  SortOptions options;
  options.s2 = s2;

  // Probe the phase count once so the injected fault covers every phase.
  std::int64_t phases = 0;
  {
    FaultConfig tick;
    FaultModel clock(tick);
    Machine m(pg, bench::random_keys(pg.num_nodes(), 1), nullptr);
    m.set_fault_model(&clock);
    (void)sort_product_network(m, options);
    phases = m.fault_phase();
  }

  const PNode nodes = pg.num_nodes();
  for (int trial = 0; trial < trials; ++trial) {
    // One attributed suspect comparator, inverted for the whole run —
    // the scenario the ledger's concentrated attribution names.
    const PNode suspect = static_cast<PNode>(
        mix64(0x5C4Bu, static_cast<std::uint64_t>(trial)) %
        static_cast<std::uint64_t>(nodes));
    FaultConfig config;
    config.seed = mix64(0xFA17u, static_cast<std::uint64_t>(trial));
    ComparatorFault fault;
    fault.node = suspect;
    fault.from_phase = 0;
    fault.until_phase = phases + 1;
    fault.kind = ComparatorFaultKind::kInverted;
    config.comparator_schedule.push_back(fault);

    const auto keys =
        bench::random_keys(nodes, 100 + static_cast<unsigned>(trial));
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    ++totals.trials;

    // Arm A: whole-backend TMR — 3x comparisons, vote masks the fault.
    {
      FaultModel fm(config);
      Machine m(pg, keys, nullptr);
      m.set_fault_model(&fm);
      m.set_tmr(true);
      (void)sort_product_network(m, options);
      totals.tmr_escapes += m.read_snake(full_view(pg)) != expected;
      totals.tmr_comparisons += m.cost().comparisons;
      totals.tmr_samples.push_back(m.cost().comparisons);
    }

    // Arm B: quarantine the named suspect — BFS-route the merges around
    // it, lift its key host-side, merge back at read-out (the same path
    // SortBackend takes for a ledger-named comparator).
    {
      FaultModel fm(config);
      Machine m(pg, keys, nullptr);
      m.set_fault_model(&fm);
      const ViewSpec view = full_view(pg);
      const PNode dead[] = {suspect};
      const DegradedView degraded(pg, view, dead);
      std::vector<Key> orphan = {m.key(suspect)};
      sort_degraded_snake(m, degraded);
      const std::vector<Key> live = read_degraded_snake(m, degraded);
      std::vector<Key> merged(live.size() + orphan.size());
      std::merge(live.begin(), live.end(), orphan.begin(), orphan.end(),
                 merged.begin());
      totals.quarantine_escapes += merged != expected;
      // Honest count: machine comparisons plus the host-side merge's
      // worst case (|merged| - 1).
      const std::int64_t paid = m.cost().comparisons +
                                static_cast<std::int64_t>(merged.size()) - 1;
      totals.quarantine_comparisons += paid;
      totals.quarantine_samples.push_back(paid);
    }
  }

  gate(totals.tmr_escapes == 0, "TMR arm must have zero silent escapes");
  gate(totals.quarantine_escapes == 0,
       "quarantine arm must have zero silent escapes");
  gate(totals.quarantine_comparisons < totals.tmr_comparisons,
       "quarantining one suspect must cost fewer comparisons than"
       " whole-backend TMR");
  return totals;
}

// --- experiment (c): conservation, thread invariance, replay ------------

struct InvarianceResult {
  bool conserved = false;
  bool thread_invariant = false;
  bool replays = false;
  std::uint64_t hash = 0;
};

InvarianceResult run_invariance(const ProductGraph& pg, const S2Sorter* s2,
                                std::uint64_t seed, std::int64_t mean) {
  RouterConfig config;
  config.seed = seed;
  config.jobs = 24;
  config.load = 1.2;
  config.policy = ShedPolicy::kEdf;
  config.breaker = {.failure_threshold = 2, .cooldown = 2 * mean};
  config.tenants = {{"alpha", 2.0, 4, 8}, {"beta", 1.0, 4, 8}};

  std::vector<PoolSpec> pools(2);
  for (PoolSpec& p : pools) p.backends.resize(2);
  pools[0].domain_schedule =
      "seed=3,outages=" + std::to_string(2 * mean) + "~" +
      std::to_string(10 * mean);
  pools[1].backends[0].fault_schedule = "seed=5,ce=0.002";

  InvarianceResult result;
  std::vector<std::uint64_t> hashes;
  bool conserved = true;
  for (const int threads : {1, 4, 1}) {
    ParallelExecutor executor(threads);
    PoolRouter router(pg, config, pools, s2, &executor);
    const RouterReport report = router.run();
    conserved = conserved && report.conserved();
    hashes.push_back(report.hash());
  }
  result.conserved = conserved;
  result.thread_invariant = hashes[0] == hashes[1];
  result.replays = hashes[0] == hashes[2];
  result.hash = hashes[0];
  gate(result.conserved, "federated conservation invariant");
  gate(result.thread_invariant, "report hash thread-count invariance");
  gate(result.replays, "bit-identical replay of the same config");
  return result;
}

void write_json(const std::vector<FailoverCell>& cells,
                const SoakTotals& soak, const InvarianceResult& inv,
                std::uint64_t seed, std::int64_t mean, PNode nodes) {
  JsonValue curve = JsonValue::array();
  for (const FailoverCell& c : cells)
    curve.push(JsonValue::object()
                   .set("outage_steps", c.outage_steps)
                   .set("on_time_failover_on", c.on_time_on)
                   .set("on_time_failover_off", c.on_time_off)
                   .set("failovers", c.failovers)
                   .set("hedged_jobs", c.hedged)
                   .set("outage_refusals", c.refusals));
  JsonValue root =
      JsonValue::object()
          .set("bench", "router_failover")
          .set("seed", static_cast<std::int64_t>(seed))
          .set("nodes", std::int64_t{nodes})
          .set("mean_service_steps", mean)
          .set("failover_sweep", std::move(curve))
          .set("quarantine_soak",
               JsonValue::object()
                   .set("trials", soak.trials)
                   .set("tmr_escapes", soak.tmr_escapes)
                   .set("quarantine_escapes", soak.quarantine_escapes)
                   .set("tmr_comparisons", soak.tmr_comparisons)
                   .set("quarantine_comparisons",
                        soak.quarantine_comparisons)
                   .set("tmr_p50", bench::percentile(soak.tmr_samples, 50))
                   .set("tmr_p99", bench::percentile(soak.tmr_samples, 99))
                   .set("quarantine_p50",
                        bench::percentile(soak.quarantine_samples, 50))
                   .set("quarantine_p99",
                        bench::percentile(soak.quarantine_samples, 99))
                   .set("comparison_ratio",
                        static_cast<double>(soak.quarantine_comparisons) /
                            static_cast<double>(
                                std::max<std::int64_t>(
                                    1, soak.tmr_comparisons))))
          .set("invariance", JsonValue::object()
                                 .set("conserved", inv.conserved)
                                 .set("thread_invariant",
                                      inv.thread_invariant)
                                 .set("replays", inv.replays)
                                 .set("report_hash", inv.hash))
          .set("gate_failures", g_gate_failures);
  bench::export_json("BENCH_router_failover", root);
}

}  // namespace

int main() {
  std::printf(
      "router failover: cross-pool failover vs outage width, and"
      " topology quarantine vs whole-backend TMR\n\n");

  const std::uint64_t kSeed = 2026;
  const ProductGraph pg(labeled_path(3), 2);  // 9 nodes: soak stays fast
  const SnakeOETS2 oet;
  std::printf("seed=%llu  topology=path-3^2 (%lld nodes)\n\n",
              static_cast<unsigned long long>(kSeed),
              static_cast<long long>(pg.num_nodes()));

  std::int64_t mean = 1;
  {
    RouterConfig probe;
    probe.seed = kSeed;
    probe.jobs = 0;
    std::vector<PoolSpec> one(1);
    one[0].backends.resize(1);
    mean = PoolRouter(pg, probe, one, &oet).mean_service_steps();
  }

  // (a) failover sweep.
  const std::vector<FailoverCell> cells =
      run_failover_sweep(pg, &oet, kSeed, mean);
  Table sweep({"outage", "on-time (failover)", "on-time (no failover)",
               "failovers", "hedged", "refusals"});
  for (const FailoverCell& c : cells)
    sweep.add_row({fmt(c.outage_steps), fmt(c.on_time_on),
                   fmt(c.on_time_off), fmt(c.failovers), fmt(c.hedged),
                   fmt(c.refusals)});
  sweep.print();
  sweep.maybe_export_csv("bench_router_failover");

  // (b) quarantine-vs-TMR soak on a larger topology so the 3x tax and
  // the ~1x quarantine separate cleanly.
  const ProductGraph soak_pg(labeled_cycle(6), 2);  // 36 nodes
  const int kTrials = 1000;
  std::printf("\nquarantine soak: %d trials on cycle-6^2 (%lld nodes),"
              " one inverted suspect comparator per trial\n",
              kTrials, static_cast<long long>(soak_pg.num_nodes()));
  const SoakTotals soak = run_quarantine_soak(soak_pg, &oet, kTrials);
  std::printf(
      "  escapes: tmr=%d quarantine=%d (both must be 0)\n"
      "  comparisons: tmr=%lld quarantine=%lld (ratio %.3f)\n"
      "  per-trial: tmr p50=%lld p99=%lld | quarantine p50=%lld p99=%lld\n",
      soak.tmr_escapes, soak.quarantine_escapes,
      static_cast<long long>(soak.tmr_comparisons),
      static_cast<long long>(soak.quarantine_comparisons),
      static_cast<double>(soak.quarantine_comparisons) /
          static_cast<double>(std::max<std::int64_t>(1,
                                                     soak.tmr_comparisons)),
      static_cast<long long>(bench::percentile(soak.tmr_samples, 50)),
      static_cast<long long>(bench::percentile(soak.tmr_samples, 99)),
      static_cast<long long>(bench::percentile(soak.quarantine_samples, 50)),
      static_cast<long long>(bench::percentile(soak.quarantine_samples, 99)));

  // (c) conservation / thread invariance / replay.
  const InvarianceResult inv = run_invariance(pg, &oet, kSeed, mean);
  std::printf(
      "\ninvariance: conserved=%s thread_invariant=%s replays=%s"
      " hash=%llx\n",
      inv.conserved ? "yes" : "NO", inv.thread_invariant ? "yes" : "NO",
      inv.replays ? "yes" : "NO",
      static_cast<unsigned long long>(inv.hash));

  write_json(cells, soak, inv, kSeed, mean, pg.num_nodes());

  if (g_gate_failures > 0) {
    std::fprintf(stderr, "\n%d gate(s) failed\n", g_gate_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
