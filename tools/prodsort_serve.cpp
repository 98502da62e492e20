// prodsort_serve — deterministic sort-service driver (docs/SERVICE.md).
//
//   prodsort_serve [--jobs J] [--seed S] [--load L]
//                  [--policy drop-tail|edf|priority] [--backends B]
//                  [--faulty F] [--tmr K] [--queue-cap C] [--retry R]
//                  [--size N] [--dims r] [--threads T]
//                  [--sdc-budget P] [--ledger FILE] [--json FILE]
//   prodsort_serve --pools P [--tenants T] [--outage P@F~U ...]
//                  [--no-failover] [--no-hedge] [same flags]
//   prodsort_serve --soak [same flags]
//   prodsort_serve --repro SERVICE-REPRO ...
//
// `--sdc-budget P` switches on the adaptive certification dial
// (docs/SERVICE.md): each backend's certificates are priced by its
// measured risk in the suspect ledger, suspects are hardened with the
// quarantine-before-TMR ladder instead of the pool-wide --tmr hammer,
// and the repro line gains `sdc-budget=`/`ledger=` tokens so a replay
// checks the final ledger state too.  `--ledger FILE` preloads the
// ledger from a previous run and persists the updated state back; a
// missing, truncated, or corrupt ledger file is a *loud* error (exit
// 2, error naming the path) — a ledger the operator pointed at must
// never load as silently empty.  Bootstrap a fresh one by writing
// {"version":1,"backends":[]} to the file first.  `--json FILE` writes
// the report JSON (the per-backend SDC attribution feed).
//
// `--pools P` switches to the federated PoolRouter (docs/SERVICE.md,
// "Federation & fault domains"): P pools of --backends members each,
// consistent-hash placement, cross-pool failover and hedged
// re-dispatch (disable with --no-failover / --no-hedge), and
// `--tenants T` equal-weight tenants with per-tenant queues and
// in-flight quotas.  `--outage P@F~U` (repeatable) schedules a
// pool-wide outage for fault domain P covering virtual time
// [F*mean, U*mean) — dispatch into the domain is refused and in-flight
// attempts completing inside the window are lost.
//
// Drives a SortService over a pool of simulated product-network
// backends with open-loop, seed-hashed arrivals at `--load` times the
// pool's fault-free capacity.  `--faulty F` gives the first F backends
// derived fault schedules: odd ones recoverable (message loss plus a
// restartable crash), even ones fail-stop (a permanent crash with no
// remap budget) that heals mid-run — exercising retries, breaker
// trips, half-open probes, and the samplesort fallback.  Recoverable
// backends additionally carry one transient silently-inverted
// comparator, so their attempts exercise the end-to-end certificate
// and the in-place repair rung (the report's sdc counters).  `--tmr K`
// puts the first K backends under triple-modular-redundant voting,
// which masks those comparator faults at 3x comparison cost.
//
// Every run prints one machine-readable SERVICE-REPRO line carrying
// the full configuration and the report hash; --repro accepts that
// line verbatim (quoted or shell-split), re-runs the schedule, and
// exits nonzero unless the hash matches bit-identically.
//
// --soak is the overload gate CI runs under sanitizers: it asserts the
// service invariants — conservation (every offered job reaches exactly
// one terminal outcome), the queue bound, and verification of every
// completed job — and exits 1 with the repro line on any violation.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hashing.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "durability/atomic_file.hpp"
#include "repro_line.hpp"
#include "service/router/pool_router.hpp"
#include "service/sort_service.hpp"

using namespace prodsort;

namespace {

struct ServeArgs {
  std::uint64_t seed = 7;
  std::int64_t jobs = 40;
  double load = 1.0;
  std::string policy = "edf";
  int backends = 3;
  int faulty = 0;
  int tmr = 0;  ///< first K backends vote triple-modular-redundantly
  std::size_t queue_cap = 8;
  int retry = 2;
  int size = 4;  ///< cycle-factor size
  int dims = 2;
  int threads = 1;
  bool soak = false;
  double sdc_budget = 0;    ///< >0 switches the adaptive cert dial on
  std::string ledger_path;  ///< preload + persist the suspect ledger
  std::string json_path;    ///< write the report JSON here
  int pools = 0;            ///< >0 switches to the federated PoolRouter
  int tenants = 1;          ///< equal-weight tenants (router path)
  std::string outage;       ///< P@F~U tokens joined by '+'
  bool failover = true;
  bool hedge = true;
};

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

/// Ledger persistence is atomic (write temp, fsync, rename): a crash
/// mid-persist leaves at worst a stray FILE.tmp that the loud-failure
/// loader never looks at — the previous ledger survives intact.
bool persist_ledger(const std::string& path, const std::string& json) {
  try {
    write_file_atomic(path, json);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: could not persist ledger: %s\n", e.what());
    return false;
  }
}

/// Derived per-backend fault schedules: odd faulty backends are
/// recoverable, even ones fail outright until the fault heals at
/// `heal` (virtual time).  Pure function of the seed, so a repro line
/// regenerates the exact pool.
std::vector<BackendConfig> build_backends(const ServeArgs& args,
                                          std::int64_t mean, PNode nodes) {
  std::vector<BackendConfig> configs(static_cast<std::size_t>(args.backends));
  const std::int64_t makespan = static_cast<std::int64_t>(
      static_cast<double>(args.jobs) * static_cast<double>(mean) /
      (args.load * static_cast<double>(args.backends)));
  const std::int64_t heal = std::max<std::int64_t>(mean, makespan * 2 / 5);
  for (int i = 0; i < args.faulty && i < args.backends; ++i) {
    BackendConfig& b = configs[static_cast<std::size_t>(i)];
    const std::uint64_t h = mix64(args.seed, static_cast<std::uint64_t>(i));
    const auto node = static_cast<long long>(
        h % static_cast<std::uint64_t>(nodes));
    const auto phase = static_cast<long long>(3 + mix64(h) % 8);
    char schedule[128];
    if (i % 2 == 0) {
      // Fail-stop: permanent crash, no remap budget — every attempt
      // fails until the fault window closes.
      std::snprintf(schedule, sizeof schedule, "seed=%" PRIu64
                    ",crashes=%lld@%lldP",
                    h, node, phase);
      b.recovery.max_remaps = 0;
      b.fault_until = heal;
    } else {
      // Recoverable: light message loss, a restartable crash the
      // escalation ladder absorbs, and a transient silently-inverted
      // comparator (phases [2,6), closed well before the repair rung
      // runs) that only the end-to-end certificate can catch; stays
      // faulted for the whole run.
      const auto sdc_node = static_cast<long long>(
          mix64(h, 2) % static_cast<std::uint64_t>(nodes));
      std::snprintf(schedule, sizeof schedule,
                    "seed=%" PRIu64
                    ",ce=0.002,crashes=%lld@%lld,comparators=%lld@2~6I",
                    h, node, phase, sdc_node);
    }
    b.fault_schedule = schedule;
  }
  for (int i = 0; i < args.tmr && i < args.backends; ++i)
    configs[static_cast<std::size_t>(i)].tmr = true;
  return configs;
}

/// A run plus the final suspect-ledger state (hash for the repro line,
/// JSON for --ledger persistence; both empty when adaptive mode is off).
struct ServeRun {
  ServiceReport report;
  std::uint64_t ledger_hash = 0;
  std::string ledger_json;
};

ServeRun run_service(const ServeArgs& args, std::int64_t* mean_out) {
  const LabeledFactor factor = labeled_cycle(args.size);
  const ProductGraph pg(factor, args.dims);
  const SnakeOETS2 oet;

  ServiceConfig config;
  config.seed = args.seed;
  config.jobs = args.jobs;
  config.load = args.load;
  config.retry_budget = args.retry;
  config.queue = {parse_shed_policy(args.policy), args.queue_cap};
  if (args.sdc_budget > 0) {
    config.adaptive.enabled = true;
    config.adaptive.sdc_budget = args.sdc_budget;
  }
  // Loud by design, and unconditional: a --ledger pointing at a
  // missing or corrupt file throws (exit 2 in main) instead of loading
  // as silently empty and re-trusting every known-suspect backend —
  // even when adaptive mode is off and the history would merely ride
  // along unused.
  if (!args.ledger_path.empty())
    config.adaptive.ledger_json =
        load_ledger_file(args.ledger_path).to_json();

  // Fault-free probe for the mean service time (scales the fault-heal
  // instant and the breaker cooldown).
  ServiceConfig probe = config;
  probe.jobs = 0;
  const std::int64_t mean =
      SortService(pg, probe, std::vector<BackendConfig>(1), &oet)
          .mean_service_steps();
  if (mean_out != nullptr) *mean_out = mean;
  config.breaker = {.failure_threshold = 2, .cooldown = 2 * mean};

  ParallelExecutor executor(args.threads);
  SortService service(pg, config,
                      build_backends(args, mean, pg.num_nodes()), &oet,
                      &executor);
  ServeRun run;
  run.report = service.run();
  if (config.adaptive.enabled) {
    run.ledger_hash = service.ledger().state_hash();
    run.ledger_json = service.ledger().to_json();
  }
  return run;
}

/// The federated pool specs: every pool gets the derived member
/// schedules of build_backends under a pool-mixed seed, plus a domain
/// schedule carrying its --outage windows.  A "P@F~U" token darkens
/// pool P over [F*mean, U*mean), scaled by the probed mean.
std::vector<PoolSpec> build_pools(const ServeArgs& args, std::int64_t mean,
                                  PNode nodes) {
  const std::vector<std::vector<OutageWindow>> outages =
      parse_domain_outages(args.outage, args.pools);
  std::vector<PoolSpec> pools(static_cast<std::size_t>(args.pools));
  for (int p = 0; p < args.pools; ++p) {
    const auto pu = static_cast<std::uint64_t>(p);
    PoolSpec& pool = pools[static_cast<std::size_t>(p)];
    ServeArgs member_args = args;
    member_args.seed = mix64(args.seed, 0xF00D + pu);
    pool.backends = build_backends(member_args, mean, nodes);
    for (const OutageWindow& w : outages[static_cast<std::size_t>(p)]) {
      char window[96];
      std::snprintf(window, sizeof window, "%lld~%lld",
                    static_cast<long long>(w.from * mean),
                    static_cast<long long>(w.until * mean));
      if (pool.domain_schedule.empty()) {
        char head[64];
        std::snprintf(head, sizeof head, "seed=%" PRIu64 ",outages=",
                      mix64(args.seed, pu));
        pool.domain_schedule = head;
      } else {
        pool.domain_schedule += '+';
      }
      pool.domain_schedule += window;
    }
  }
  return pools;
}

struct RouterRun {
  RouterReport report;
  std::uint64_t ledger_hash = 0;
  std::string ledger_json;
};

RouterRun run_router(const ServeArgs& args, std::int64_t* mean_out) {
  const LabeledFactor factor = labeled_cycle(args.size);
  const ProductGraph pg(factor, args.dims);
  const SnakeOETS2 oet;

  RouterConfig config;
  config.seed = args.seed;
  config.jobs = args.jobs;
  config.load = args.load;
  config.retry_budget = args.retry;
  config.policy = parse_shed_policy(args.policy);
  config.failover = args.failover;
  config.hedging = args.hedge;
  if (args.sdc_budget > 0) {
    config.adaptive.enabled = true;
    config.adaptive.sdc_budget = args.sdc_budget;
  }
  // Same loud-failure rule as the single-service path: a named --ledger
  // must parse, whether or not adaptive certification consumes it.
  if (!args.ledger_path.empty())
    config.adaptive.ledger_json =
        load_ledger_file(args.ledger_path).to_json();

  // Fault-free probe (single healthy pool) for the mean service time.
  RouterConfig probe = config;
  probe.jobs = 0;
  const std::int64_t mean =
      PoolRouter(pg, probe, {PoolSpec{std::vector<BackendConfig>(1), {}}},
                 &oet)
          .mean_service_steps();
  if (mean_out != nullptr) *mean_out = mean;
  config.breaker = {.failure_threshold = 2, .cooldown = 2 * mean};

  const int total_backends = args.pools * args.backends;
  for (int t = 0; t < args.tenants; ++t) {
    TenantSpec tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.weight = 1.0;
    tenant.max_in_flight =
        std::max(1, total_backends / std::max(1, args.tenants));
    tenant.queue_cap = args.queue_cap;
    config.tenants.push_back(std::move(tenant));
  }

  ParallelExecutor executor(args.threads);
  PoolRouter router(pg, config, build_pools(args, mean, pg.num_nodes()),
                    &oet, &executor);
  RouterRun run;
  run.report = router.run();
  if (config.adaptive.enabled) {
    run.ledger_hash = router.ledger().state_hash();
    run.ledger_json = router.ledger().to_json();
  }
  return run;
}

/// The SERVICE-REPRO line; a federated run (pools > 0) adds its
/// pools= tenants= failover= hedge= and outage= tokens.
void print_repro(const ServeArgs& args, std::uint64_t ledger_hash,
                 std::uint64_t hash) {
  std::printf("SERVICE-REPRO seed=%" PRIu64
              " jobs=%lld load=%g policy=%s backends=%d faulty=%d tmr=%d"
              " queue=%zu retry=%d size=%d dims=%d threads=%d",
              args.seed, static_cast<long long>(args.jobs), args.load,
              args.policy.c_str(), args.backends, args.faulty, args.tmr,
              args.queue_cap, args.retry, args.size, args.dims, args.threads);
  if (args.pools > 0) {
    std::printf(" pools=%d tenants=%d failover=%d hedge=%d", args.pools,
                args.tenants, args.failover ? 1 : 0, args.hedge ? 1 : 0);
    if (!args.outage.empty()) std::printf(" outage=%s", args.outage.c_str());
  }
  std::printf(" sdc-budget=%g ledger=%" PRIu64 " hash=%" PRIu64 "\n",
              args.sdc_budget, ledger_hash, hash);
}

/// Federated soak gate: conservation across pools and tenants, the
/// per-tenant queue bound, and verification of every completion.
int check_router_invariants(const ServeArgs& args,
                            const RouterReport& report) {
  int violations = 0;
  if (!report.conserved()) {
    std::printf("VIOLATION: federated conservation — offered=%lld but"
                " tenant terminal outcomes do not add up (silent loss)\n",
                static_cast<long long>(report.offered));
    ++violations;
  }
  for (const TenantStats& t : report.tenants) {
    if (t.queue_high_water > static_cast<std::int64_t>(args.queue_cap)) {
      std::printf("VIOLATION: tenant %s queue bound — high water %lld >"
                  " capacity %zu\n",
                  t.name.c_str(),
                  static_cast<long long>(t.queue_high_water), args.queue_cap);
      ++violations;
    }
  }
  if (report.verified_jobs !=
      report.completed_on_time + report.completed_late) {
    std::printf("VIOLATION: verification — %lld completions but %lld"
                " verified\n",
                static_cast<long long>(report.completed_on_time +
                                       report.completed_late),
                static_cast<long long>(report.verified_jobs));
    ++violations;
  }
  return violations;
}

/// Soak gate: the invariants CI asserts under sanitizers at overload.
int check_invariants(const ServeArgs& args, const ServiceReport& report) {
  int violations = 0;
  if (!report.conserved()) {
    std::printf("VIOLATION: conservation — offered=%lld but terminal"
                " outcomes do not add up (silent loss)\n",
                static_cast<long long>(report.offered));
    ++violations;
  }
  if (report.queue_high_water > static_cast<std::int64_t>(args.queue_cap)) {
    std::printf("VIOLATION: queue bound — high water %lld > capacity %zu\n",
                static_cast<long long>(report.queue_high_water),
                args.queue_cap);
    ++violations;
  }
  if (report.verified_jobs !=
      report.completed_on_time + report.completed_late) {
    std::printf("VIOLATION: verification — %lld completions but %lld"
                " verified\n",
                static_cast<long long>(report.completed_on_time +
                                       report.completed_late),
                static_cast<long long>(report.verified_jobs));
    ++violations;
  }
  return violations;
}

int run_repro(const std::string& line, const std::string& ledger_path) {
  const ReproLine repro(line);
  ServeArgs args;
  args.seed = std::stoull(repro.require("seed"));
  args.jobs = std::stoll(repro.require("jobs"));
  args.load = std::stod(repro.require("load"));
  args.policy = repro.require("policy");
  args.backends = std::stoi(repro.require("backends"));
  args.faulty = std::stoi(repro.require("faulty"));
  // Absent on pre-TMR repro lines; default off.
  args.tmr = repro.has("tmr") ? std::stoi(repro.get("tmr")) : 0;
  args.queue_cap = static_cast<std::size_t>(std::stoul(repro.require("queue")));
  args.retry = std::stoi(repro.require("retry"));
  args.size = std::stoi(repro.require("size"));
  args.dims = std::stoi(repro.require("dims"));
  args.threads = std::stoi(repro.require("threads"));
  // Absent on pre-adaptive repro lines; default off.  A run that
  // preloaded a ledger needs the same --ledger file passed alongside
  // --repro — the line carries only the final state hash.
  args.sdc_budget =
      repro.has("sdc-budget") ? std::stod(repro.get("sdc-budget")) : 0;
  args.ledger_path = ledger_path;
  const std::uint64_t expected_ledger =
      repro.has("ledger") ? std::stoull(repro.get("ledger")) : 0;
  const std::uint64_t expected = std::stoull(repro.require("hash"));

  // Federated repro: the `pools` token switches the replay to the
  // PoolRouter with the line's tenants / failover / hedge / outage
  // configuration.
  if (repro.has("pools") && std::stoi(repro.get("pools")) > 0) {
    args.pools = std::stoi(repro.get("pools"));
    args.tenants = repro.has("tenants") ? std::stoi(repro.get("tenants")) : 1;
    args.failover =
        !repro.has("failover") || std::stoi(repro.get("failover")) != 0;
    args.hedge = !repro.has("hedge") || std::stoi(repro.get("hedge")) != 0;
    if (repro.has("outage")) args.outage = repro.get("outage");
    const RouterRun run = run_router(args, nullptr);
    if (run.report.hash() == expected && run.ledger_hash == expected_ledger) {
      std::printf("repro: federated schedule replayed bit-identically"
                  " (hash=%" PRIu64 " ledger=%" PRIu64 ")\n",
                  expected, expected_ledger);
      return 0;
    }
    std::printf("repro: MISMATCH — expected hash=%" PRIu64 " ledger=%" PRIu64
                " got hash=%" PRIu64 " ledger=%" PRIu64 "\n",
                expected, expected_ledger, run.report.hash(), run.ledger_hash);
    return 1;
  }

  const ServeRun run = run_service(args, nullptr);
  if (run.report.hash() == expected && run.ledger_hash == expected_ledger) {
    std::printf("repro: schedule replayed bit-identically (hash=%" PRIu64
                " ledger=%" PRIu64 ")\n",
                expected, expected_ledger);
    return 0;
  }
  std::printf("repro: MISMATCH — expected hash=%" PRIu64 " ledger=%" PRIu64
              " got hash=%" PRIu64 " ledger=%" PRIu64 "\n",
              expected, expected_ledger, run.report.hash(), run.ledger_hash);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  std::string repro_line;
  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (has_value("--jobs")) args.jobs = std::atoll(argv[++i]);
    else if (has_value("--seed"))
      args.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (has_value("--load")) args.load = std::atof(argv[++i]);
    else if (has_value("--policy")) args.policy = argv[++i];
    else if (has_value("--backends")) args.backends = std::atoi(argv[++i]);
    else if (has_value("--faulty")) args.faulty = std::atoi(argv[++i]);
    else if (has_value("--tmr")) args.tmr = std::atoi(argv[++i]);
    else if (has_value("--queue-cap"))
      args.queue_cap = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (has_value("--retry")) args.retry = std::atoi(argv[++i]);
    else if (has_value("--size")) args.size = std::atoi(argv[++i]);
    else if (has_value("--dims")) args.dims = std::atoi(argv[++i]);
    else if (has_value("--threads")) args.threads = std::atoi(argv[++i]);
    else if (has_value("--sdc-budget")) args.sdc_budget = std::atof(argv[++i]);
    else if (has_value("--ledger")) args.ledger_path = argv[++i];
    else if (has_value("--json")) args.json_path = argv[++i];
    else if (has_value("--pools")) args.pools = std::atoi(argv[++i]);
    else if (has_value("--tenants")) args.tenants = std::atoi(argv[++i]);
    else if (has_value("--outage")) {
      if (!args.outage.empty()) args.outage += '+';
      args.outage += argv[++i];
    }
    else if (std::strcmp(argv[i], "--no-failover") == 0) args.failover = false;
    else if (std::strcmp(argv[i], "--no-hedge") == 0) args.hedge = false;
    else if (std::strcmp(argv[i], "--soak") == 0) {
      // Overload defaults: 2x capacity, half the pool faulted.
      args.soak = true;
      args.load = 2.0;
      if (args.faulty == 0) args.faulty = std::max(1, args.backends / 2);
    } else if (std::strcmp(argv[i], "--repro") == 0) {
      repro_line = ReproLine::rejoin_args(argc, argv, i + 1);
      i = argc;
      if (repro_line.empty()) {
        std::fprintf(stderr, "--repro needs a SERVICE-REPRO line\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs J] [--seed S] [--load L]"
                   " [--policy drop-tail|edf|priority] [--backends B]"
                   " [--faulty F] [--tmr K] [--queue-cap C] [--retry R]"
                   " [--size N] [--dims r] [--threads T]"
                   " [--sdc-budget P] [--ledger FILE] [--json FILE]"
                   " [--pools P] [--tenants T] [--outage P@F~U]"
                   " [--no-failover] [--no-hedge]"
                   " [--soak] [--repro SERVICE-REPRO-line]\n",
                   argv[0]);
      return 2;
    }
  }

  if (!repro_line.empty()) {
    try {
      return run_repro(repro_line, args.ledger_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--repro: malformed line: %s\n", e.what());
      return 2;
    }
  }

  if (args.pools > 0) {
    try {
      std::int64_t mean = 0;
      const RouterRun run = run_router(args, &mean);
      const RouterReport& report = run.report;
      std::printf("pool router: %d pools x %d backends, %d tenant(s), mean"
                  " service %lld steps, load %.2fx, policy %s, failover %s,"
                  " hedging %s\n\n%s\n\n",
                  args.pools, args.backends, args.tenants,
                  static_cast<long long>(mean), args.load,
                  args.policy.c_str(), args.failover ? "on" : "off",
                  args.hedge ? "on" : "off", report.summary().c_str());
      if (args.sdc_budget > 0) {
        std::printf("adaptive: budget=%g escalations=%lld ledger=%" PRIu64
                    "\n\n",
                    args.sdc_budget,
                    static_cast<long long>(report.cert_escalations),
                    run.ledger_hash);
      }
      print_repro(args, run.ledger_hash, report.hash());
      if (!args.json_path.empty() &&
          !write_file(args.json_path, report.json()))
        std::fprintf(stderr, "warning: could not write %s\n",
                     args.json_path.c_str());
      if (args.sdc_budget > 0 && !args.ledger_path.empty())
        (void)persist_ledger(args.ledger_path, run.ledger_json);
      if (args.soak) {
        const int violations = check_router_invariants(args, report);
        if (violations != 0) {
          std::printf("soak: %d invariant violation(s)\n", violations);
          return 1;
        }
        std::printf("soak: all federated invariants held at %.2fx load\n",
                    args.load);
      }
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "prodsort_serve: %s\n", e.what());
      return 2;
    }
  }

  try {
    std::int64_t mean = 0;
    const ServeRun run = run_service(args, &mean);
    const ServiceReport& report = run.report;
    std::printf("sort service: %d backends (%d faulted), mean service"
                " %lld steps, load %.2fx, policy %s\n\n%s\n\n",
                args.backends, args.faulty, static_cast<long long>(mean),
                args.load, args.policy.c_str(), report.summary().c_str());
    if (args.sdc_budget > 0) {
      std::printf("adaptive: budget=%g escalations=%lld ledger=%" PRIu64
                  "\n\n",
                  args.sdc_budget,
                  static_cast<long long>(report.cert_escalations),
                  run.ledger_hash);
    }
    print_repro(args, run.ledger_hash, report.hash());
    if (!args.json_path.empty() && !write_file(args.json_path, report.json()))
      std::fprintf(stderr, "warning: could not write %s\n",
                   args.json_path.c_str());
    if (args.sdc_budget > 0 && !args.ledger_path.empty())
      (void)persist_ledger(args.ledger_path, run.ledger_json);
    if (args.soak) {
      const int violations = check_invariants(args, report);
      if (violations != 0) {
        std::printf("soak: %d invariant violation(s)\n", violations);
        return 1;
      }
      std::printf("soak: all invariants held at %.2fx load\n", args.load);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prodsort_serve: %s\n", e.what());
    return 2;
  }
}
