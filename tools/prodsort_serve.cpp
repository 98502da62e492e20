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
// and a replay checks the final ledger state (the repro line's
// `ledger=`) too.  `--ledger FILE` preloads the
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
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
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
  std::uint64_t ledger = 0;  ///< the run's final ledger state hash
  std::uint64_t hash = 0;    ///< the run's report hash

  /// The SERVICE-REPRO line.  tmr=, sdc-budget= and ledger= are absent
  /// on lines older than those features, which replay with them off.  A
  /// run that preloaded a ledger needs the same --ledger file passed
  /// alongside --repro: the line carries only the final state hash.
  static std::string_view tag(const ServeArgs&) { return "SERVICE-REPRO"; }
  static void tokens(auto& v, auto& self) {
    v("seed", self.seed);
    v("jobs", self.jobs);
    v("load", self.load);
    v("policy", self.policy);
    v("backends", self.backends);
    v("faulty", self.faulty);
    v("tmr", self.tmr, kOptional);
    v("queue", self.queue_cap);
    v("retry", self.retry);
    v("size", self.size);
    v("dims", self.dims);
    v("threads", self.threads);
    // A federated run: pools= switches the replay to the PoolRouter.
    const Presence federated = when(self.pools > 0);
    v("pools", self.pools, federated);
    v("tenants", self.tenants, federated);
    v("failover", self.failover, federated);
    v("hedge", self.hedge, federated);
    v("outage", self.outage, when(self.pools > 0 && !self.outage.empty()));
    v("sdc-budget", self.sdc_budget, kOptional);
    v("ledger", self.ledger, kOptional);
    v("hash", self.hash);
  }
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

/// The adaptive certification dial both paths take from the flags.
AdaptiveCertServiceConfig adaptive_config(const ServeArgs& args) {
  AdaptiveCertServiceConfig adaptive;
  if (args.sdc_budget > 0) {
    adaptive.enabled = true;
    adaptive.sdc_budget = args.sdc_budget;
  }
  // Loud by design, and unconditional: a --ledger pointing at a
  // missing or corrupt file throws (exit 2 in main) instead of loading
  // as silently empty and re-trusting every known-suspect backend —
  // even when adaptive mode is off and the history would merely ride
  // along unused.
  if (!args.ledger_path.empty())
    adaptive.ledger_json = load_ledger_file(args.ledger_path).to_json();
  return adaptive;
}

/// A run plus the final suspect-ledger state (hash for the repro line,
/// JSON for --ledger persistence; both empty when adaptive mode is off).
template <class Report>
struct Run {
  Report report;
  std::uint64_t ledger_hash = 0;
  std::string ledger_json;
};

/// Runs a SortService or PoolRouter and takes its report and, when
/// adaptive certification ran, its final ledger.
template <class Engine>
auto take_run(Engine& engine, bool adaptive) {
  Run<decltype(engine.run())> run;
  run.report = engine.run();
  if (adaptive) {
    run.ledger_hash = engine.ledger().state_hash();
    run.ledger_json = engine.ledger().to_json();
  }
  return run;
}

Run<ServiceReport> run_service(const ServeArgs& args, std::int64_t* mean_out) {
  const LabeledFactor factor = labeled_cycle(args.size);
  const ProductGraph pg(factor, args.dims);
  const SnakeOETS2 oet;

  ServiceConfig config;
  config.seed = args.seed;
  config.jobs = args.jobs;
  config.load = args.load;
  config.retry_budget = args.retry;
  config.queue = {parse_shed_policy(args.policy), args.queue_cap};
  config.adaptive = adaptive_config(args);

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
  return take_run(service, config.adaptive.enabled);
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

Run<RouterReport> run_router(const ServeArgs& args, std::int64_t* mean_out) {
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
  config.adaptive = adaptive_config(args);

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
  return take_run(router, config.adaptive.enabled);
}

/// Soak gate: the invariants CI asserts under sanitizers at overload —
/// conservation (across pools and tenants when federated), the bound of
/// every queue, and verification of every completion.
template <class Report>
int check_invariants(const ServeArgs& args, const Report& report) {
  const bool federated = args.pools > 0;
  int violations = 0;
  if (!report.conserved()) {
    std::printf("VIOLATION: %sconservation — offered=%lld but %sterminal"
                " outcomes do not add up (silent loss)\n",
                federated ? "federated " : "",
                static_cast<long long>(report.offered),
                federated ? "tenant " : "");
    ++violations;
  }
  const auto check_queue = [&](const std::string& queue,
                               std::int64_t high_water) {
    if (high_water <= static_cast<std::int64_t>(args.queue_cap)) return;
    std::printf("VIOLATION: %squeue bound — high water %lld > capacity %zu\n",
                queue.c_str(), static_cast<long long>(high_water),
                args.queue_cap);
    ++violations;
  };
  if constexpr (std::is_same_v<Report, RouterReport>) {
    for (const TenantStats& t : report.tenants)
      check_queue("tenant " + t.name + " ", t.queue_high_water);
  } else {
    check_queue("", report.queue_high_water);
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

/// Prints a finished run's adaptive and SERVICE-REPRO lines, writes
/// its JSON and ledger, and runs the soak gate.
template <class Report>
int finish_run(ServeArgs args, const Run<Report>& run) {
  const Report& report = run.report;
  if (args.sdc_budget > 0) {
    std::printf("adaptive: budget=%g escalations=%lld ledger=%" PRIu64 "\n\n",
                args.sdc_budget,
                static_cast<long long>(report.cert_escalations),
                run.ledger_hash);
  }
  args.ledger = run.ledger_hash;
  args.hash = report.hash();
  std::printf("%s\n", format_repro(args).c_str());
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
    std::printf("soak: all %sinvariants held at %.2fx load\n",
                args.pools > 0 ? "federated " : "", args.load);
  }
  return 0;
}

int run_repro(const std::string& line, const std::string& ledger_path) {
  ServeArgs args = parse_repro<ServeArgs>(line);
  args.ledger_path = ledger_path;
  const auto replay = [&](const auto& run) {
    const std::uint64_t hash = run.report.hash();
    if (hash == args.hash && run.ledger_hash == args.ledger) {
      std::printf("repro: %sschedule replayed bit-identically (hash=%" PRIu64
                  " ledger=%" PRIu64 ")\n",
                  args.pools > 0 ? "federated " : "", args.hash, args.ledger);
      return 0;
    }
    std::printf("repro: MISMATCH — expected hash=%" PRIu64 " ledger=%" PRIu64
                " got hash=%" PRIu64 " ledger=%" PRIu64 "\n",
                args.hash, args.ledger, hash, run.ledger_hash);
    return 1;
  };
  return args.pools > 0 ? replay(run_router(args, nullptr))
                        : replay(run_service(args, nullptr));
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  std::string repro_line;
  try {
    for (int i = 1; i < argc; ++i) {
      FlagCursor flag{argc, argv, i};
      if (flag.has_value("--jobs")) flag.number(args.jobs);
      else if (flag.has_value("--seed")) flag.number(args.seed);
      else if (flag.has_value("--load")) flag.number(args.load);
      else if (flag.has_value("--policy")) args.policy = argv[++i];
      else if (flag.has_value("--backends")) flag.number(args.backends);
      else if (flag.has_value("--faulty")) flag.number(args.faulty);
      else if (flag.has_value("--tmr")) flag.number(args.tmr);
      else if (flag.has_value("--queue-cap")) flag.number(args.queue_cap);
      else if (flag.has_value("--retry")) flag.number(args.retry);
      else if (flag.has_value("--size")) flag.number(args.size);
      else if (flag.has_value("--dims")) flag.number(args.dims);
      else if (flag.has_value("--threads")) flag.number(args.threads);
      else if (flag.has_value("--sdc-budget")) flag.number(args.sdc_budget);
      else if (flag.has_value("--ledger")) args.ledger_path = argv[++i];
      else if (flag.has_value("--json")) args.json_path = argv[++i];
      else if (flag.has_value("--pools")) flag.number(args.pools);
      else if (flag.has_value("--tenants")) flag.number(args.tenants);
      else if (flag.has_value("--outage")) {
        if (!args.outage.empty()) args.outage += '+';
        args.outage += argv[++i];
      }
      else if (std::strcmp(argv[i], "--no-failover") == 0)
        args.failover = false;
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
    if (!repro_line.empty()) return run_repro(repro_line, args.ledger_path);
    std::int64_t mean = 0;
    if (args.pools > 0) {
      const auto run = run_router(args, &mean);
      std::printf("pool router: %d pools x %d backends, %d tenant(s), mean"
                  " service %lld steps, load %.2fx, policy %s, failover %s,"
                  " hedging %s\n\n%s\n\n",
                  args.pools, args.backends, args.tenants,
                  static_cast<long long>(mean), args.load,
                  args.policy.c_str(), args.failover ? "on" : "off",
                  args.hedge ? "on" : "off", run.report.summary().c_str());
      return finish_run(args, run);
    }
    const auto run = run_service(args, &mean);
    std::printf("sort service: %d backends (%d faulted), mean service"
                " %lld steps, load %.2fx, policy %s\n\n%s\n\n",
                args.backends, args.faulty, static_cast<long long>(mean),
                args.load, args.policy.c_str(), run.report.summary().c_str());
    return finish_run(args, run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s%s\n",
                 repro_line.empty() ? "prodsort_serve: "
                                    : "--repro: malformed line: ",
                 e.what());
    return 2;
  }
}
