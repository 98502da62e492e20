// prodsort_stress — randomized differential stress harness.
//
//   prodsort_stress [--trials T] [--seed S] [--max-nodes M]
//                   [--faults RATE] [--fault-seed F]
//   prodsort_stress --chaos [--trials T] [--seed S] [--faults RATE]
//   prodsort_stress --sdc [--trials T] [--seed S] [--min-repair-rate R]
//                   [--cert-level spot|sampled|full] [--max-escape-rate R]
//   prodsort_stress --repro FAULT-REPRO mode=chaos ...
//   prodsort_stress --repro SDC-REPRO mode=sdc ...
//
// Each trial draws a random factor family, dimension count, S2 sorter,
// block size, thread count, and input pattern; runs the network sort;
// and checks the result against std::sort.  Exits nonzero on the first
// mismatch with a reproduction line.  Intended for long soak runs; the
// default 200 trials take a few seconds.
//
// --faults RATE switches to the fault-tolerance soak: every trial runs
// an executable sorter under an attached FaultModel (compare-exchange
// message loss at RATE, one permanently failed non-cut link, one 4x
// straggler), certifies and repairs via certify_and_repair, and soaks
// the packet simulator's retry/reroute path (transient drops at RATE)
// on the same factor.  A failing trial prints one machine-readable
// FAULT-REPRO line (seed/family/r/sorter/fault schedule) and exits 1.
//
// --chaos combines every fault class with fail-stop node crashes: each
// trial hashes a crash schedule (1-3 crashes, restartable and
// permanent, at seed-hashed phases inside the probed sort length) on
// top of message loss and a straggler, runs the sort under the
// RecoveryController's escalation ladder, and demands a coherent
// outcome — either the exact sorted multiset, or (when both copies of
// a checkpoint entry crashed) a sorted output missing exactly the
// reported lost entries.  Trial derivation is trial-local (pure hashes
// of seed and trial index), so any failing trial replays standalone
// from its FAULT-REPRO line via --repro, which accepts the line
// verbatim (quoted or shell-split) and re-runs just that trial.
//
// --sdc is the silent-data-corruption soak: each trial schedules 1-4
// seed-hashed silently faulty comparators (stuck / inverted /
// arbitrary-output, windows probed to land inside the sort), sorts,
// and walks the detect-and-correct ladder — end-to-end certificate,
// bounded OET repair over the dirty window, TMR re-run, fault-free
// quarantine re-sort.  The soak fails the trial (one SDC-REPRO line,
// exit 1) on a silent escape (corrupted output the certificate
// passed) or an unrecovered exit; --min-repair-rate R additionally
// gates on the fraction of trials certify-and-repair resolved within
// the pass budget (pass on entry, or repaired in place) without
// escalating to the TMR / quarantine rungs.
//
// --cert-level runs the initial certificate at a graduated level
// (docs/FAULTS.md, "Adaptive certification"): sub-full levels scan a
// seeded sample of the adjacency pairs and fingerprint only every k-th
// trial, so a corrupted output the sample misses is a *budgeted*
// escape — counted and gated against --max-escape-rate (measured over
// corrupted trials) instead of failing the soak.  A sampled
// certificate that fails always escalates to a full one before the
// repair ladder runs.  At the default full level any escape is fatal,
// exactly as before.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <random>
#include <string>

#include "core/adaptive_cert.hpp"
#include "core/block_sort.hpp"
#include "core/certifier.hpp"
#include "core/hashing.hpp"
#include "core/product_sort.hpp"
#include "core/s2/oracle_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "network/packet_sim.hpp"
#include "network/recovery.hpp"
#include "product/snake_order.hpp"
#include "repro_line.hpp"

using namespace prodsort;

namespace {

std::vector<Key> make_input(PNode total, int pattern, std::mt19937_64& rng) {
  std::vector<Key> keys(static_cast<std::size_t>(total));
  switch (pattern) {
    case 0: for (Key& k : keys) k = static_cast<Key>(rng()); break;
    case 1: for (Key& k : keys) k = static_cast<Key>(rng() & 1u); break;
    case 2: for (Key& k : keys) k = static_cast<Key>(rng() % 4); break;
    case 3: {
      PNode i = 0;
      for (Key& k : keys) k = total - (i++);
      break;
    }
    default: {
      PNode i = 0;
      for (Key& k : keys) k = (i++) % 7;
      break;
    }
  }
  return keys;
}

// The executable sorters a soak trial draws from, and their sorter=
// names, in one order.
const ShearsortS2 kShearsort{};
const SnakeOETS2 kSnakeOet{};
const S2Sorter* const kSorters[] = {&kShearsort, &kSnakeOet};
const char* const kSorterNames[] = {"shearsort", "snake-oet"};

const auto kSorterCodec = names_codec(kSorterNames);
const Codec kScheduleCodec{
    [](const FaultConfig& config) {
      return FaultModel(config).schedule_string();
    },
    FaultModel::parse_schedule_string};

/// The fault soak's failure line (FAULT-REPRO without mode=): printed
/// for a person, not replayed; --repro takes the chaos and SDC forms.
struct FaultSoakRepro {
  unsigned seed = 0;
  unsigned fault_seed = 0;
  const LabeledFactor* factor = nullptr;
  int r = 0;
  int pattern = 0;
  int threads = 0;
  std::size_t sorter = 0;
  double faults = 0;
  FaultConfig schedule;
  long trial = 0;
  std::string outcome;
  std::string packet;  ///< ok | FAILED

  static std::string_view tag(const FaultSoakRepro&) { return "FAULT-REPRO"; }
  static void tokens(auto& v, auto& self) {
    v("seed", self.seed);
    v("fault-seed", self.fault_seed);
    v.text("family", self.factor, kFactorCodec);
    v("r", self.r);
    v("pattern", self.pattern);
    v("threads", self.threads);
    v.text("sorter", self.sorter, kSorterCodec);
    v("faults", self.faults);
    v.text("schedule", self.schedule, kScheduleCodec);
    v("trial", self.trial);
    v("outcome", self.outcome);
    v("packet", self.packet);
  }
};

// The fault-tolerance soak: sort under injected faults, self-verify,
// recover, and cross-check the packet layer.  Returns 0 on success.
int run_fault_soak(long trials, unsigned seed, unsigned fault_seed,
                   double rate, PNode max_nodes) {
  const auto factors = standard_factors();
  std::mt19937_64 rng(seed);

  const PNode cap = std::min<PNode>(max_nodes, 2000);  // executable sorters
  long executed = 0, recovered = 0;
  std::int64_t total_retries = 0, total_reroutes = 0, total_recovery = 0;
  for (long trial = 0; trial < trials; ++trial) {
    const auto& factor = factors[rng() % factors.size()];
    // Largest r >= 2 that fits the executable-sorter budget; factors too
    // big even for r = 2 are skipped (none in standard_factors today).
    int r = 2;
    while (r < 6 && pow_int(factor.size(), r + 1) <= cap) ++r;
    if (pow_int(factor.size(), r) > cap) continue;
    const ProductGraph pg(factor, r);
    const int pattern = static_cast<int>(rng() % 5);
    const int threads = 1 + static_cast<int>(rng() % 4);
    const std::size_t sorter = rng() % 2;

    FaultConfig config;
    config.seed = fault_seed + static_cast<std::uint64_t>(trial) * 0x9e37;
    config.ce_drop_rate = rate;
    config.packet_drop_rate = rate;
    config.failed_links = 1;
    config.stragglers = 1;
    config.straggler_factor = 4;
    FaultModel fm(config);
    fm.select_stragglers(pg.num_nodes());

    const auto keys = make_input(pg.num_nodes(), pattern, rng);
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    const Certifier certifier(keys);

    ParallelExecutor exec(threads);
    Machine m(pg, keys, &exec);
    m.set_fault_model(&fm);
    SortOptions options;
    options.s2 = kSorters[sorter];
    (void)sort_product_network(m, options);

    // The RecoveryController's budget rule: nodes + 4 repair passes.
    const RepairReport report = certify_and_repair(
        m, full_view(pg), certifier,
        {.max_passes = static_cast<int>(pg.num_nodes()) + 4});
    const auto got = m.read_snake(full_view(pg));
    ++executed;
    recovered += report.outcome == RepairOutcome::kRepaired;
    total_retries += m.cost().retries;
    total_recovery += report.repair_steps;

    bool packet_ok = true;
    std::int64_t packet_retries = 0;
    try {
      // Packet-layer soak on the same factor: a random permutation must
      // deliver across the failed link and the lossy fabric.
      std::vector<NodeId> dest(static_cast<std::size_t>(factor.size()));
      std::iota(dest.begin(), dest.end(), 0);
      std::shuffle(dest.begin(), dest.end(), rng);
      const PacketStats stats = simulate_permutation(factor.graph, dest, &fm);
      packet_retries = stats.retries;
      total_reroutes += stats.reroutes;
    } catch (const std::exception&) {
      packet_ok = false;
    }
    total_retries += packet_retries;

    if (got != expected || !packet_ok) {
      const FaultSoakRepro line{seed,    fault_seed, &factor, r, pattern,
                                threads, sorter,     rate,    config, trial,
                                to_string(report.outcome),
                                packet_ok ? "ok" : "FAILED"};
      std::printf("%s\n", format_repro(line).c_str());
      return 1;
    }
  }
  std::printf(
      "fault soak: %ld/%ld trials executed, all sorted correctly"
      " (%ld needed recovery; retries=%lld reroutes=%lld"
      " recovery_steps=%lld)\n",
      executed, trials, recovered,
      static_cast<long long>(total_retries),
      static_cast<long long>(total_reroutes),
      static_cast<long long>(total_recovery));
  return 0;
}

// ----------------------------------------------------------- chaos soak

const char* const kTrialModes[] = {"chaos", "sdc"};

/// One chaos or SDC trial, and its replay line: FAULT-REPRO mode=chaos
/// or SDC-REPRO mode=sdc.
struct ChaosTrialSpec {
  bool sdc = false;  ///< an SDC soak trial, else a chaos soak trial
  const LabeledFactor* factor = nullptr;
  int r = 2;
  int pattern = 0;
  int threads = 1;
  int interval = 8;        ///< checkpoint interval (phases)
  std::size_t sorter = 0;  ///< index into kSorterNames
  FaultConfig config;
  unsigned seed = 0;  ///< with `trial`, derives the input keys
  long trial = 0;
  /// SDC soak only: the level the initial certificate runs at.  Below
  /// kFull a corrupted output the sampled scan misses is a *budgeted*
  /// escape (counted, gated by --max-escape-rate), not a soak failure.
  CertLevel cert_level = CertLevel::kFull;
  std::uint64_t cert_seed = 0;  ///< 0 = derive from (seed, trial)
  /// Diagnostics a failing trial prints and replay ignores: the
  /// recovery path (chaos) or ladder rung (SDC), and what went wrong.
  std::string outcome;
  std::string reason;

  static std::string_view tag(const ChaosTrialSpec& self) {
    return self.sdc ? "SDC-REPRO" : "FAULT-REPRO";
  }
  /// cert-level= and cert-seed= are absent on SDC lines older than
  /// adaptive certification, which replay at the full level.
  static void tokens(auto& v, auto& self) {
    v.text("mode", self.sdc, names_codec(kTrialModes));
    v("seed", self.seed);
    v("trial", self.trial);
    v.text("family", self.factor, kFactorCodec);
    v("r", self.r);
    v("pattern", self.pattern);
    v("threads", self.threads);
    v.text("sorter", self.sorter, kSorterCodec);
    v("interval", self.interval, when(!self.sdc));
    v.text("schedule", self.config, kScheduleCodec);
    v.text("cert-level", self.cert_level,
           Codec{[](CertLevel level) { return to_string(level); },
                 parse_cert_level},
           when(self.sdc));
    v("cert-seed", self.cert_seed, when(self.sdc));
    v("path", self.outcome, when(!self.sdc));
    v("rung", self.outcome, when(self.sdc));
    v("reason", self.reason, kOptional);
  }
};

/// Trial-local sample seed for the sampled certificate — pure hash of
/// (seed, trial), so an SDC-REPRO line replays the exact pair sample.
std::uint64_t sdc_cert_seed(const ChaosTrialSpec& spec) {
  if (spec.cert_seed != 0) return spec.cert_seed;
  return mix64(mix64(spec.seed) ^ 0x63657274ULL,
               static_cast<std::uint64_t>(spec.trial));
}

/// The trial's certification plan at `spec.cert_level`: coverage and
/// fingerprint cadence from the AdaptiveCertConfig defaults, with the
/// trial index standing in for the job index in the every-k-th rule.
CertPlan sdc_cert_plan(const ChaosTrialSpec& spec) {
  const AdaptiveCertConfig defaults;
  const int level = static_cast<int>(spec.cert_level);
  CertPlan plan;
  plan.level = spec.cert_level;
  plan.coverage = defaults.coverage[level];
  plan.fingerprint =
      spec.trial % defaults.fingerprint_every[level] == 0;
  plan.sample_seed = sdc_cert_seed(spec);
  return plan;
}

// Trial-local input derivation: a pure function of (seed, trial,
// pattern), independent of every other trial, so --repro regenerates
// the exact keys from the FAULT-REPRO line alone.
std::vector<Key> chaos_input(const ChaosTrialSpec& spec, PNode total) {
  std::mt19937_64 rng(
      mix64(mix64(spec.seed), static_cast<std::uint64_t>(spec.trial)));
  return make_input(total, spec.pattern, rng);
}

/// The trial-local draws both soaks make from the trial hash `h`: the
/// factor, the largest r >= 2 that fits `cap`, the input pattern, the
/// thread count and the sorter.  False when even r = 2 does not fit.
bool draw_trial(ChaosTrialSpec& spec, const std::vector<LabeledFactor>& factors,
                std::uint64_t h, PNode cap) {
  spec.factor = &factors[h % factors.size()];
  spec.r = 2;
  while (spec.r < 5 && pow_int(spec.factor->size(), spec.r + 1) <= cap)
    ++spec.r;
  spec.pattern = static_cast<int>(mix64(h, 1) % 5);
  spec.threads = 1 + static_cast<int>(mix64(h, 2) % 4);
  spec.sorter = static_cast<std::size_t>(mix64(h, 3) % 2);
  return pow_int(spec.factor->size(), spec.r) <= cap;
}

struct ChaosTotals {
  long rollbacks = 0;
  long remaps = 0;
  long degraded_runs = 0;
  long data_loss_runs = 0;
  std::int64_t crashes = 0;
};

// Fault-free probe run that counts the sort's synchronous phases, so
// hashed crash phases always land inside the schedule.  An attached
// all-zero model only ticks the phase clock — results are
// bit-identical to no model.
std::int64_t chaos_probe_phases(const ProductGraph& pg,
                                const ChaosTrialSpec& spec,
                                const S2Sorter& sorter) {
  FaultConfig tick;  // all rates zero: the model only ticks the clock
  FaultModel clock(tick);
  Machine machine(pg, chaos_input(spec, pg.num_nodes()));
  machine.set_fault_model(&clock);
  SortOptions options;
  options.s2 = &sorter;
  (void)sort_product_network(machine, options);
  return machine.fault_phase();
}

// Runs one chaos trial end to end.  Returns 0 on a coherent outcome;
// otherwise prints the replayable FAULT-REPRO line and returns 1.
int run_chaos_trial(const ChaosTrialSpec& spec, ChaosTotals* totals) {
  const ProductGraph pg(*spec.factor, spec.r);
  const std::vector<Key> keys = chaos_input(spec, pg.num_nodes());
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());

  FaultModel fm(spec.config);
  if (spec.config.stragglers > 0) fm.select_stragglers(pg.num_nodes());
  ParallelExecutor exec(spec.threads);
  Machine machine(pg, keys, &exec);
  machine.set_fault_model(&fm);

  SortOptions options;
  options.s2 = kSorters[spec.sorter];
  RecoveryController controller(machine,
                                {.checkpoint_interval = spec.interval});
  const CrashRecoveryReport report = controller.run(options);

  if (totals != nullptr) {
    totals->rollbacks += report.rollbacks;
    totals->remaps += report.remaps;
    totals->crashes += report.crashes;
    totals->degraded_runs += report.path == RecoveryPath::kDegradedRemap;
    totals->data_loss_runs += report.data_loss;
  }

  const char* reason = nullptr;
  if (!report.data_loss) {
    if (!report.sorted)
      reason = "unsorted";
    else if (report.output != expected)
      reason = "output-mismatch";
  } else {
    // Both copies of a checkpoint entry crashed: a legitimate chaos
    // outcome, but it must be reported coherently — sorted output with
    // exactly the lost entries' keys missing, nothing else.
    const bool coherent =
        report.sorted && !report.lost_entries.empty() &&
        report.output.size() + report.lost_entries.size() ==
            expected.size() &&
        std::includes(expected.begin(), expected.end(),
                      report.output.begin(), report.output.end());
    if (!coherent) reason = "incoherent-data-loss";
  }
  if (reason == nullptr) return 0;

  ChaosTrialSpec line = spec;
  line.outcome = to_string(report.path);
  line.reason = reason;
  std::printf("%s\n", format_repro(line).c_str());
  return 1;
}

int run_chaos_soak(long trials, unsigned seed, double rate, PNode max_nodes) {
  const auto factors = standard_factors();
  const PNode cap = std::min<PNode>(max_nodes, 1200);

  long executed = 0;
  ChaosTotals totals;
  for (long trial = 0; trial < trials; ++trial) {
    const std::uint64_t h =
        mix64(mix64(seed) ^ 0x6368616f73ULL, static_cast<std::uint64_t>(trial));
    ChaosTrialSpec spec;
    spec.seed = seed;
    spec.trial = trial;
    if (!draw_trial(spec, factors, h, cap)) continue;
    spec.interval = 2 + static_cast<int>(mix64(h, 4) % 12);

    const ProductGraph pg(*spec.factor, spec.r);
    const std::int64_t phases =
        chaos_probe_phases(pg, spec, *kSorters[spec.sorter]);

    FaultConfig config;
    config.seed = mix64(h, 5);
    config.ce_drop_rate = rate;
    config.stragglers = 1;
    config.straggler_factor = 4;
    const int crashes = 1 + static_cast<int>(mix64(h, 6) % 3);
    for (int i = 0; i < crashes; ++i) {
      CrashEvent event;
      event.phase = static_cast<std::int64_t>(
          mix64(h, 16 + static_cast<std::uint64_t>(i)) %
          static_cast<std::uint64_t>(phases));
      event.node = static_cast<PNode>(
          mix64(h, 32 + static_cast<std::uint64_t>(i)) %
          static_cast<std::uint64_t>(pg.num_nodes()));
      event.permanent = (mix64(h, 48 + static_cast<std::uint64_t>(i)) & 1) != 0;
      config.crash_schedule.push_back(event);
    }
    spec.config = config;

    if (run_chaos_trial(spec, &totals) != 0) return 1;
    ++executed;
  }
  std::printf(
      "chaos soak: %ld/%ld trials executed, all outcomes coherent"
      " (crashes=%lld rollbacks=%ld remaps=%ld degraded_runs=%ld"
      " data_loss_runs=%ld)\n",
      executed, trials, static_cast<long long>(totals.crashes),
      totals.rollbacks, totals.remaps, totals.degraded_runs,
      totals.data_loss_runs);
  return 0;
}

// ------------------------------------------------------------- sdc soak

struct SdcTotals {
  long executed = 0;
  long fired_trials = 0;  ///< trials where >= 1 comparator fault fired
  long corrupted = 0;     ///< initial read-out differed from std::sort
  long detected = 0;      ///< initial certificate failed (SDC caught)
  long benign = 0;        ///< faults fired, output still certified-correct
  long repaired = 0;      ///< restored by bounded OET repair (rung 4)
  long tmr_masked = 0;    ///< restored by a TMR re-run
  long quarantined = 0;   ///< needed the fault-free re-sort
  long escapes = 0;       ///< corrupted output a sub-full cert passed
  long escalations = 0;   ///< sampled cert failed, full cert re-ran
  long repair_passes = 0;
  int max_repair_passes = 0;
};

// One SDC trial: sort under silently faulty comparators, then walk the
// detect-and-correct ladder.  Every exit is cross-checked against
// std::sort — a certificate that passes on a wrong output (silent
// escape or fingerprint collision) fails the trial.  Returns 0 on a
// coherent outcome; otherwise prints the replayable SDC-REPRO line.
int run_sdc_trial(const ChaosTrialSpec& spec, SdcTotals* totals) {
  const ProductGraph pg(*spec.factor, spec.r);
  const std::vector<Key> keys = chaos_input(spec, pg.num_nodes());
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  const ViewSpec view = full_view(pg);

  ParallelExecutor exec(spec.threads);
  const Certifier certifier(keys, &exec);

  FaultModel fm(spec.config);
  Machine machine(pg, keys, &exec);
  machine.set_fault_model(&fm);
  SortOptions options;
  options.s2 = kSorters[spec.sorter];
  (void)sort_product_network(machine, options);

  std::vector<Key> got = machine.read_snake(view);
  const CertPlan plan = sdc_cert_plan(spec);
  EndToEndCertificate cert = certifier.certify_sampled(got, plan);
  bool escalated = false;
  if (!cert.pass() && plan.level != CertLevel::kFull) {
    // A sampled certificate never acts on its own verdict: the first
    // failure escalates to a full certificate and the ladder below
    // runs from the full dirty window.
    escalated = true;
    cert = certifier.certify(machine, view);
  }
  const bool corrupted = got != expected;
  const bool fired = fm.counters().comparator_faults > 0;
  // A corrupted output the sub-full certificate passed is the escape
  // the operator's budget priced in — counted and gated at the summary
  // (--max-escape-rate), not an immediate soak failure.  At full level
  // with the fingerprint taken there is no budget: any escape is fatal.
  const bool budgeted_escape =
      cert.pass() && corrupted &&
      (cert.level != CertLevel::kFull || !cert.fingerprint_checked);
  if (totals != nullptr) {
    ++totals->executed;
    totals->fired_trials += fired;
    totals->corrupted += corrupted;
    totals->detected += !cert.pass();
    totals->benign += fired && cert.pass() && !corrupted;
    totals->escapes += budgeted_escape;
    totals->escalations += escalated;
  }

  const char* rung = "none";
  const char* reason = nullptr;
  if (cert.pass()) {
    // The one unforgivable outcome: wrong output, passing *full*
    // certificate.  (A budgeted sampled-level escape returns clean.)
    if (corrupted && !budgeted_escape) reason = "silent-escape";
  } else {
    // Rung 4: bounded alternating-parity OET repair over the dirty
    // window, in place, still under the attached fault model.
    RepairOptions repair_options;
    repair_options.max_passes = static_cast<int>(pg.num_nodes()) + 4;
    const RepairReport repair =
        certify_and_repair(machine, view, certifier, repair_options);
    if (repair.outcome == RepairOutcome::kRepaired) {
      rung = "repair";
      got = machine.read_snake(view);
      if (totals != nullptr) {
        ++totals->repaired;
        totals->repair_passes += repair.passes;
        totals->max_repair_passes =
            std::max(totals->max_repair_passes, repair.passes);
      }
      if (got != expected) reason = "fingerprint-collision";
    } else {
      // Rung 5: TMR re-run — spatial redundancy outvotes any single
      // faulty comparator per pair, including multiset-corrupting ones
      // repair cannot touch.
      FaultModel tmr_fm(spec.config);
      Machine tmr_machine(pg, keys, &exec);
      tmr_machine.set_tmr(true);
      tmr_machine.set_fault_model(&tmr_fm);
      (void)sort_product_network(tmr_machine, options);
      if (certifier.certify(tmr_machine, view).pass()) {
        rung = "tmr";
        got = tmr_machine.read_snake(view);
        if (totals != nullptr) ++totals->tmr_masked;
        if (got != expected) reason = "fingerprint-collision";
      } else {
        // Rung 6: quarantine — re-sort the retained input fault-free.
        rung = "quarantine";
        Machine clean(pg, keys, &exec);
        (void)sort_product_network(clean, options);
        if (certifier.certify(clean, view).pass()) {
          got = clean.read_snake(view);
          if (totals != nullptr) ++totals->quarantined;
          if (got != expected) reason = "fingerprint-collision";
        } else {
          reason = "unrecovered";
        }
      }
    }
  }
  if (reason == nullptr) return 0;

  ChaosTrialSpec line = spec;
  line.cert_seed = sdc_cert_seed(spec);
  line.outcome = rung;
  line.reason = reason;
  std::printf("%s\n", format_repro(line).c_str());
  return 1;
}

int run_sdc_soak(long trials, unsigned seed, PNode max_nodes,
                 double min_repair_rate, CertLevel cert_level,
                 double max_escape_rate) {
  const auto factors = standard_factors();
  const PNode cap = std::min<PNode>(max_nodes, 1000);

  SdcTotals totals;
  for (long trial = 0; trial < trials; ++trial) {
    const std::uint64_t h =
        mix64(mix64(seed) ^ 0x736463ULL, static_cast<std::uint64_t>(trial));
    ChaosTrialSpec spec;
    spec.sdc = true;
    spec.seed = seed;
    spec.trial = trial;
    if (!draw_trial(spec, factors, h, cap)) continue;
    spec.cert_level = cert_level;

    const ProductGraph pg(*spec.factor, spec.r);
    const std::int64_t phases =
        chaos_probe_phases(pg, spec, *kSorters[spec.sorter]);

    // 1-4 silently faulty comparators: nodes, windows, and kinds all
    // seed-hashed.  The baseline mix is transient stuck/inverted faults
    // whose windows close inside the probed sort length — multiset-
    // preserving disorder that rung-4 repair fixes in place once the
    // window has passed.  A rare per-trial escalation tail (1 in 128
    // each) swaps in an arbitrary-output fault (corrupts the key
    // multiset; repair cannot help) or makes a fault permanent (stays
    // live through the repair passes and keeps re-dirtying them), so
    // the TMR and quarantine rungs are exercised while the soak stays
    // inside the certify-and-repair >= 95% acceptance gate.
    FaultConfig config;
    config.seed = mix64(h, 5);
    const int faults = 1 + static_cast<int>(mix64(h, 6) % 4);
    const std::uint64_t tail = mix64(h, 7) % 128;
    for (int i = 0; i < faults; ++i) {
      const auto fi = static_cast<std::uint64_t>(i);
      ComparatorFault fault;
      fault.node = static_cast<PNode>(
          mix64(h, 64 + fi) % static_cast<std::uint64_t>(pg.num_nodes()));
      fault.from_phase = static_cast<std::int64_t>(
          mix64(h, 80 + fi) % static_cast<std::uint64_t>(phases));
      fault.until_phase =
          fault.from_phase + 1 +
          static_cast<std::int64_t>(
              mix64(h, 96 + fi) %
              static_cast<std::uint64_t>(phases - fault.from_phase));
      fault.kind = (mix64(h, 112 + fi) & 1) != 0
                       ? ComparatorFaultKind::kInverted
                       : ComparatorFaultKind::kStuckPassThrough;
      if (i == 0 && tail == 0) fault.kind = ComparatorFaultKind::kArbitrary;
      if (i == 0 && tail == 1) fault.until_phase = -1;
      config.comparator_schedule.push_back(fault);
    }
    spec.config = config;

    if (run_sdc_trial(spec, &totals) != 0) return 1;
  }

  // The acceptance rate: trials certify-and-repair resolved within the
  // pass budget (certificate passed on entry, or wrong order repaired
  // in place) over all executed trials; the remainder escalated to the
  // TMR / quarantine rungs — and, this line having been reached, every
  // one of those also ended with a verified sorted snake.
  const long escalated = totals.tmr_masked + totals.quarantined;
  const double rate =
      totals.executed == 0
          ? 1.0
          : static_cast<double>(totals.executed - escalated) /
                static_cast<double>(totals.executed);
  // At sub-full levels the soak reports the *measured* escape rate —
  // corrupted outputs the sampled certificate passed, over all
  // corrupted trials — against the operator's --max-escape-rate bound.
  // At full level the bound is implicitly zero (a full escape already
  // failed the run above), so the gate is a consistency check.
  const double escape_rate =
      totals.corrupted == 0
          ? 0.0
          : static_cast<double>(totals.escapes) /
                static_cast<double>(totals.corrupted);
  std::printf(
      "sdc soak: %ld/%ld trials executed at cert-level=%s, zero silent"
      " escapes beyond budget"
      " (fired=%ld corrupted=%ld detected=%ld benign=%ld | repaired=%ld"
      " tmr=%ld quarantined=%ld | escapes=%ld escalations=%ld"
      " escape-rate=%.3f | repair passes mean=%.1f max=%d |"
      " certify-and-repair rate=%.3f)\n",
      totals.executed, trials, to_string(cert_level).c_str(),
      totals.fired_trials, totals.corrupted, totals.detected, totals.benign,
      totals.repaired, totals.tmr_masked, totals.quarantined, totals.escapes,
      totals.escalations, escape_rate,
      totals.repaired > 0 ? static_cast<double>(totals.repair_passes) /
                                static_cast<double>(totals.repaired)
                          : 0.0,
      totals.max_repair_passes, rate);
  if (rate < min_repair_rate) {
    std::printf(
        "sdc soak: certify-and-repair rate %.3f below --min-repair-rate"
        " %.3f\n",
        rate, min_repair_rate);
    return 1;
  }
  if (escape_rate > max_escape_rate) {
    std::printf(
        "sdc soak: escape rate %.3f above --max-escape-rate %.3f\n",
        escape_rate, max_escape_rate);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------- repro

// Replays one chaos or SDC trial from its FAULT-REPRO / SDC-REPRO
// line.  Diagnostic tokens (path, rung, reason) are ignored; replay
// consumes only the trial-derivation fields.
int run_repro(const std::string& line) {
  const ChaosTrialSpec spec = parse_repro<ChaosTrialSpec>(line);
  const int status =
      spec.sdc ? run_sdc_trial(spec, nullptr) : run_chaos_trial(spec, nullptr);
  std::printf("repro: %s\n", status == 0
                                 ? "trial passed (failure did not reproduce)"
                                 : "failure reproduced");
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  long trials = 200;
  unsigned seed = 12345;
  unsigned fault_seed = 1;
  double fault_rate = -1;
  PNode max_nodes = 20000;
  bool chaos = false;
  bool sdc = false;
  double min_repair_rate = 0;
  CertLevel cert_level = CertLevel::kFull;
  double max_escape_rate = 0;
  std::string repro_line;
  try {
    for (int i = 1; i < argc; ++i) {
      FlagCursor flag{argc, argv, i};
      if (flag.has_value("--trials")) flag.number(trials);
      else if (flag.has_value("--seed")) flag.number(seed);
      else if (flag.has_value("--max-nodes")) flag.number(max_nodes);
      else if (flag.has_value("--faults")) flag.number(fault_rate);
      else if (flag.has_value("--fault-seed")) flag.number(fault_seed);
      else if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
      else if (std::strcmp(argv[i], "--sdc") == 0) sdc = true;
      else if (flag.has_value("--min-repair-rate"))
        flag.number(min_repair_rate);
      else if (flag.has_value("--cert-level"))
        cert_level = parse_cert_level(argv[++i]);
      else if (flag.has_value("--max-escape-rate"))
        flag.number(max_escape_rate);
      else if (std::strcmp(argv[i], "--repro") == 0) {
        // Everything after --repro is the repro line, quoted or
        // shell-split: rejoin it either way.
        repro_line = ReproLine::rejoin_args(argc, argv, i + 1);
        i = argc;
        if (repro_line.empty()) {
          std::fprintf(stderr,
                       "--repro needs a FAULT-REPRO or SDC-REPRO line\n");
          return 2;
        }
      } else {
        std::fprintf(stderr,
                     "usage: %s [--trials T] [--seed S] [--max-nodes M]"
                     " [--faults RATE] [--fault-seed F] [--chaos] [--sdc]"
                     " [--min-repair-rate R] [--cert-level spot|sampled|full]"
                     " [--max-escape-rate R] [--repro REPRO-line]\n",
                     argv[0]);
        return 2;
      }
    }
    if (!repro_line.empty()) return run_repro(repro_line);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s%s\n",
                 repro_line.empty() ? "prodsort_stress: "
                                    : "--repro: malformed line: ",
                 e.what());
    return 2;
  }
  if (sdc)
    return run_sdc_soak(trials, seed, max_nodes, min_repair_rate, cert_level,
                        max_escape_rate);
  if (chaos)
    return run_chaos_soak(trials, seed, fault_rate >= 0 ? fault_rate : 0.001,
                          max_nodes);
  if (fault_rate >= 0)
    return run_fault_soak(trials, seed, fault_seed, fault_rate, max_nodes);

  const auto factors = standard_factors();
  const OracleS2 oracle;
  const S2Sorter* sorters[] = {&oracle, &kShearsort, &kSnakeOet};
  std::mt19937_64 rng(seed);

  long executed = 0;
  for (long trial = 0; trial < trials; ++trial) {
    const auto& factor = factors[rng() % factors.size()];
    const int r = 2 + static_cast<int>(rng() % 4);
    if (pow_int(factor.size(), r) > max_nodes) continue;
    const ProductGraph pg(factor, r);
    const int pattern = static_cast<int>(rng() % 5);
    const int threads = 1 + static_cast<int>(rng() % 4);
    const int block = (rng() % 3 == 0) ? 1 + static_cast<int>(rng() % 8) : 1;
    const std::size_t sorter = rng() % 3;
    // Executable sorters are slow on big machines; keep them small.
    if (sorter != 0 && pg.num_nodes() > 2000) continue;
    if (block > 1 && pg.num_nodes() * block > 50000) continue;

    const auto keys = make_input(pg.num_nodes() * block, pattern, rng);
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());

    ParallelExecutor exec(threads);
    std::vector<Key> got;
    if (block == 1) {
      Machine m(pg, keys, &exec);
      SortOptions options;
      options.s2 = sorters[sorter];
      (void)sort_product_network(m, options);
      got = m.read_snake(full_view(pg));
    } else {
      static const BlockOracleS2 block_oracle;
      static const BlockShearsortS2 block_shear;
      static const BlockSnakeOETS2 block_oet;
      const BlockS2Sorter* block_sorters[] = {&block_oracle, &block_shear,
                                              &block_oet};
      BlockMachine m(pg, keys, block, &exec);
      BlockSortOptions options;
      options.s2 = block_sorters[pg.num_nodes() <= 700 ? rng() % 3 : 0];
      (void)sort_block_network(m, options);
      got = m.read_snake(full_view(pg));
    }
    ++executed;

    if (got != expected) {
      std::printf("MISMATCH: factor=%s r=%d pattern=%d threads=%d block=%d"
                  " sorter=%zu seed=%u trial=%ld\n",
                  factor.name.c_str(), r, pattern, threads, block, sorter,
                  seed, trial);
      return 1;
    }
  }
  std::printf("stress: %ld/%ld trials executed, all sorted correctly\n",
              executed, trials);
  return 0;
}
