// bench_adaptive_cert — the adaptive-certification risk dial's
// detection-probability vs overhead curve (docs/FAULTS.md, "Adaptive
// certification").
//
// On a cycle-6 r=3 product (216 nodes, SnakeOETS2) each trial injects
// one transient silently-inverted comparator at a seed-hashed node and
// window, sorts, and then certifies the *same* output at every
// graduated level with the same trial-local sample seed — so the three
// points of the curve are measured on identical corruptions and the
// nested-sample property makes per-trial detection monotone in level.
// The certificate's virtual-clock charge (certificate_steps) is the
// overhead axis.
//
// Self-gates (exit 1 on violation):
//  * detection counts are monotone nondecreasing in level;
//  * full level detects every corrupted trial — zero silent escapes;
//  * each sampled level is strictly cheaper than full on the virtual
//    clock;
//  * each level's measured escape rate stays at or below its analytic
//    single-swap bound 1 - coverage (with slack for multi-violation
//    corruptions, which only help detection).
//
// Exports BENCH_adaptive_cert.json (one entry per level).

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_util.hpp"
#include "core/adaptive_cert.hpp"
#include "core/certifier.hpp"
#include "core/hashing.hpp"
#include "core/product_sort.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "network/fault_model.hpp"
#include "product/snake_order.hpp"

using namespace prodsort;
using namespace prodsort::bench;

namespace {

constexpr unsigned kSeed = 2026;
constexpr long kTrials = 150;

struct LevelStats {
  long corrupted = 0;
  long detected = 0;
  std::int64_t cert_steps = 0;
  std::vector<std::int64_t> step_samples;  ///< per-trial, for percentiles
};

}  // namespace

int main() {
  const LabeledFactor factor = labeled_cycle(6);
  const ProductGraph pg(factor, 3);
  const PNode n = pg.num_nodes();
  const SnakeOETS2 oet;
  const ViewSpec view = full_view(pg);
  const AdaptiveCertConfig defaults;

  // Probe the fault-free phase count once so hashed fault windows land
  // inside the sort (the phase clock is data-independent here: the OET
  // schedule runs its full fixed-pass plan under an attached model).
  std::int64_t phases = 0;
  {
    FaultConfig tick;
    FaultModel clock(tick);
    Machine machine(pg, random_keys(n, kSeed));
    machine.set_fault_model(&clock);
    SortOptions options;
    options.s2 = &oet;
    (void)sort_product_network(machine, options);
    phases = machine.fault_phase();
  }

  LevelStats stats[3];
  long corrupted_trials = 0;
  for (long trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t h =
        mix64(mix64(kSeed) ^ 0x6164636572ULL, static_cast<std::uint64_t>(trial));
    const std::vector<Key> keys =
        random_keys(n, static_cast<unsigned>(h & 0x7fffffff));
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());

    FaultConfig config;
    config.seed = mix64(h, 1);
    ComparatorFault fault;
    fault.node = static_cast<PNode>(mix64(h, 2) %
                                    static_cast<std::uint64_t>(n));
    fault.from_phase = static_cast<std::int64_t>(
        mix64(h, 3) % static_cast<std::uint64_t>(phases));
    fault.until_phase =
        fault.from_phase + 1 +
        static_cast<std::int64_t>(
            mix64(h, 4) %
            static_cast<std::uint64_t>(phases - fault.from_phase));
    fault.kind = ComparatorFaultKind::kInverted;
    config.comparator_schedule.push_back(fault);

    FaultModel fm(config);
    Machine machine(pg, keys);
    machine.set_fault_model(&fm);
    SortOptions options;
    options.s2 = &oet;
    (void)sort_product_network(machine, options);
    const std::vector<Key> got = machine.read_snake(view);
    const bool corrupted = got != expected;
    corrupted_trials += corrupted;

    const Certifier certifier(keys);
    for (int level = 0; level < 3; ++level) {
      CertPlan plan;
      plan.level = static_cast<CertLevel>(level);
      plan.coverage = defaults.coverage[level];
      plan.fingerprint = trial % defaults.fingerprint_every[level] == 0;
      plan.sample_seed = mix64(h, 5);
      const EndToEndCertificate cert = certifier.certify_sampled(got, plan);
      stats[level].corrupted += corrupted;
      stats[level].detected += corrupted && !cert.pass();
      const std::int64_t steps =
          certificate_steps(n, cert.scanned_pairs, plan.fingerprint);
      stats[level].cert_steps += steps;
      stats[level].step_samples.push_back(steps);
    }
  }

  Table table({"level", "coverage", "fp-every", "corrupted", "detected",
               "detect-rate", "escape-rate", "bound", "mean-cert-steps",
               "p50", "p99"});
  JsonValue levels = JsonValue::array();
  int violations = 0;
  const double full_mean =
      static_cast<double>(stats[2].cert_steps) / static_cast<double>(kTrials);
  for (int level = 0; level < 3; ++level) {
    const LevelStats& s = stats[level];
    const double detect_rate =
        s.corrupted > 0 ? static_cast<double>(s.detected) /
                              static_cast<double>(s.corrupted)
                        : 1.0;
    const double escape_rate = 1.0 - detect_rate;
    const double bound = 1.0 - defaults.coverage[level];
    const double mean_steps =
        static_cast<double>(s.cert_steps) / static_cast<double>(kTrials);
    const std::string name = to_string(static_cast<CertLevel>(level));
    // Nearest-rank cuts over the per-trial charge — the same rule the
    // service/router latency stats use (bench_util.hpp).
    const std::vector<std::int64_t> cuts =
        percentiles(s.step_samples, {50, 99});
    table.add_row({name, fmt(defaults.coverage[level]),
                   fmt(defaults.fingerprint_every[level]),
                   fmt(static_cast<std::int64_t>(s.corrupted)),
                   fmt(static_cast<std::int64_t>(s.detected)),
                   fmt(detect_rate * 100) + "%", fmt(escape_rate * 100) + "%",
                   fmt(bound * 100) + "%", fmt(mean_steps), fmt(cuts[0]),
                   fmt(cuts[1])});
    levels.push(JsonValue::object()
                    .set("level", name)
                    .set("coverage", defaults.coverage[level])
                    .set("fingerprint_every", defaults.fingerprint_every[level])
                    .set("trials", static_cast<std::int64_t>(kTrials))
                    .set("corrupted", static_cast<std::int64_t>(s.corrupted))
                    .set("detected", static_cast<std::int64_t>(s.detected))
                    .set("detection_rate", detect_rate)
                    .set("escape_rate", escape_rate)
                    .set("analytic_escape_bound", bound)
                    .set("mean_cert_steps", mean_steps)
                    .set("p50_cert_steps", cuts[0])
                    .set("p99_cert_steps", cuts[1]));

    if (level > 0 && s.detected < stats[level - 1].detected) {
      std::printf("GATE: detection not monotone at level %s\n", name.c_str());
      ++violations;
    }
    if (level < 2 && mean_steps >= full_mean) {
      std::printf("GATE: level %s not strictly cheaper than full\n",
                  name.c_str());
      ++violations;
    }
    // The analytic bound is exact for a single swapped adjacent pair;
    // real corruptions span several violations, which only raises the
    // detection odds — so the measured escape rate must sit at or below
    // the bound plus sampling noise.
    if (escape_rate > bound + 0.05) {
      std::printf("GATE: level %s escape rate %.3f above bound %.3f\n",
                  name.c_str(), escape_rate, bound);
      ++violations;
    }
  }
  if (stats[2].detected != stats[2].corrupted) {
    std::printf("GATE: full level let %ld corrupted trial(s) escape\n",
                stats[2].corrupted - stats[2].detected);
    ++violations;
  }

  std::printf("adaptive certification dial: cycle-6 r=3 (%lld nodes),"
              " %ld trials, %ld corrupted\n\n",
              static_cast<long long>(n), kTrials, corrupted_trials);
  table.print();
  table.maybe_export_csv("BENCH_adaptive_cert");

  JsonValue root = JsonValue::object();
  root.set("bench", "adaptive_cert")
      .set("seed", static_cast<std::int64_t>(kSeed))
      .set("nodes", static_cast<std::int64_t>(n))
      .set("trials", static_cast<std::int64_t>(kTrials))
      .set("corrupted_trials", static_cast<std::int64_t>(corrupted_trials))
      .set("levels", std::move(levels))
      .set("gates_passed", violations == 0);
  export_json("BENCH_adaptive_cert", root);

  if (violations != 0) {
    std::printf("\n%d gate violation(s)\n", violations);
    return 1;
  }
  std::printf("\nall gates passed: monotone detection, full-level"
              " completeness, sampled levels strictly cheaper\n");
  return 0;
}
