// prodsort_audit — invariant-auditing sweep over every registered
// topology and sorter, the correctness wall behind the cost claims.
//
//   prodsort_audit [--quick] [--seed S] [--threads T] [--budget B]
//
// Four sections, each emitting machine-readable `AUDIT key=value` lines:
//
//   machine   unit-key product sorts (oracle, shearsort, snake-oet,
//             network-s2) and the hypercube bitonic baseline, run with a
//             StepAuditor attached (disjointness, locality/cost honesty,
//             memory discipline, lockstep race replay) plus sortedness
//             and Theorem-1 phase-count exactness;
//   block     the block-mode drivers under the same auditor;
//   packet    the packet simulator against shortest-path lower bounds
//             (analysis/packet_audit.hpp);
//   zero-one  0-1-principle certification of the comparator networks,
//             the sequence baselines, and the machine sort itself —
//             exhaustive for small widths, seeded-random beyond (the
//             report flags which, see sortnet/zero_one.hpp).
//
// Every machine/block run additionally chains a ScheduleRecorder in
// front of the StepAuditor and cross-checks that the schedule the
// dynamic auditor just exercised is also statically proven
// (staticcheck/static_prover.hpp).  The `AUDIT-STATIC` summary line
// reports the coverage: a blind spot (a dynamically audited schedule
// the static prover rejects or cannot analyze) fails the sweep.
//
// Exit status 0 iff every section is clean; violations also print as
// `AUDIT-VIOLATION` lines.  --quick shrinks the sweep for ctest (label
// `audit`); the full sweep is the CI configuration.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <random>
#include <string>

#include "analysis/packet_audit.hpp"
#include "any_width_network.hpp"
#include "analysis/step_auditor.hpp"
#include "core/hashing.hpp"
#include "staticcheck/schedule_ir.hpp"
#include "staticcheck/static_prover.hpp"
#include "baselines/batcher_sequence.hpp"
#include "baselines/bitonic_network.hpp"
#include "baselines/columnsort.hpp"
#include "baselines/oet_sort.hpp"
#include "baselines/shearsort.hpp"
#include "core/block_sort.hpp"
#include "core/product_sort.hpp"
#include "core/s2/network_s2.hpp"
#include "core/s2/oracle_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "graph/labeled_factor.hpp"
#include "network/packet_sim.hpp"
#include "network/parallel_executor.hpp"
#include "product/gray_code.hpp"
#include "product/snake_order.hpp"
#include "product/subgraph_view.hpp"
#include "repro_line.hpp"
#include "sortnet/batcher.hpp"
#include "sortnet/multiway_network.hpp"
#include "sortnet/zero_one.hpp"

using namespace prodsort;

namespace {

struct Options {
  bool quick = false;
  unsigned seed = 1;
  int threads = 4;
  std::int64_t budget = 1 << 16;  ///< sampled 0-1 inputs beyond exhaustive
};

struct Tally {
  long combos = 0;
  long violations = 0;
  long failures = 0;  ///< unsorted results, bound breaches, rejections

  void fail() {
    ++failures;
  }
};

// Static cross-check: every schedule the dynamic auditor exercises is
// recorded (ScheduleRecorder chained in front of the StepAuditor) and
// proven once per unique (graph, schedule hash) — identical schedules
// reached through different runs (e.g. the TMR re-run) are proofs
// served from cache, not re-derived.
struct StaticCross {
  long schedules = 0;  ///< dynamically audited runs recorded
  std::map<std::uint64_t, bool> unique;  ///< cache key -> all_proven
  long blind = 0;  ///< runs whose schedule the prover rejected

  void add(const ProductGraph& pg, const ScheduleIR& ir,
           bool cross_dimension) {
    ++schedules;
    const std::uint64_t key =
        mix64(graph_fingerprint(pg), ir.canonical_hash());
    const auto it = unique.find(key);
    bool proven;
    if (it != unique.end()) {
      proven = it->second;
    } else {
      StaticProverOptions options;
      options.allow_cross_dimension = cross_dimension;
      proven = prove_schedule(pg, ir, options).all_proven();
      unique.emplace(key, proven);
    }
    if (!proven) ++blind;
  }

  [[nodiscard]] long unproven() const {
    long count = 0;
    for (const auto& [key, proven] : unique) count += !proven;
    return count;
  }
};

void print_violations(Tally& tally, const char* section,
                      const StepAuditor& auditor) {
  tally.violations += auditor.violation_count();
  for (const Violation& v : auditor.violations())
    std::printf("AUDIT-VIOLATION section=%s kind=%s msg=\"%s\"\n", section,
                to_string(v.kind).c_str(), v.message.c_str());
}

std::vector<Key> random_keys(PNode count, std::mt19937_64& rng) {
  std::vector<Key> keys(static_cast<std::size_t>(count));
  for (Key& k : keys) k = static_cast<Key>(rng() % 1000003);
  return keys;
}

// ---------------------------------------------------------------- machine

void audit_machine(const Options& opt, Tally& tally, StaticCross& cross) {
  const auto factors = standard_factors();
  const OracleS2 oracle;
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  std::mt19937_64 rng(opt.seed);
  ParallelExecutor exec(opt.threads);

  struct Entry {
    const char* name;
    const S2Sorter* sorter;
    PNode cap;
    bool cross_dimension;
  };
  const PNode oracle_cap = opt.quick ? 4096 : 20000;
  const PNode shear_cap = opt.quick ? 700 : 2000;
  const PNode oet_cap = opt.quick ? 300 : 700;
  const PNode net_cap = opt.quick ? 200 : 350;
  const Entry entries[] = {
      {"oracle", &oracle, oracle_cap, false},
      {"shearsort", &shearsort, shear_cap, false},
      {"snake-oet", &snake_oet, oet_cap, false},
      {"network-s2", nullptr, net_cap, true},  // built per factor below
  };

  for (const LabeledFactor& factor : factors) {
    for (const Entry& entry : entries) {
      // NetworkS2 is width-bound to N^2; construct per factor.
      const NetworkS2 net_s2(any_width_network(
          static_cast<int>(factor.size()) * static_cast<int>(factor.size())));
      const S2Sorter& sorter =
          entry.sorter != nullptr ? *entry.sorter
                                  : static_cast<const S2Sorter&>(net_s2);
      for (int r = 2; r <= 6 && pow_int(factor.size(), r) <= entry.cap; ++r) {
        const ProductGraph pg(factor, r);
        AuditorConfig config;
        config.check_lockstep = true;
        config.throw_on_violation = false;
        config.allow_cross_dimension = entry.cross_dimension;
        StepAuditor auditor(pg, config);

        // Audit each shape both plain and under TMR voting: fault-free
        // TMR must be bit-identical in outcome and keep the phase-count
        // predictions, while every phase lands in the auditor's
        // tmr_phases blind-spot counter (replica evaluations are voted
        // away before the observer sees the pairs).
        for (const bool tmr : {false, true}) {
          if (tmr && pg.num_nodes() > entry.cap / 2) continue;
          auditor.reset();
          Machine machine(pg, random_keys(pg.num_nodes(), rng), &exec);
          machine.set_tmr(tmr);
          ScheduleRecorder recorder(pg, &auditor);
          machine.set_observer(&recorder);
          SortOptions options;
          options.s2 = &sorter;
          const SortReport report = sort_product_network(machine, options);
          cross.add(pg, recorder.take(), entry.cross_dimension);

          const bool sorted = machine.snake_sorted(full_view(pg));
          const bool exact =
              report.cost.s2_phases == report.predicted.s2_phases &&
              report.cost.routing_phases == report.predicted.routing_phases;
          const bool blind_spot_counted =
              auditor.stats().tmr_phases == (tmr ? auditor.stats().phases : 0);
          ++tally.combos;
          if (!sorted || !exact || !blind_spot_counted) tally.fail();
          print_violations(tally, "machine", auditor);
          std::printf(
              "AUDIT section=machine factor=%s N=%d r=%d sorter=%s phases=%lld"
              " pairs=%lld lockstep=%lld faulty=%lld replay_skipped=%lld"
              " tmr=%lld max_resident=%d sorted=%d exact=%d violations=%lld\n",
              factor.name.c_str(), static_cast<int>(factor.size()), r,
              entry.name, static_cast<long long>(auditor.stats().phases),
              static_cast<long long>(auditor.stats().pairs),
              static_cast<long long>(auditor.stats().lockstep_replays),
              static_cast<long long>(auditor.stats().faulty_phases),
              static_cast<long long>(auditor.stats().replay_skipped),
              static_cast<long long>(auditor.stats().tmr_phases),
              auditor.stats().max_resident_values, sorted ? 1 : 0,
              exact ? 1 : 0,
              static_cast<long long>(auditor.violation_count()));
        }
      }
    }
  }

  // The Section 5.3 baseline: bitonic sort executed on the hypercube
  // machine, comparators between adjacent nodes (strict discipline).
  for (int r = 2; r <= (opt.quick ? 6 : 9); ++r) {
    const ProductGraph pg(labeled_k2(), r);
    AuditorConfig config;
    config.check_lockstep = true;
    config.throw_on_violation = false;
    StepAuditor auditor(pg, config);
    Machine machine(pg, random_keys(pg.num_nodes(), rng), &exec);
    ScheduleRecorder recorder(pg, &auditor);
    machine.set_observer(&recorder);
    const int depth = bitonic_sort_on_hypercube(machine);
    cross.add(pg, recorder.take(), /*cross_dimension=*/false);
    bool sorted = true;
    for (PNode v = 0; v + 1 < pg.num_nodes(); ++v)
      sorted = sorted && machine.key(v) <= machine.key(v + 1);
    ++tally.combos;
    if (!sorted) tally.fail();
    print_violations(tally, "machine", auditor);
    std::printf(
        "AUDIT section=machine factor=k2 N=2 r=%d sorter=bitonic-baseline"
        " phases=%lld pairs=%lld lockstep=%lld faulty=%lld replay_skipped=%lld"
        " tmr=%lld max_resident=%d depth=%d sorted=%d violations=%lld\n",
        r, static_cast<long long>(auditor.stats().phases),
        static_cast<long long>(auditor.stats().pairs),
        static_cast<long long>(auditor.stats().lockstep_replays),
        static_cast<long long>(auditor.stats().faulty_phases),
        static_cast<long long>(auditor.stats().replay_skipped),
        static_cast<long long>(auditor.stats().tmr_phases),
        auditor.stats().max_resident_values, depth, sorted ? 1 : 0,
        static_cast<long long>(auditor.violation_count()));
  }
}

// ------------------------------------------------------------------ block

void audit_block(const Options& opt, Tally& tally, StaticCross& cross) {
  const auto factors = standard_factors();
  const BlockOracleS2 block_oracle;
  const BlockShearsortS2 block_shearsort;
  const BlockSnakeOETS2 block_oet;
  std::mt19937_64 rng(opt.seed + 1);
  ParallelExecutor exec(opt.threads);

  struct Entry {
    const char* name;
    const BlockS2Sorter* sorter;
    PNode cap;  ///< node cap (keys = nodes * block)
  };
  const Entry entries[] = {
      {"block-oracle", &block_oracle, opt.quick ? PNode{1024} : PNode{4096}},
      {"block-shearsort", &block_shearsort,
       opt.quick ? PNode{128} : PNode{512}},
      {"block-snake-oet", &block_oet, opt.quick ? PNode{64} : PNode{256}},
  };
  const int block = 4;

  for (const LabeledFactor& factor : factors) {
    for (const Entry& entry : entries) {
      for (int r = 2; r <= 4 && pow_int(factor.size(), r) <= entry.cap; ++r) {
        const ProductGraph pg(factor, r);
        AuditorConfig config;
        config.check_lockstep = true;
        config.throw_on_violation = false;
        StepAuditor auditor(pg, config);

        BlockMachine machine(pg, random_keys(pg.num_nodes() * block, rng),
                             block, &exec);
        ScheduleRecorder recorder(pg, &auditor);
        machine.set_observer(&recorder);
        BlockSortOptions options;
        options.s2 = entry.sorter;
        const BlockSortReport report = sort_block_network(machine, options);
        cross.add(pg, recorder.take(), /*cross_dimension=*/false);

        const bool sorted = machine.snake_sorted(full_view(pg));
        const bool exact =
            report.cost.s2_phases == report.predicted.s2_phases &&
            report.cost.routing_phases == report.predicted.routing_phases;
        ++tally.combos;
        if (!sorted || !exact) tally.fail();
        print_violations(tally, "block", auditor);
        std::printf(
            "AUDIT section=block factor=%s N=%d r=%d b=%d sorter=%s"
            " phases=%lld pairs=%lld lockstep=%lld faulty=%lld"
            " replay_skipped=%lld max_resident=%d sorted=%d"
            " exact=%d violations=%lld\n",
            factor.name.c_str(), static_cast<int>(factor.size()), r, block,
            entry.name, static_cast<long long>(auditor.stats().phases),
            static_cast<long long>(auditor.stats().pairs),
            static_cast<long long>(auditor.stats().lockstep_replays),
            static_cast<long long>(auditor.stats().faulty_phases),
            static_cast<long long>(auditor.stats().replay_skipped),
            auditor.stats().max_resident_values, sorted ? 1 : 0, exact ? 1 : 0,
            static_cast<long long>(auditor.violation_count()));
      }
    }
  }
}

// ----------------------------------------------------------------- packet

void audit_packet(const Options& opt, Tally& tally) {
  std::mt19937_64 rng(opt.seed + 2);
  for (const LabeledFactor& factor : standard_factors()) {
    // Factor-graph permutation.
    {
      std::vector<NodeId> dest(static_cast<std::size_t>(factor.size()));
      std::iota(dest.begin(), dest.end(), 0);
      std::shuffle(dest.begin(), dest.end(), rng);
      const PacketStats stats = simulate_permutation(factor.graph, dest);
      const PacketAuditReport report =
          audit_permutation_stats(factor.graph, dest, stats);
      ++tally.combos;
      if (!report.ok) {
        tally.fail();
        std::printf("AUDIT-VIOLATION section=packet factor=%s msg=\"%s\"\n",
                    factor.name.c_str(), report.message.c_str());
      }
      std::printf(
          "AUDIT section=packet factor=%s kind=factor steps=%d steps_lb=%d"
          " hops=%lld hops_lb=%lld ok=%d\n",
          factor.name.c_str(), stats.steps, report.steps_lower_bound,
          static_cast<long long>(stats.total_hops),
          static_cast<long long>(report.hops_lower_bound), report.ok ? 1 : 0);
    }
    // Product permutation (dimension-order routing), r = 2.
    const ProductGraph pg(factor, 2);
    if (pg.num_nodes() > (opt.quick ? 256 : 4096)) continue;
    std::vector<PNode> dest(static_cast<std::size_t>(pg.num_nodes()));
    std::iota(dest.begin(), dest.end(), 0);
    std::shuffle(dest.begin(), dest.end(), rng);
    const PacketStats stats = simulate_product_permutation(pg, dest);
    const PacketAuditReport report =
        audit_product_permutation_stats(pg, dest, stats);
    ++tally.combos;
    if (!report.ok) {
      tally.fail();
      std::printf("AUDIT-VIOLATION section=packet factor=%s msg=\"%s\"\n",
                  factor.name.c_str(), report.message.c_str());
    }
    std::printf(
        "AUDIT section=packet factor=%s kind=product r=2 steps=%d steps_lb=%d"
        " hops=%lld hops_lb=%lld ok=%d\n",
        factor.name.c_str(), stats.steps, report.steps_lower_bound,
        static_cast<long long>(stats.total_hops),
        static_cast<long long>(report.hops_lower_bound), report.ok ? 1 : 0);
  }
}

// --------------------------------------------------------------- zero-one

void report_certificate(Tally& tally, const char* target,
                        const std::string& detail,
                        const ZeroOneCertificate& cert) {
  ++tally.combos;
  if (!cert.certified()) {
    tally.fail();
    std::string witness;
    for (const Key k : cert.witness) witness += k != 0 ? '1' : '0';
    std::printf("AUDIT-VIOLATION section=zero-one target=%s witness=%s\n",
                target, witness.c_str());
  }
  std::printf(
      "AUDIT section=zero-one target=%s %s inputs=%lld exhaustive=%d"
      " certified=%d\n",
      target, detail.c_str(), static_cast<long long>(cert.inputs_tested),
      cert.exhaustive ? 1 : 0, cert.certified() ? 1 : 0);
}

void certify_zero_one_sweep(const Options& opt, Tally& tally) {
  const std::int64_t budget = opt.quick ? 2048 : opt.budget;

  // Comparator networks (exhaustive at these widths).
  for (const int n : {4, 8, 16}) {
    const ComparatorNetwork oem = odd_even_merge_sort_network(n);
    report_certificate(tally, "batcher-oem", "width=" + std::to_string(n),
                       certify_zero_one(
                           n, [&](std::span<Key> v) { oem.apply(v); }, budget,
                           opt.seed));
    const ComparatorNetwork bitonic = bitonic_sort_network(n);
    report_certificate(tally, "bitonic", "width=" + std::to_string(n),
                       certify_zero_one(
                           n, [&](std::span<Key> v) { bitonic.apply(v); },
                           budget, opt.seed));
  }
  for (const int n : {6, 9}) {
    const ComparatorNetwork oet = odd_even_transposition_network(n);
    report_certificate(tally, "oet-network", "width=" + std::to_string(n),
                       certify_zero_one(
                           n, [&](std::span<Key> v) { oet.apply(v); }, budget,
                           opt.seed));
  }
  {
    struct Shape {
      int n, r;
    };
    for (const Shape s : {Shape{2, 3}, Shape{3, 2}, Shape{4, 2}}) {
      const ComparatorNetwork net = multiway_sort_network(s.n, s.r);
      report_certificate(
          tally, "multiway-sort",
          "N=" + std::to_string(s.n) + " r=" + std::to_string(s.r) +
              " width=" + std::to_string(net.width()),
          certify_zero_one(
              net.width(), [&](std::span<Key> v) { net.apply(v); }, budget,
              opt.seed));
    }
  }

  // Sequence baselines (oblivious ones only; samplesort is data-dependent
  // and outside the 0-1 principle's scope).
  report_certificate(tally, "shearsort-seq", "rows=4 cols=4",
                     certify_zero_one(
                         16,
                         [](std::span<Key> v) {
                           std::vector<Key> keys(v.begin(), v.end());
                           shearsort(keys, 4, 4);
                           const auto seq = snake_to_sequence(keys, 4, 4);
                           std::copy(seq.begin(), seq.end(), v.begin());
                         },
                         budget, opt.seed));
  report_certificate(tally, "columnsort-seq", "rows=8 cols=2",
                     certify_zero_one(
                         16,
                         [](std::span<Key> v) {
                           std::vector<Key> keys(v.begin(), v.end());
                           columnsort(keys, 8, 2);
                           std::copy(keys.begin(), keys.end(), v.begin());
                         },
                         budget, opt.seed));
  report_certificate(tally, "batcher-seq", "width=16",
                     certify_zero_one(
                         16, [](std::span<Key> v) { (void)batcher_sort(v); },
                         budget, opt.seed));
  report_certificate(tally, "oet-seq", "width=10",
                     certify_zero_one(
                         10,
                         [](std::span<Key> v) {
                           (void)odd_even_transposition_sort(v);
                         },
                         budget, opt.seed));

  // The machine sort itself as a width-N^r oblivious algorithm:
  // exhaustive on the small products, seeded-random on path(3)^3.
  const ShearsortS2 shearsort_s2;
  const SnakeOETS2 snake_oet_s2;
  struct MachineCase {
    const char* name;
    LabeledFactor factor;
    int r;
    const S2Sorter* s2;
    std::int64_t budget;  ///< 0 = exhaustive width permitting
  };
  const std::int64_t sampled = opt.quick ? 512 : 8192;
  const MachineCase cases[] = {
      {"product-sort", labeled_path(3), 2, &shearsort_s2, 0},
      {"product-sort", labeled_path(3), 2, &snake_oet_s2, 0},
      {"product-sort", labeled_k2(), 3, &shearsort_s2, 0},
      {"product-sort", labeled_path(4), 2, &shearsort_s2, 0},
      {"product-sort", labeled_path(3), 3, &shearsort_s2, sampled},
  };
  for (const MachineCase& c : cases) {
    const ProductGraph pg(c.factor, c.r);
    const int width = static_cast<int>(pg.num_nodes());
    const auto algorithm = [&](std::span<Key> v) {
      std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
      for (PNode rank = 0; rank < pg.num_nodes(); ++rank)
        keys[static_cast<std::size_t>(node_at_snake_rank(pg, rank))] =
            v[static_cast<std::size_t>(rank)];
      Machine machine(pg, std::move(keys));
      SortOptions options;
      options.s2 = c.s2;
      (void)sort_product_network(machine, options);
      const auto seq = machine.read_snake(full_view(pg));
      std::copy(seq.begin(), seq.end(), v.begin());
    };
    report_certificate(
        tally, c.name,
        "factor=" + c.factor.name + " r=" + std::to_string(c.r) +
            " sorter=" + c.s2->name() + " width=" + std::to_string(width),
        certify_zero_one(width, algorithm,
                         c.budget > 0 ? c.budget : budget, opt.seed));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Tally tally;
  StaticCross cross;
  try {
    for (int i = 1; i < argc; ++i) {
      FlagCursor flag{argc, argv, i};
      if (std::strcmp(argv[i], "--quick") == 0) opt.quick = true;
      else if (flag.has_value("--seed")) flag.number(opt.seed);
      else if (flag.has_value("--threads")) flag.number(opt.threads);
      else if (flag.has_value("--budget")) flag.number(opt.budget);
      else {
        std::fprintf(stderr,
                     "usage: %s [--quick] [--seed S] [--threads T]"
                     " [--budget B]\n",
                     argv[0]);
        return 2;
      }
    }
    audit_machine(opt, tally, cross);
    audit_block(opt, tally, cross);
    audit_packet(opt, tally);
    certify_zero_one_sweep(opt, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Static/dynamic cross-check: every schedule the auditor exercised
  // must also be statically proven — a blind spot is a failure.
  const long unproven = cross.unproven();
  if (unproven > 0 || cross.blind > 0) tally.fail();
  std::printf(
      "AUDIT-STATIC schedules=%ld unique=%zu proven=%zu unproven=%ld"
      " blind=%ld static=%s\n",
      cross.schedules, cross.unique.size(),
      cross.unique.size() - static_cast<std::size_t>(unproven), unproven,
      cross.blind, unproven == 0 && cross.blind == 0 ? "clean" : "DIRTY");

  const bool clean = tally.violations == 0 && tally.failures == 0;
  std::printf("AUDIT-SUMMARY combos=%ld violations=%ld failures=%ld status=%s\n",
              tally.combos, tally.violations, tally.failures,
              clean ? "clean" : "DIRTY");
  return clean ? 0 : 1;
}
