// prodsort_staticcheck — static schedule analysis sweep: records the
// comparator schedule of every registered (topology, sorter, r) combo
// once, then proves its properties without executing on data.
//
//   prodsort_staticcheck [--quick] [--seed S] [--budget B]
//                        [--max-exhaustive W] [--json FILE]
//   prodsort_staticcheck --repro <STATIC-REPRO line>
//
// Per unique schedule (canonical hash — identical schedules reached
// through different shapes are analyzed once):
//
//   structure  prove_schedule: pair disjointness, one-dimension
//              locality / hop honesty, Section-4 two-value memory
//              bound.  A failed property prints its counterexamples as
//              STATIC-VIOLATION lines;
//   oblivious  the schedule is re-recorded from a different input
//              permutation and must hash identically (the recorder's
//              premise, checked rather than assumed);
//   zero-one   sortedness by the 0-1 principle over the snake-rank
//              lowering: exhaustive (a proof) up to --max-exhaustive
//              wires, seeded sampling beyond (STATIC-REPRO replays it
//              bit-identically).  Oracle-backed schedules are
//              structural-only — OracleS2 moves keys outside the
//              compare-exchange seam, so their recorded phases are not
//              the whole sort (counted as zero_one=skipped);
//   dataflow   dead comparators (relation domain + exact 0-1
//              activity), adjacent-phase fusion candidates, critical
//              path vs phase count, projected step savings.
//
// STATIC-TIMING measures what a clean proof buys at run time: the same
// schedule replayed with the per-phase disjointness sweep on vs
// Machine::set_statically_audited(true).
//
// Exit 0 iff every structural property is proven and no 0-1 check
// fails; --json writes the full machine-readable report (the CI
// artifact behind the staticcheck-sweep job).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "any_width_network.hpp"
#include "baselines/bitonic_network.hpp"
#include "core/block_sort.hpp"
#include "core/hashing.hpp"
#include "core/product_sort.hpp"
#include "core/s2/network_s2.hpp"
#include "core/s2/oracle_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "graph/labeled_factor.hpp"
#include "product/gray_code.hpp"
#include "repro_line.hpp"
#include "staticcheck/dataflow.hpp"
#include "staticcheck/schedule_ir.hpp"
#include "staticcheck/static_prover.hpp"
#include "staticcheck/zero_one_check.hpp"

using namespace prodsort;

namespace {

struct Options {
  bool quick = false;
  std::uint64_t seed = 1;
  std::int64_t budget = 4096;  ///< sampled 0-1 trials beyond exhaustive
  int max_exhaustive = 22;     ///< exhaustive 0-1 up to this many wires
  const char* json_path = nullptr;
};

// The sorters a STATIC-REPRO line may name: the unit-key ones, then
// the block ones, then the baseline; replay() indexes its sorter tables
// in this order.
const char* const kReproSorters[] = {"shearsort",       "snake-oet",
                                     "network-s2",      "block-shearsort",
                                     "block-snake-oet", "bitonic-baseline"};
const auto kReproSorterCodec = names_codec(kReproSorters);

/// The STATIC-REPRO line: the bit-identical replay recipe of a sampled
/// 0-1 verdict — same (schedule, seed, budget), same sampled stream.
struct StaticRepro {
  std::uint64_t hash = 0;  ///< the schedule's canonical hash
  const LabeledFactor* factor = nullptr;
  int r = 2;
  std::size_t sorter = 0;  ///< index into kReproSorters
  int block = 1;
  std::uint64_t seed = 1;
  std::int64_t budget = 4096;

  static std::string_view tag(const StaticRepro&) { return "STATIC-REPRO"; }
  static void tokens(auto& v, auto& self) {
    v.text("hash", self.hash, kHexCodec);
    v.text("factor", self.factor, kFactorCodec);
    v("r", self.r);
    v.text("sorter", self.sorter, kReproSorterCodec);
    v("block", self.block);
    v("seed", self.seed);
    // A budget below one samples no input, so its verdict proves nothing.
    v.text("budget", self.budget,
           Codec{[](std::int64_t budget) { return std::to_string(budget); },
                 [](const std::string& text) {
                   std::int64_t budget = 0;
                   if (!read_number(text, budget) || budget < 1)
                     throw std::invalid_argument("expected an integer >= 1");
                   return budget;
                 }});
  }
};

// Analysis of one unique schedule, cached by canonical hash.
struct Analysis {
  StaticProof proof;
  std::string zero_one;  ///< proven | sampled-clean | failed | skipped
  std::int64_t zero_one_inputs = 0;
  std::string witness;  ///< minimized 0-1 witness when failed
  DataflowReport dataflow;
};

struct Sweep {
  const Options& opt;
  std::map<std::uint64_t, Analysis> cache;
  long entries = 0;
  long structural_failures = 0;
  long zero_one_failures = 0;
  long oblivious_failures = 0;
  // Graphs outlive the sweep (analyses and timing hold references).
  std::vector<std::unique_ptr<ProductGraph>> graphs;
  // Largest non-oracle unit-key schedule, kept for the timing section.
  ScheduleIR timing_ir;
  const ProductGraph* timing_pg = nullptr;

  explicit Sweep(const Options& options) : opt(options) {}
};

void print_counterexamples(const char* property, const PropertyProof& proof) {
  for (const Violation& v : proof.counterexamples)
    std::printf("STATIC-VIOLATION property=%s kind=%s msg=\"%s\"\n", property,
                to_string(v.kind).c_str(), v.message.c_str());
}

const Analysis& analyze(Sweep& sweep, const ProductGraph& pg,
                        const ScheduleIR& ir, bool cross_dimension,
                        bool oracle, bool snake_wires, bool* cached) {
  // Keyed on (graph, schedule): the locality proof consults factor
  // distances, so a hash-identical schedule from a different factor
  // must be re-proven, not served from cache.
  const std::uint64_t hash = mix64(graph_fingerprint(pg), ir.canonical_hash());
  const auto it = sweep.cache.find(hash);
  if (it != sweep.cache.end()) {
    *cached = true;
    return it->second;
  }
  *cached = false;

  Analysis a;
  StaticProverOptions prover_options;
  prover_options.allow_cross_dimension = cross_dimension;
  a.proof = prove_schedule(pg, ir, prover_options);

  const LoweredSchedule lowered = lower_to_comparators(pg, ir, snake_wires);
  if (oracle) {
    a.zero_one = "skipped";
  } else {
    ZeroOneCheckOptions zo;
    zo.max_exhaustive_width = sweep.opt.max_exhaustive;
    zo.sample_budget = sweep.opt.budget;
    zo.seed = sweep.opt.seed;
    const ZeroOneCheckResult result = check_zero_one(lowered, zo);
    a.zero_one_inputs = result.cert.inputs_tested;
    if (!result.sorts()) {
      a.zero_one = "failed";
      for (const Key k : result.cert.witness) a.witness += k != 0 ? '1' : '0';
    } else {
      a.zero_one = result.proven() ? "proven" : "sampled-clean";
    }
  }

  DataflowOptions df;
  df.zero_one.max_exhaustive_width = sweep.opt.max_exhaustive;
  df.zero_one.seed = sweep.opt.seed;
  df.run_zero_one = !oracle;
  a.dataflow = analyze_dataflow(lowered, ir, df);

  return sweep.cache.emplace(hash, std::move(a)).first->second;
}

void report(Sweep& sweep, const ProductGraph& pg, const ScheduleIR& ir,
            bool cross_dimension, bool oracle, bool snake_wires,
            bool oblivious_ok) {
  bool cached = false;
  const Analysis& a =
      analyze(sweep, pg, ir, cross_dimension, oracle, snake_wires, &cached);
  ++sweep.entries;

  if (!cached) {
    if (!a.proof.all_proven()) {
      ++sweep.structural_failures;
      print_counterexamples("disjointness", a.proof.disjointness);
      print_counterexamples("locality", a.proof.locality);
      print_counterexamples("memory", a.proof.memory);
    }
    if (a.zero_one == "failed") {
      ++sweep.zero_one_failures;
      std::printf("STATIC-VIOLATION property=zero-one witness=%s\n",
                  a.witness.c_str());
    }
  }
  if (!oblivious_ok) {
    ++sweep.oblivious_failures;
    std::printf(
        "STATIC-VIOLATION property=oblivious msg=\"schedule hash depends on "
        "input keys (topology=%s sorter=%s)\"\n",
        ir.topology.c_str(), ir.sorter.c_str());
  }

  std::printf(
      "STATIC topology=%s sorter=%s block=%d nodes=%lld hash=%016llx"
      " phases=%lld pairs=%lld disjoint=%d local=%d memory=%d max_resident=%d"
      " zero_one=%s inputs=%lld dead=%lld dead_exact=%d fusions=%zu slack=%d"
      " saved_prune=%lld saved_fusion=%lld cached=%d\n",
      ir.topology.c_str(), ir.sorter.c_str(), ir.block_size,
      static_cast<long long>(ir.num_nodes),
      static_cast<unsigned long long>(a.proof.schedule_hash),
      static_cast<long long>(a.proof.phases),
      static_cast<long long>(a.proof.pairs), a.proof.disjointness.proven,
      a.proof.locality.proven, a.proof.memory.proven,
      a.proof.max_resident_values, a.zero_one.c_str(),
      static_cast<long long>(a.zero_one_inputs),
      static_cast<long long>(a.dataflow.dead_total()), a.dataflow.dead_exact,
      a.dataflow.fusions.size(), a.dataflow.slack,
      static_cast<long long>(a.dataflow.saved_steps_prune),
      static_cast<long long>(a.dataflow.saved_steps_fusion), cached ? 1 : 0);

  if (!cached && a.zero_one == "sampled-clean") {
    const StaticRepro line{a.proof.schedule_hash,
                           &pg.factor(),
                           pg.dims(),
                           kReproSorterCodec.parse(ir.sorter),
                           ir.block_size,
                           sweep.opt.seed,
                           sweep.opt.budget};
    std::printf("%s\n", format_repro(line).c_str());
  }
}

// Re-records the unit-key schedule from a shuffled input and returns
// whether the hash matches `expected` — the data-obliviousness check.
bool oblivious_product(const ProductGraph& pg, const S2Sorter& s2,
                       std::uint64_t expected, std::mt19937_64& rng) {
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  std::iota(keys.begin(), keys.end(), Key{0});
  std::shuffle(keys.begin(), keys.end(), rng);
  Machine machine(pg, std::move(keys));
  ScheduleRecorder recorder(pg);
  machine.set_observer(&recorder);
  SortOptions options;
  options.s2 = &s2;
  (void)sort_product_network(machine, options);
  return recorder.take().canonical_hash() == expected;
}

ScheduleIR record_bitonic_schedule(const ProductGraph& pg) {
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  std::iota(keys.begin(), keys.end(), Key{0});
  Machine machine(pg, std::move(keys));
  ScheduleRecorder recorder(pg);
  machine.set_observer(&recorder);
  (void)bitonic_sort_on_hypercube(machine);
  ScheduleIR ir = recorder.take();
  ir.topology = "k2^" + std::to_string(pg.dims());
  ir.sorter = "bitonic-baseline";
  return ir;
}

void sweep_schedules(Sweep& sweep) {
  const Options& opt = sweep.opt;
  const auto factors = standard_factors();
  const OracleS2 oracle;
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  const BlockOracleS2 block_oracle;
  const BlockShearsortS2 block_shearsort;
  const BlockSnakeOETS2 block_oet;
  std::mt19937_64 rng(opt.seed);

  struct UnitEntry {
    const S2Sorter* sorter;
    PNode cap;
    bool cross_dimension;
    bool oracle;
  };
  const UnitEntry unit_entries[] = {
      {&oracle, opt.quick ? PNode{512} : PNode{4096}, false, true},
      {&shearsort, opt.quick ? PNode{400} : PNode{2000}, false, false},
      {&snake_oet, opt.quick ? PNode{256} : PNode{700}, false, false},
      {nullptr, opt.quick ? PNode{128} : PNode{350}, true, false},
  };
  for (const LabeledFactor& factor : factors) {
    const NetworkS2 net_s2(any_width_network(
        static_cast<int>(factor.size()) * static_cast<int>(factor.size())));
    for (const UnitEntry& entry : unit_entries) {
      const S2Sorter& s2 = entry.sorter != nullptr
                               ? *entry.sorter
                               : static_cast<const S2Sorter&>(net_s2);
      for (int r = 2; r <= 6 && pow_int(factor.size(), r) <= entry.cap; ++r) {
        sweep.graphs.push_back(std::make_unique<ProductGraph>(factor, r));
        const ProductGraph& pg = *sweep.graphs.back();
        ScheduleIR ir = record_product_schedule(pg, s2);
        const bool oblivious =
            oblivious_product(pg, s2, ir.canonical_hash(), rng);
        report(sweep, pg, ir, entry.cross_dimension, entry.oracle,
               /*snake_wires=*/true, oblivious);
        if (!entry.oracle &&
            ir.num_nodes > sweep.timing_ir.num_nodes) {
          sweep.timing_ir = ir;
          sweep.timing_pg = &pg;
        }
      }
    }

    struct BlockEntry {
      const BlockS2Sorter* sorter;
      PNode cap;
      bool oracle;
    };
    const BlockEntry block_entries[] = {
        {&block_oracle, opt.quick ? PNode{256} : PNode{1024}, true},
        {&block_shearsort, opt.quick ? PNode{128} : PNode{512}, false},
        {&block_oet, opt.quick ? PNode{64} : PNode{256}, false},
    };
    for (const BlockEntry& entry : block_entries) {
      for (int r = 2; r <= 4 && pow_int(factor.size(), r) <= entry.cap; ++r) {
        sweep.graphs.push_back(std::make_unique<ProductGraph>(factor, r));
        const ProductGraph& pg = *sweep.graphs.back();
        const ScheduleIR ir = record_block_schedule(pg, *entry.sorter, 4);
        report(sweep, pg, ir, /*cross_dimension=*/false, entry.oracle,
               /*snake_wires=*/true, /*oblivious_ok=*/true);
      }
    }
  }

  // The Section 5.3 baseline: bitonic sort on the hypercube machine.
  // It sorts in node-id order, so the 0-1 lowering uses identity wires.
  for (int r = 2; r <= (opt.quick ? 6 : 9); ++r) {
    sweep.graphs.push_back(std::make_unique<ProductGraph>(labeled_k2(), r));
    const ProductGraph& pg = *sweep.graphs.back();
    const ScheduleIR ir = record_bitonic_schedule(pg);
    report(sweep, pg, ir, /*cross_dimension=*/false, /*oracle=*/false,
           /*snake_wires=*/false, /*oblivious_ok=*/true);
  }
}

void print_timing(const Sweep& sweep, std::mt19937_64& rng) {
  if (sweep.timing_pg == nullptr) return;
  const ProductGraph& pg = *sweep.timing_pg;
  const ScheduleIR& ir = sweep.timing_ir;

  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  for (Key& k : keys) k = static_cast<Key>(rng() % 1000003);

  // Interleave the two modes and keep the per-mode minimum: back-to-back
  // blocks drift (frequency scaling, cache state) on a long sweep, and
  // the minimum is the least-noise estimate of the replay cost.
  double ms[2] = {1e300, 1e300};
  const int reps = 5;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 is an untimed warm-up
    for (const bool statically_audited : {false, true}) {
      Machine machine(pg, keys);
      machine.set_check_disjoint(true);  // sweep on in both build types
      machine.set_statically_audited(statically_audited);
      const auto start = std::chrono::steady_clock::now();
      apply_schedule(machine, ir);
      const auto stop = std::chrono::steady_clock::now();
      if (rep < 0) continue;
      ms[statically_audited ? 1 : 0] = std::min(
          ms[statically_audited ? 1 : 0],
          std::chrono::duration<double, std::milli>(stop - start).count());
    }
  }
  std::printf(
      "STATIC-TIMING topology=%s sorter=%s nodes=%lld phases=%lld reps=%d"
      " dynamic_sweep_ms=%.3f statically_audited_ms=%.3f speedup=%.2f\n",
      ir.topology.c_str(), ir.sorter.c_str(),
      static_cast<long long>(ir.num_nodes),
      static_cast<long long>(ir.phases().size()), reps, ms[0], ms[1],
      ms[1] > 0 ? ms[0] / ms[1] : 0.0);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void write_json(const Sweep& sweep, bool clean) {
  std::FILE* f = std::fopen(sweep.opt.json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", sweep.opt.json_path);
    return;
  }
  std::fprintf(f, "{\n  \"schedules\": [\n");
  bool first = true;
  for (const auto& [hash, a] : sweep.cache) {
    std::fprintf(
        f,
        "%s    {\"hash\": \"%016llx\", \"phases\": %lld, \"pairs\": %lld,"
        " \"disjointness\": %s, \"locality\": %s, \"memory\": %s,"
        " \"max_resident\": %d, \"zero_one\": \"%s\", \"inputs\": %lld,"
        " \"witness\": \"%s\", \"dead\": %lld, \"dead_exact\": %s,"
        " \"fusions\": %zu, \"phase_count\": %d, \"critical_path\": %d,"
        " \"slack\": %d, \"saved_steps_prune\": %lld,"
        " \"saved_steps_fusion\": %lld}",
        first ? "" : ",\n",
        static_cast<unsigned long long>(a.proof.schedule_hash),
        static_cast<long long>(a.proof.phases),
        static_cast<long long>(a.proof.pairs),
        a.proof.disjointness.proven ? "true" : "false",
        a.proof.locality.proven ? "true" : "false",
        a.proof.memory.proven ? "true" : "false", a.proof.max_resident_values,
        json_escape(a.zero_one).c_str(),
        static_cast<long long>(a.zero_one_inputs),
        json_escape(a.witness).c_str(),
        static_cast<long long>(a.dataflow.dead_total()),
        a.dataflow.dead_exact ? "true" : "false", a.dataflow.fusions.size(),
        a.dataflow.phase_count, a.dataflow.critical_path, a.dataflow.slack,
        static_cast<long long>(a.dataflow.saved_steps_prune),
        static_cast<long long>(a.dataflow.saved_steps_fusion));
    first = false;
  }
  std::fprintf(f,
               "\n  ],\n  \"summary\": {\"entries\": %ld, \"unique\": %zu,"
               " \"structural_failures\": %ld, \"zero_one_failures\": %ld,"
               " \"oblivious_failures\": %ld, \"status\": \"%s\"}\n}\n",
               sweep.entries, sweep.cache.size(), sweep.structural_failures,
               sweep.zero_one_failures, sweep.oblivious_failures,
               clean ? "clean" : "DIRTY");
  std::fclose(f);
}

int replay(const std::string& line) {
  const StaticRepro repro = parse_repro<StaticRepro>(line);
  const ProductGraph pg(*repro.factor, repro.r);
  const std::string sorter = kReproSorters[repro.sorter];
  const bool bitonic = sorter == "bitonic-baseline";
  const bool block_sorter = sorter.starts_with("block-");
  if (!bitonic && block_sorter != (repro.block > 1))
    throw std::invalid_argument("STATIC-REPRO: sorter=" + sorter +
                                " does not run at block=" +
                                std::to_string(repro.block));

  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  const NetworkS2 net_s2(any_width_network(
      static_cast<int>(repro.factor->size()) *
      static_cast<int>(repro.factor->size())));
  const BlockShearsortS2 block_shearsort;
  const BlockSnakeOETS2 block_oet;
  const S2Sorter* const unit[] = {&shearsort, &snake_oet, &net_s2};
  const BlockS2Sorter* const block[] = {&block_shearsort, &block_oet};
  const ScheduleIR ir =
      bitonic        ? record_bitonic_schedule(pg)
      : block_sorter ? record_block_schedule(pg, *block[repro.sorter - 3],
                                             repro.block)
                     : record_product_schedule(pg, *unit[repro.sorter]);
  const bool snake_wires = !bitonic;

  const bool hash_match = ir.canonical_hash() == repro.hash;
  const LoweredSchedule lowered = lower_to_comparators(pg, ir, snake_wires);
  ZeroOneCheckOptions zo;
  zo.max_exhaustive_width = 0;  // repro lines come from sampled runs
  zo.sample_budget = repro.budget;
  zo.seed = repro.seed;
  const ZeroOneCheckResult result = check_zero_one(lowered, zo);
  std::printf(
      "STATIC-REPRO-REPLAY hash=%016llx hash_match=%d certified=%d"
      " inputs=%lld exhaustive=%d\n",
      static_cast<unsigned long long>(ir.canonical_hash()), hash_match ? 1 : 0,
      result.sorts() ? 1 : 0,
      static_cast<long long>(result.cert.inputs_tested),
      result.cert.exhaustive ? 1 : 0);
  return hash_match && result.sorts() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Sweep sweep(opt);  // reads the options only once the sweep runs
  try {
    for (int i = 1; i < argc; ++i) {
      FlagCursor flag{argc, argv, i};
      if (std::strcmp(argv[i], "--quick") == 0) opt.quick = true;
      else if (flag.has_value("--seed")) flag.number(opt.seed);
      else if (flag.has_value("--budget")) flag.number(opt.budget);
      else if (flag.has_value("--max-exhaustive"))
        flag.number(opt.max_exhaustive);
      else if (flag.has_value("--json")) opt.json_path = argv[++i];
      else if (std::strcmp(argv[i], "--repro") == 0)
        return replay(ReproLine::rejoin_args(argc, argv, i + 1));
      else {
        std::fprintf(stderr,
                     "usage: %s [--quick] [--seed S] [--budget B]"
                     " [--max-exhaustive W] [--json FILE]"
                     " [--repro <STATIC-REPRO line>]\n",
                     argv[0]);
        return 2;
      }
    }
    sweep_schedules(sweep);
    std::mt19937_64 rng(opt.seed + 7);
    print_timing(sweep, rng);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  long proven = 0, zero_one_proven = 0, zero_one_sampled = 0,
       zero_one_skipped = 0;
  std::int64_t dead_total = 0, saved_steps = 0;
  for (const auto& [hash, a] : sweep.cache) {
    proven += a.proof.all_proven();
    zero_one_proven += a.zero_one == "proven";
    zero_one_sampled += a.zero_one == "sampled-clean";
    zero_one_skipped += a.zero_one == "skipped";
    dead_total += a.dataflow.dead_total();
    saved_steps +=
        a.dataflow.saved_steps_prune + a.dataflow.saved_steps_fusion;
  }
  const bool clean = sweep.structural_failures == 0 &&
                     sweep.zero_one_failures == 0 &&
                     sweep.oblivious_failures == 0;
  std::printf(
      "STATIC-SUMMARY entries=%ld unique=%zu proven=%ld zero_one_proven=%ld"
      " zero_one_sampled=%ld zero_one_skipped=%ld dead=%lld saved_steps=%lld"
      " status=%s\n",
      sweep.entries, sweep.cache.size(), proven, zero_one_proven,
      zero_one_sampled, zero_one_skipped, static_cast<long long>(dead_total),
      static_cast<long long>(saved_steps), clean ? "clean" : "DIRTY");
  if (opt.json_path != nullptr) write_json(sweep, clean);
  return clean ? 0 : 1;
}
