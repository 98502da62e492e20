// prodsort_cli — run the generalized sorting algorithm on any product
// network from the command line.
//
//   prodsort_cli --factor path --size 8 --dims 3 --sorter shearsort
//                [--threads 4] [--seed 1] [--csv] [--validate]
//
// Factors: path cycle complete k2 tree star petersen debruijn shufflex
//          kbip wheel qcube   (size is N for path/cycle/..., levels for
//          tree, d for debruijn/shufflex/qcube, m for kbip)
// Sorters: oracle shearsort snake-oet
//
// Prints one report line (or CSV row) with the Theorem 1 prediction and
// the measured cost; exits nonzero if the result is unsorted or a phase
// count deviates from the closed form.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include "core/block_sort.hpp"
#include "core/product_sort.hpp"
#include "core/s2/oracle_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "product/snake_order.hpp"
#include "repro_line.hpp"

using namespace prodsort;

namespace {

struct Options {
  std::string factor = "path";
  int size = 4;
  int dims = 3;
  std::string sorter = "oracle";
  int threads = 1;
  unsigned seed = 1;
  int block = 1;  ///< keys per processor (> 1 switches to block mode)
  bool csv = false;
  bool validate = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--factor F] [--size N] [--dims R] [--sorter S]\n"
               "          [--threads T] [--seed K] [--block B] [--csv]\n"
               "          [--validate]\n"
               "factors: path cycle complete k2 tree star petersen debruijn\n"
               "         shufflex kbip wheel qcube ccc\n"
               "sorters: oracle shearsort snake-oet (unit-key mode only)\n"
               "--block B > 1 runs block mode (B keys per processor)\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--csv" && arg != "--validate" && i + 1 >= argc) usage(argv[0]);
    FlagCursor flag{argc, argv, i};
    if (arg == "--factor") opt.factor = argv[++i];
    else if (arg == "--size") flag.number(opt.size);
    else if (arg == "--dims") flag.number(opt.dims);
    else if (arg == "--sorter") opt.sorter = argv[++i];
    else if (arg == "--threads") flag.number(opt.threads);
    else if (arg == "--seed") flag.number(opt.seed);
    else if (arg == "--block") flag.number(opt.block);
    else if (arg == "--csv") opt.csv = true;
    else if (arg == "--validate") opt.validate = true;
    else usage(argv[0]);
  }
  return opt;
}

LabeledFactor pick_factor(const Options& opt) {
  const std::string& f = opt.factor;
  const NodeId n = static_cast<NodeId>(opt.size);
  if (f == "path") return labeled_path(n);
  if (f == "cycle") return labeled_cycle(n);
  if (f == "complete") return labeled_complete(n);
  if (f == "k2") return labeled_k2();
  if (f == "tree") return labeled_binary_tree(opt.size);
  if (f == "star") return labeled_star(n);
  if (f == "petersen") return labeled_petersen();
  if (f == "debruijn") return labeled_de_bruijn(opt.size);
  if (f == "shufflex") return labeled_shuffle_exchange(opt.size);
  if (f == "kbip") return labeled_complete_bipartite(n);
  if (f == "wheel") return labeled_wheel(n);
  if (f == "qcube") return labeled_hypercube(opt.size);
  if (f == "ccc") return labeled_ccc(opt.size);
  std::fprintf(stderr, "unknown factor '%s'\n", f.c_str());
  std::exit(2);
}

}  // namespace

namespace {

int run(const Options& opt, const char* argv0);

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv), argv[0]);
  } catch (const std::exception& e) {
    // Library validation errors (bad sizes, r < 2, ...) surface here.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

namespace {

int run(const Options& opt, const char* argv0) {
  const LabeledFactor factor = pick_factor(opt);
  const ProductGraph pg(factor, opt.dims);

  if (opt.block < 1) usage(argv0);
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()) *
                        static_cast<std::size_t>(opt.block));
  std::mt19937_64 rng(opt.seed);
  for (Key& k : keys) k = static_cast<Key>(rng() % 1000003);

  ParallelExecutor exec(opt.threads);

  if (opt.block > 1) {  // block mode: B keys per processor, merge-split
    BlockMachine machine(pg, std::move(keys), opt.block,
                         opt.threads > 1 ? &exec : nullptr);
    BlockSortOptions options;
    options.validate_levels = opt.validate;
    const BlockSortReport report = sort_block_network(machine, options);
    const bool sorted = machine.snake_sorted(full_view(pg));
    const bool exact =
        report.cost.s2_phases == report.predicted.s2_phases &&
        report.cost.routing_phases == report.predicted.routing_phases;
    std::printf("%s^%d, block mode: %lld keys (%d per processor)\n",
                factor.name.c_str(), pg.dims(),
                static_cast<long long>(pg.num_nodes() * opt.block), opt.block);
    std::printf("  sorted            : %s\n", sorted ? "yes" : "NO");
    std::printf("  S2 phases         : %lld (predicted %lld)\n",
                static_cast<long long>(report.cost.s2_phases),
                static_cast<long long>(report.predicted.s2_phases));
    std::printf("  routing phases    : %lld (predicted %lld)\n",
                static_cast<long long>(report.cost.routing_phases),
                static_cast<long long>(report.predicted.routing_phases));
    std::printf("  time (block units): %.1f\n", report.cost.formula_time);
    return sorted && exact ? 0 : 1;
  }

  Machine machine(pg, std::move(keys),
                  opt.threads > 1 ? &exec : nullptr);

  const OracleS2 oracle;
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  SortOptions sort_options;
  if (opt.sorter == "oracle") sort_options.s2 = &oracle;
  else if (opt.sorter == "shearsort") sort_options.s2 = &shearsort;
  else if (opt.sorter == "snake-oet") sort_options.s2 = &snake_oet;
  else usage(argv0);
  sort_options.validate_levels = opt.validate;

  const SortReport report = sort_product_network(machine, sort_options);
  const bool sorted = machine.snake_sorted(full_view(pg));
  const bool exact =
      report.cost.s2_phases == report.predicted.s2_phases &&
      report.cost.routing_phases == report.predicted.routing_phases;

  if (opt.csv) {
    std::printf("factor,N,r,keys,sorter,s2_phases,routing_phases,"
                "formula_time,predicted_time,exec_steps,comparisons,sorted\n");
    std::printf("%s,%d,%d,%lld,%s,%lld,%lld,%.1f,%.1f,%lld,%lld,%d\n",
                factor.name.c_str(), factor.size(), pg.dims(),
                static_cast<long long>(pg.num_nodes()), opt.sorter.c_str(),
                static_cast<long long>(report.cost.s2_phases),
                static_cast<long long>(report.cost.routing_phases),
                report.cost.formula_time, report.predicted.formula_time,
                static_cast<long long>(report.cost.exec_steps),
                static_cast<long long>(report.cost.comparisons),
                sorted ? 1 : 0);
  } else {
    std::printf("%s^%d (%lld keys), sorter=%s, threads=%d\n",
                factor.name.c_str(), pg.dims(),
                static_cast<long long>(pg.num_nodes()), opt.sorter.c_str(),
                opt.threads);
    std::printf("  sorted            : %s\n", sorted ? "yes" : "NO");
    std::printf("  S2 phases         : %lld (predicted %lld)\n",
                static_cast<long long>(report.cost.s2_phases),
                static_cast<long long>(report.predicted.s2_phases));
    std::printf("  routing phases    : %lld (predicted %lld)\n",
                static_cast<long long>(report.cost.routing_phases),
                static_cast<long long>(report.predicted.routing_phases));
    std::printf("  time (paper units): %.1f (Theorem 1: %.1f)\n",
                report.cost.formula_time, report.predicted.formula_time);
    std::printf("  executed steps    : %lld\n",
                static_cast<long long>(report.cost.exec_steps));
    std::printf("  comparisons       : %lld\n",
                static_cast<long long>(report.cost.comparisons));
  }
  return sorted && exact ? 0 : 1;
}

}  // namespace
