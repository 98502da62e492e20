#include "core/product_sort.hpp"

#include <stdexcept>

#include "core/s2/oracle_s2.hpp"
#include "core/sort_plan.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

namespace {

// Driver state threaded through the recursion.
struct Driver {
  Machine& machine;
  const S2Sorter& s2;
  std::vector<PhaseRecord>* trace = nullptr;

  void record(PhaseRecord::Kind kind, int lo, int hi, double weight,
              std::size_t units) const {
    if (trace != nullptr) trace->push_back({kind, lo, hi, weight, units});
  }
};

// One S2 phase over `views` (all two-dimensional, disjoint): charges
// Lemma 3 accounting, then lets the sorter execute.
void s2_phase(const Driver& driver, int lo, int hi,
              std::span<const ViewSpec> views,
              const std::vector<bool>& descending) {
  const double weight =
      driver.s2.phase_cost(driver.machine.graph().factor());
  driver.machine.cost().charge_s2_phase(weight);
  driver.record(PhaseRecord::Kind::kS2Sort, lo, hi, weight, views.size());
  driver.s2.sort_views(driver.machine, views, descending);
}

// Base of a PG_2 block of the (lo..hi) view `parent`: group digits
// (dimensions lo+2..hi) are the Gray tuple of rank z.
PNode block_base(const ProductGraph& pg, const ViewSpec& parent, PNode z) {
  const int group_dims = parent.dims() - 2;
  NodeId digits[62];
  gray_tuple(pg.radix(), z,
             std::span<NodeId>(digits, static_cast<std::size_t>(group_dims)));
  PNode base = parent.base;
  for (int j = 0; j < group_dims; ++j)
    base += static_cast<PNode>(digits[j]) * pg.weight(parent.lo + 2 + j);
  return base;
}

// One odd-even transposition phase of Step 4; the smaller key lands in
// the predecessor block.
void transposition_phase(const Driver& driver, int lo, int hi, int parity) {
  Machine& machine = driver.machine;
  const LabeledFactor& factor = machine.graph().factor();
  machine.cost().charge_routing_phase(factor.routing_cost);
  const std::vector<CEPair> pairs =
      transposition_pairs(machine.graph(), lo, hi, parity);
  driver.record(PhaseRecord::Kind::kTransposition, lo, hi,
                factor.routing_cost, pairs.size());
  // Partners differ by one in a single digit: adjacent when the factor is
  // Hamiltonian-labeled, otherwise at most `dilation` hops apart.
  machine.compare_exchange_step(pairs, factor.dilation);
}

// Step 4's block sorts: every PG_2 block at dimensions {lo, lo+1} of
// every (lo..hi) view, direction by group-label parity.
void block_sort_phase(const Driver& driver, int lo, int hi) {
  const ProductGraph& pg = driver.machine.graph();
  const std::vector<ViewSpec> blocks = all_views(pg, lo, lo + 1);
  s2_phase(driver, lo, hi, blocks, block_directions(pg, blocks, lo, hi));
}

void merge_level_impl(const Driver& driver, int lo, int hi) {
  const ProductGraph& pg = driver.machine.graph();
  if (lo < 1 || hi > pg.dims() || hi - lo < 1)
    throw std::invalid_argument("merge_level needs >= 2 free dimensions");

  if (hi - lo == 1) {  // two dimensions: the assumed PG_2 sorter
    const std::vector<ViewSpec> views = all_views(pg, lo, hi);
    s2_phase(driver, lo, hi, views, std::vector<bool>(views.size(), false));
    return;
  }

  // Step 1 and Step 3 require no computation or routing (Section 4).
  merge_level_impl(driver, lo + 1, hi);  // Step 2
  block_sort_phase(driver, lo, hi);      // Step 4: first block sorts
  transposition_phase(driver, lo, hi, 0);
  transposition_phase(driver, lo, hi, 1);
  block_sort_phase(driver, lo, hi);      // Step 4: final block sorts
}

}  // namespace

std::vector<CEPair> transposition_pairs(const ProductGraph& pg, int lo, int hi,
                                        int parity) {
  const PNode n = pg.radix();
  const PNode nblocks = pow_int(pg.radix(), hi - lo - 1);
  // Block-local offsets: dimension lo fastest, then lo + 1.
  const PNode col_step = pg.weight(lo);
  const PNode row_step = pg.weight(lo + 1);
  const std::vector<ViewSpec> parents = all_views(pg, lo, hi);

  std::vector<CEPair> pairs;
  pairs.reserve(parents.size() *
                static_cast<std::size_t>((nblocks - parity) / 2 * n * n));
  for (const ViewSpec& parent : parents) {
    for (PNode z = parity; z + 1 < nblocks; z += 2) {
      const PNode low_base = block_base(pg, parent, z);
      const PNode high_base = block_base(pg, parent, z + 1);
      for (PNode row = 0; row < n * row_step; row += row_step)
        for (PNode col = 0; col < n * col_step; col += col_step)
          pairs.push_back({low_base + row + col, high_base + row + col});
    }
  }
  return pairs;
}

std::vector<bool> block_directions(const ProductGraph& pg,
                                   std::span<const ViewSpec> blocks, int lo,
                                   int hi) {
  std::vector<bool> descending(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i)
    descending[i] = weight_parity(pg, blocks[i].base, lo + 2, hi);
  return descending;
}

void merge_level(Machine& machine, int lo, int hi, const S2Sorter& s2) {
  merge_level_impl(Driver{machine, s2, nullptr}, lo, hi);
}

SortReport sort_product_network(Machine& machine, const SortOptions& options) {
  if (const SortPlan* plan = machine.plan();
      plan != nullptr && plan->replays(options))
    return plan->replay(machine, options);
  const ProductGraph& pg = machine.graph();
  if (pg.dims() < 2)
    throw std::invalid_argument("sorting needs r >= 2 dimensions");

  static const OracleS2 default_s2;
  const S2Sorter& s2 = options.s2 != nullptr ? *options.s2 : default_s2;
  const Driver driver{machine, s2, options.trace};

  // Initial independent sorts of all N^2-key blocks (Section 3.3).
  {
    const std::vector<ViewSpec> views = all_views(pg, 1, 2);
    s2_phase(driver, 1, 2, views, std::vector<bool>(views.size(), false));
  }

  for (int k = 3; k <= pg.dims(); ++k) {
    merge_level_impl(driver, 1, k);
    if (options.validate_levels) {
      for (const ViewSpec& v : all_views(pg, 1, k))
        if (!machine.snake_sorted(v))
          throw std::logic_error("merge level " + std::to_string(k) +
                                 " left a view unsorted");
    }
  }

  SortReport report;
  report.cost = machine.cost();
  report.predicted = theorem1(pg.factor(), pg.dims());
  return report;
}

}  // namespace prodsort
