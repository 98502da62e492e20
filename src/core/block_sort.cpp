#include "core/block_sort.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "core/product_sort.hpp"  // transposition_pairs, block_directions
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

void BlockOracleS2::sort_views(BlockMachine& machine,
                               std::span<const ViewSpec> views,
                               const std::vector<bool>& descending) const {
  const ProductGraph& pg = machine.graph();
  const int b = machine.block_size();
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::vector<Key> buffer;
    for (std::int64_t i = begin; i < end; ++i) {
      const ViewSpec& v = views[static_cast<std::size_t>(i)];
      const PNode size = view_size(pg, v);
      buffer.clear();
      buffer.reserve(static_cast<std::size_t>(size) * b);
      for (PNode rank = 0; rank < size; ++rank) {
        const auto blk = machine.block(view_node_at_snake_rank(pg, v, rank));
        buffer.insert(buffer.end(), blk.begin(), blk.end());
      }
      std::sort(buffer.begin(), buffer.end());
      // Scatter back: rank j gets run j ascending, or run size-1-j for a
      // descending view (runs themselves stay ascending).
      for (PNode rank = 0; rank < size; ++rank) {
        const PNode run = descending[static_cast<std::size_t>(i)]
                              ? size - 1 - rank
                              : rank;
        const auto src = buffer.begin() + static_cast<std::ptrdiff_t>(run * b);
        // AUDITOR-EXEMPT(oracle): modeled sorter, not a simulated data
        // path — the phase's cost is charged analytically below, so this
        // scatter legitimately bypasses merge_split_step.
        auto dst = machine.mutable_block(view_node_at_snake_rank(pg, v, rank));
        std::copy(src, src + b, dst.begin());
      }
    }
  };
  if (machine.executor() != nullptr)
    machine.executor()->parallel_for(static_cast<std::int64_t>(views.size()),
                                     body);
  else
    body(0, static_cast<std::int64_t>(views.size()));
  machine.cost().exec_steps +=
      std::llround(phase_cost(pg.factor(), b));
}

namespace {

// Replays a lockstep pass with merge-split steps.
void run_merge_split(BlockMachine& machine, const LockstepPass& pass,
                     int hop) {
  pass.run([&](std::span<const CEPair> pairs) {
    machine.merge_split_step(pairs, hop);
  });
}

// Shearsort iterations: ceil(log2 N) + 1, but at least two (N = 1).
int block_shearsort_iterations(NodeId n) {
  return std::max(1, ceil_log2(n)) + 1;
}

}  // namespace

void BlockSnakeOETS2::sort_views(BlockMachine& machine,
                                 std::span<const ViewSpec> views,
                                 const std::vector<bool>& descending) const {
  if (views.empty()) return;
  const ProductGraph& pg = machine.graph();
  run_merge_split(machine, snake_pass(pg, views, descending),
                  pg.factor().dilation);
}

double BlockShearsortS2::phase_cost(const LabeledFactor& factor,
                                    int block_size) const {
  const double n = factor.size();
  const double per_step = factor.dilation + block_size - 1.0;
  return (block_shearsort_iterations(factor.size()) * 2.0 * n + n) * per_step;
}

void BlockShearsortS2::sort_views(BlockMachine& machine,
                                  std::span<const ViewSpec> views,
                                  const std::vector<bool>& descending) const {
  if (views.empty()) return;
  const ProductGraph& pg = machine.graph();
  const int hop = pg.factor().dilation;
  const ShearsortPasses passes = shearsort_passes(pg, views, descending);
  const int iterations = block_shearsort_iterations(pg.radix());
  for (int it = 0; it < iterations; ++it) {
    run_merge_split(machine, passes.rows, hop);
    run_merge_split(machine, passes.cols, hop);
  }
  run_merge_split(machine, passes.rows, hop);
}

namespace {

struct BlockDriver {
  BlockMachine& machine;
  const BlockS2Sorter& s2;
  std::vector<PhaseRecord>* trace = nullptr;

  void record(PhaseRecord::Kind kind, int lo, int hi, double weight,
              std::size_t units) const {
    if (trace != nullptr) trace->push_back({kind, lo, hi, weight, units});
  }
};

void s2_phase(const BlockDriver& driver, int lo, int hi,
              std::span<const ViewSpec> views,
              const std::vector<bool>& descending) {
  BlockMachine& machine = driver.machine;
  const double weight =
      driver.s2.phase_cost(machine.graph().factor(), machine.block_size());
  machine.cost().charge_s2_phase(weight);
  driver.record(PhaseRecord::Kind::kS2Sort, lo, hi, weight, views.size());
  driver.s2.sort_views(machine, views, descending);
}

void merge_level_blocks(const BlockDriver& driver, int lo, int hi) {
  BlockMachine& machine = driver.machine;
  const ProductGraph& pg = machine.graph();
  if (hi - lo == 1) {
    const std::vector<ViewSpec> views = all_views(pg, lo, hi);
    s2_phase(driver, lo, hi, views, std::vector<bool>(views.size(), false));
    return;
  }
  merge_level_blocks(driver, lo + 1, hi);  // Step 2
  const std::vector<ViewSpec> blocks = all_views(pg, lo, lo + 1);
  const std::vector<bool> dirs = block_directions(pg, blocks, lo, hi);
  const LabeledFactor& factor = pg.factor();
  const int b = machine.block_size();
  s2_phase(driver, lo, hi, blocks, dirs);
  for (const int parity : {0, 1}) {
    machine.cost().charge_routing_phase(factor.routing_cost * b);
    const auto pairs = transposition_pairs(pg, lo, hi, parity);
    driver.record(PhaseRecord::Kind::kTransposition, lo, hi,
                  factor.routing_cost * b, pairs.size());
    machine.merge_split_step(pairs, factor.dilation);
  }
  s2_phase(driver, lo, hi, blocks, dirs);
}

}  // namespace

BlockSortReport sort_block_network(BlockMachine& machine,
                                   const BlockSortOptions& options) {
  const ProductGraph& pg = machine.graph();
  if (pg.dims() < 2)
    throw std::invalid_argument("sorting needs r >= 2 dimensions");

  static const BlockOracleS2 default_s2;
  const BlockS2Sorter& s2 = options.s2 != nullptr ? *options.s2 : default_s2;
  const BlockDriver driver{machine, s2, options.trace};

  machine.sort_local_blocks();
  {
    const std::vector<ViewSpec> views = all_views(pg, 1, 2);
    s2_phase(driver, 1, 2, views, std::vector<bool>(views.size(), false));
  }
  for (int k = 3; k <= pg.dims(); ++k) {
    merge_level_blocks(driver, 1, k);
    if (options.validate_levels) {
      for (const ViewSpec& v : all_views(pg, 1, k))
        if (!machine.snake_sorted(v))
          throw std::logic_error("block merge level " + std::to_string(k) +
                                 " left a view unsorted");
    }
  }

  BlockSortReport report;
  report.cost = machine.cost();
  report.predicted = theorem1(pg.factor(), pg.dims());
  report.predicted.formula_time *= machine.block_size();
  return report;
}

}  // namespace prodsort
