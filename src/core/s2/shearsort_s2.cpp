#include "core/s2/shearsort_s2.hpp"

namespace prodsort {

int ceil_log2(NodeId n) {
  int bits = 0;
  while ((NodeId{1} << bits) < n) ++bits;
  return bits;
}

ShearsortPasses shearsort_passes(const ProductGraph& pg,
                                 std::span<const ViewSpec> views,
                                 const std::vector<bool>& descending) {
  const NodeId n = pg.radix();
  const auto length = static_cast<std::size_t>(n);
  ShearsortPasses passes{LockstepPass(length, views.size() * length),
                         LockstepPass(length, views.size() * length)};
  for (std::size_t vi = 0; vi < views.size(); ++vi) {
    const ViewSpec& v = views[vi];
    const bool flip = descending[vi];
    const PNode w_lo = pg.weight(v.lo);
    const PNode w_hi = pg.weight(v.hi);
    for (NodeId fixed = 0; fixed < n; ++fixed) {
      // Snake: even rows ascend, odd rows descend; a descending view
      // inverts everything.
      const PNode row = v.base + static_cast<PNode>(fixed) * w_hi;
      const PNode col = v.base + static_cast<PNode>(fixed) * w_lo;
      passes.rows.add_line(((fixed % 2) != 0) != flip, [=](std::size_t j) {
        return row + static_cast<PNode>(j) * w_lo;
      });
      passes.cols.add_line(flip, [=](std::size_t j) {
        return col + static_cast<PNode>(j) * w_hi;
      });
    }
  }
  return passes;
}

double ShearsortS2::phase_cost(const LabeledFactor& factor) const {
  const double n = factor.size();
  return (ceil_log2(factor.size()) + 1) * 2.0 * n * factor.dilation +
         n * factor.dilation;
}

void ShearsortS2::sort_views(Machine& machine, std::span<const ViewSpec> views,
                             const std::vector<bool>& descending) const {
  if (views.empty()) return;
  const ProductGraph& pg = machine.graph();
  const int hop = pg.factor().dilation;
  const ShearsortPasses passes = shearsort_passes(pg, views, descending);
  const auto step = [&](std::span<const CEPair> pairs) {
    machine.compare_exchange_step(pairs, hop);
  };
  const int iterations = ceil_log2(pg.radix()) + 1;
  for (int it = 0; it < iterations; ++it) {
    passes.rows.run(step);
    passes.cols.run(step);
  }
  passes.rows.run(step);
}

}  // namespace prodsort
