#include "staticcheck/zero_one_check.hpp"

#include <algorithm>
#include <stdexcept>

#include "product/snake_order.hpp"

namespace prodsort {

LoweredSchedule lower_to_comparators(const ProductGraph& pg,
                                     const ScheduleIR& ir, bool snake_wires) {
  if (pg.num_nodes() != ir.num_nodes)
    throw std::invalid_argument(
        "lower_to_comparators: graph/schedule size mismatch");

  // Rank every node once; pairs then lower by table lookup.
  std::vector<int> rank(static_cast<std::size_t>(pg.num_nodes()));
  for (PNode node = 0; node < pg.num_nodes(); ++node)
    rank[static_cast<std::size_t>(node)] =
        snake_wires ? static_cast<int>(snake_rank(pg, node))
                    : static_cast<int>(node);

  LoweredSchedule out;
  out.width = static_cast<int>(pg.num_nodes());
  out.comparators.reserve(static_cast<std::size_t>(ir.total_pairs()));
  out.phase_of.reserve(out.comparators.capacity());
  for (std::int64_t phase = 0;
       phase < static_cast<std::int64_t>(ir.phases().size()); ++phase) {
    for (const CEPair& p : ir.phase(static_cast<std::size_t>(phase)).pairs) {
      if (p.low < 0 || p.low >= ir.num_nodes || p.high < 0 ||
          p.high >= ir.num_nodes)
        throw std::invalid_argument(
            "lower_to_comparators: pair endpoint out of range");
      out.comparators.push_back({rank[static_cast<std::size_t>(p.low)],
                                 rank[static_cast<std::size_t>(p.high)]});
      out.phase_of.push_back(phase);
    }
  }
  return out;
}

bool schedule_sorts_input(const LoweredSchedule& lowered,
                          std::span<const Key> input) {
  if (static_cast<int>(input.size()) != lowered.width)
    throw std::invalid_argument("schedule_sorts_input: width mismatch");
  std::vector<Key> values(input.begin(), input.end());
  for (const Comparator& cmp : lowered.comparators) {
    Key& lo = values[static_cast<std::size_t>(cmp.low)];
    Key& hi = values[static_cast<std::size_t>(cmp.high)];
    if (lo > hi) std::swap(lo, hi);
  }
  return std::is_sorted(values.begin(), values.end());
}

ZeroOneCheckResult check_zero_one(const LoweredSchedule& lowered,
                                  const ZeroOneCheckOptions& options) {
  const int width = lowered.width;
  if (width < 1) throw std::invalid_argument("check_zero_one: empty schedule");

  const bool exhaustive = width <= options.max_exhaustive_width;
  const std::int64_t budget =
      exhaustive ? std::int64_t{1} << width
                 : std::max<std::int64_t>(1, options.sample_budget);

  ZeroOneCheckResult result;
  result.cert = certify_comparators_zero_one(width, lowered.comparators,
                                             budget, options.seed)
                    .cert;

  if (!result.cert.certified() && options.minimize_witness) {
    // Greedy 1->0 minimization: each flip that keeps the input failing
    // is kept.  The result is a locally minimal witness — flipping any
    // remaining 1 makes the schedule sort it.
    std::vector<Key>& witness = result.cert.witness;
    for (std::size_t i = 0; i < witness.size(); ++i) {
      if (witness[i] == 0) continue;
      witness[i] = 0;
      if (schedule_sorts_input(lowered, witness))
        witness[i] = 1;
      else
        ++result.witness_ones_removed;
    }
  }
  return result;
}

}  // namespace prodsort
