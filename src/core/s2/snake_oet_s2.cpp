#include "core/s2/snake_oet_s2.hpp"

#include "product/snake_order.hpp"

namespace prodsort {

LockstepPass snake_pass(const ProductGraph& pg,
                        std::span<const ViewSpec> views,
                        const std::vector<bool>& descending) {
  const PNode size = views.empty() ? 0 : view_size(pg, views.front());
  LockstepPass pass(static_cast<std::size_t>(size), views.size());
  for (std::size_t vi = 0; vi < views.size(); ++vi)
    pass.add_line(descending[vi], [&](std::size_t rank) {
      return view_node_at_snake_rank(pg, views[vi], static_cast<PNode>(rank));
    });
  return pass;
}

void SnakeOETS2::sort_views(Machine& machine, std::span<const ViewSpec> views,
                            const std::vector<bool>& descending) const {
  if (views.empty()) return;
  const ProductGraph& pg = machine.graph();
  // Consecutive snake ranks differ in one digit by +-1 (the Gray-code
  // property), so partners are at most `dilation` hops apart.
  const int hop = pg.factor().dilation;
  snake_pass(pg, views, descending).run([&](std::span<const CEPair> pairs) {
    machine.compare_exchange_step(pairs, hop);
  });
}

}  // namespace prodsort
