#include "core/s2/network_s2.hpp"

#include <stdexcept>

#include "graph/graph_algos.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

NetworkS2::NetworkS2(ComparatorNetwork network) : network_(std::move(network)) {
  if (network_.width() < 1)
    throw std::invalid_argument("empty comparator network");
}

double NetworkS2::phase_cost(const LabeledFactor& factor) const {
  // Exact layer-by-layer worst partner distance, computed on the snake
  // of the canonical PG_2 of this factor.
  const ProductGraph pg(factor, 2);
  if (pg.num_nodes() != network_.width())
    throw std::invalid_argument("network width != N^2");
  const NodeId n = factor.size();
  const std::vector<int> dist = all_pairs_distances(factor.graph);
  double total = 0;
  for (const auto& layer : network_.layers()) {
    int worst = 1;
    for (const Comparator& c : layer) {
      const PNode a = node_at_snake_rank(pg, c.low);
      const PNode b = node_at_snake_rank(pg, c.high);
      int d = 0;
      for (int dim = 1; dim <= 2; ++dim)
        d += dist[static_cast<std::size_t>(pg.digit(a, dim)) * n +
                  pg.digit(b, dim)];
      worst = std::max(worst, d);
    }
    total += worst;
  }
  return total;
}

void NetworkS2::sort_views(Machine& machine, std::span<const ViewSpec> views,
                           const std::vector<bool>& descending) const {
  if (views.empty()) return;
  const ProductGraph& pg = machine.graph();
  if (static_cast<PNode>(network_.width()) !=
      static_cast<PNode>(pg.radix()) * pg.radix())
    throw std::invalid_argument("network width != N^2");
  const NodeId n = pg.radix();
  const std::vector<int> dist = all_pairs_distances(pg.factor().graph);

  // Precompute the snake-rank -> node map of every view once.
  std::vector<std::vector<PNode>> nodes(views.size());
  for (std::size_t vi = 0; vi < views.size(); ++vi) {
    auto& line = nodes[vi];
    line.resize(static_cast<std::size_t>(network_.width()));
    for (PNode rank = 0; rank < static_cast<PNode>(line.size()); ++rank)
      line[static_cast<std::size_t>(rank)] =
          view_node_at_snake_rank(pg, views[vi], rank);
  }

  std::vector<CEPair> pairs;
  for (const auto& layer : network_.layers()) {
    pairs.clear();
    int worst = 1;
    for (const Comparator& c : layer) {
      // Exact product distance of the partners (equal in every view);
      // partners differ only in the view's two free dimensions.
      const PNode a0 = nodes[0][static_cast<std::size_t>(c.low)];
      const PNode b0 = nodes[0][static_cast<std::size_t>(c.high)];
      int d = 0;
      for (const int dim : {views[0].lo, views[0].hi})
        d += dist[static_cast<std::size_t>(pg.digit(a0, dim)) * n +
                  pg.digit(b0, dim)];
      worst = std::max(worst, d);
      for (std::size_t vi = 0; vi < views.size(); ++vi) {
        const PNode a = nodes[vi][static_cast<std::size_t>(c.low)];
        const PNode b = nodes[vi][static_cast<std::size_t>(c.high)];
        // A descending view inverts every comparator.
        if (descending[vi])
          pairs.push_back({b, a});
        else
          pairs.push_back({a, b});
      }
    }
    machine.compare_exchange_step(pairs, worst);
  }
}

}  // namespace prodsort
