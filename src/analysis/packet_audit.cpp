#include "analysis/packet_audit.hpp"

#include <algorithm>

#include "graph/graph_algos.hpp"

namespace prodsort {

namespace {

PacketAuditReport check_bounds(int max_distance, std::int64_t sum_distance,
                               const PacketStats& stats) {
  PacketAuditReport report;
  report.steps_lower_bound = max_distance;
  report.hops_lower_bound = sum_distance;
  if (stats.steps < max_distance) {
    report.ok = false;
    report.message = "steps " + std::to_string(stats.steps) +
                     " below distance lower bound " +
                     std::to_string(max_distance);
  } else if (stats.total_hops < sum_distance) {
    report.ok = false;
    report.message = "total_hops " + std::to_string(stats.total_hops) +
                     " below summed-distance lower bound " +
                     std::to_string(sum_distance);
  } else if (stats.dilation < 1.0) {
    report.ok = false;
    report.message =
        "dilation " + std::to_string(stats.dilation) + " below 1";
  } else if (max_distance > 0 && stats.max_link_load < 1) {
    report.ok = false;
    report.message = "packets moved but max_link_load is 0";
  }
  return report;
}

}  // namespace

PacketAuditReport audit_permutation_stats(const Graph& g,
                                          std::span<const NodeId> dest,
                                          const PacketStats& stats) {
  int max_distance = 0;
  std::int64_t sum_distance = 0;
  for (NodeId source = 0; source < g.num_nodes(); ++source) {
    const std::vector<int> row = bfs_distances(g, source);
    const int d = row[static_cast<std::size_t>(dest[static_cast<std::size_t>(source)])];
    max_distance = std::max(max_distance, d);
    sum_distance += d;
  }
  return check_bounds(max_distance, sum_distance, stats);
}

PacketAuditReport audit_product_permutation_stats(const ProductGraph& pg,
                                                  std::span<const PNode> dest,
                                                  const PacketStats& stats) {
  const NodeId n = pg.radix();
  // All-pairs factor distances once; products reuse them per dimension.
  const std::vector<int> factor_distance =
      all_pairs_distances(pg.factor().graph);

  int max_distance = 0;
  std::int64_t sum_distance = 0;
  for (PNode source = 0; source < pg.num_nodes(); ++source) {
    const PNode target = dest[static_cast<std::size_t>(source)];
    int d = 0;
    for (int dim = 1; dim <= pg.dims(); ++dim)
      d += factor_distance[static_cast<std::size_t>(pg.digit(source, dim)) * n +
                           pg.digit(target, dim)];
    max_distance = std::max(max_distance, d);
    sum_distance += d;
  }
  return check_bounds(max_distance, sum_distance, stats);
}

}  // namespace prodsort
