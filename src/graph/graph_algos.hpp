#pragma once

// Basic graph algorithms: BFS distances, diameter, connectivity,
// spanning trees.  All run on the small factor graphs (N is the factor
// size, not the product size), so O(N^2) passes are fine.

#include <vector>

#include "graph/graph.hpp"

namespace prodsort {

/// BFS distances from `source`; unreachable nodes get -1.
[[nodiscard]] std::vector<int> bfs_distances(const Graph& g, NodeId source);

/// All-pairs BFS distances, row-major: entry a * n + b is the distance
/// from a to b (-1 if unreachable).
[[nodiscard]] std::vector<int> all_pairs_distances(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

/// Longest shortest path; throws std::invalid_argument if disconnected.
[[nodiscard]] int diameter(const Graph& g);

/// Shortest-path distance between two nodes (-1 if unreachable).
[[nodiscard]] int distance(const Graph& g, NodeId a, NodeId b);

/// A BFS spanning tree of a connected graph, as a Graph with the same
/// node ids and n-1 edges.
[[nodiscard]] Graph spanning_tree(const Graph& g);

/// True iff the graph is bipartite.
[[nodiscard]] bool is_bipartite(const Graph& g);

/// A shortest path from `a` to `b` inclusive; empty if unreachable.
[[nodiscard]] std::vector<NodeId> shortest_path(const Graph& g, NodeId a,
                                                NodeId b);

}  // namespace prodsort
