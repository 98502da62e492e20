#include "graph/graph_algos.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace prodsort {

std::vector<int> bfs_distances(const Graph& g, NodeId source) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<NodeId> frontier;
  dist[static_cast<std::size_t>(source)] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const NodeId w : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(w)] == -1) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(v)] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

std::vector<int> all_pairs_distances(const Graph& g) {
  std::vector<int> table;
  table.reserve(static_cast<std::size_t>(g.num_nodes()) *
                static_cast<std::size_t>(g.num_nodes()));
  for (NodeId a = 0; a < g.num_nodes(); ++a) {
    const std::vector<int> row = bfs_distances(g, a);
    table.insert(table.end(), row.begin(), row.end());
  }
  return table;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::find(dist.begin(), dist.end(), -1) == dist.end();
}

int diameter(const Graph& g) {
  int diam = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto dist = bfs_distances(g, v);
    for (const int d : dist) {
      if (d == -1) throw std::invalid_argument("diameter of disconnected graph");
      diam = std::max(diam, d);
    }
  }
  return diam;
}

int distance(const Graph& g, NodeId a, NodeId b) {
  return bfs_distances(g, a)[static_cast<std::size_t>(b)];
}

Graph spanning_tree(const Graph& g) {
  if (!is_connected(g)) throw std::invalid_argument("graph not connected");
  Graph tree(g.num_nodes());
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::queue<NodeId> frontier;
  seen[0] = true;
  frontier.push(0);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const NodeId w : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        tree.add_edge(v, w);
        frontier.push(w);
      }
    }
  }
  return tree;
}

bool is_bipartite(const Graph& g) {
  std::vector<int> color(static_cast<std::size_t>(g.num_nodes()), -1);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (color[static_cast<std::size_t>(s)] != -1) continue;
    color[static_cast<std::size_t>(s)] = 0;
    std::queue<NodeId> frontier;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (const NodeId w : g.neighbors(v)) {
        if (color[static_cast<std::size_t>(w)] == -1) {
          color[static_cast<std::size_t>(w)] =
              1 - color[static_cast<std::size_t>(v)];
          frontier.push(w);
        } else if (color[static_cast<std::size_t>(w)] ==
                   color[static_cast<std::size_t>(v)]) {
          return false;
        }
      }
    }
  }
  return true;
}

std::vector<NodeId> shortest_path(const Graph& g, NodeId a, NodeId b) {
  std::vector<NodeId> parent(static_cast<std::size_t>(g.num_nodes()), -1);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::queue<NodeId> frontier;
  seen[static_cast<std::size_t>(a)] = true;
  frontier.push(a);
  while (!frontier.empty() && !seen[static_cast<std::size_t>(b)]) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const NodeId w : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        parent[static_cast<std::size_t>(w)] = v;
        frontier.push(w);
      }
    }
  }
  if (!seen[static_cast<std::size_t>(b)]) return {};
  std::vector<NodeId> path;
  for (NodeId v = b; v != -1; v = parent[static_cast<std::size_t>(v)])
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace prodsort
