// Unit tests for the graph substrate: the adjacency structure and the
// algorithms (BFS hops, bounded N_l^+ balls, connectivity, union-find).
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/topology.h"
#include "util/check.h"
#include "util/rng.h"

namespace mecra::graph {
namespace {

Graph small_tree() {
  // 0 -- {1, 2};  1 -- {3, 4}
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(1, 4);
  return g;
}

// ----------------------------------------------------------------- Graph

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
}

TEST(Graph, AddEdgeUpdatesBothAdjacencies) {
  Graph g(3);
  g.add_edge(2, 0, 1.5);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(2, 0), 1.5);
}

TEST(Graph, NeighborsAreSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto n = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
  EXPECT_EQ(n.size(), 3u);
}

TEST(Graph, NeighborWeightsParallelNeighbors) {
  Graph g(4);
  g.add_edge(1, 3, 30.0);
  g.add_edge(1, 0, 10.0);
  const auto n = g.neighbors(1);
  const auto w = g.neighbor_weights(1);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0], 0u);
  EXPECT_DOUBLE_EQ(w[0], 10.0);
  EXPECT_EQ(n[1], 3u);
  EXPECT_DOUBLE_EQ(w[1], 30.0);
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), util::CheckFailure);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), util::CheckFailure);
}

TEST(Graph, EdgesAreNormalized) {
  Graph g(3);
  g.add_edge(2, 1);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].u, 1u);
  EXPECT_EQ(g.edges()[0].v, 2u);
}

TEST(Graph, AverageDegree) {
  Graph g = small_tree();
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 4 / 5);
}

// ------------------------------------------------------------------- BFS

TEST(BfsHops, TreeDistances) {
  const Graph g = small_tree();
  const auto d = bfs_hops(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 1u);
  EXPECT_EQ(d[3], 2u);
  EXPECT_EQ(d[4], 2u);
}

TEST(BfsHops, DisconnectedIsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto d = bfs_hops(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(BfsHops, MatchesFloydWarshallOnUnitWeights) {
  util::Rng rng(7);
  const Graph g = erdos_renyi(40, 0.1, rng);
  const std::size_t n = g.num_nodes();
  std::vector<std::vector<std::uint32_t>> hops(
      n, std::vector<std::uint32_t>(n, kUnreachable));
  for (NodeId v = 0; v < n; ++v) hops[v][v] = 0;
  for (const Edge& e : g.edges()) hops[e.u][e.v] = hops[e.v][e.u] = 1;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (hops[i][k] != kUnreachable && hops[k][j] != kUnreachable) {
          hops[i][j] = std::min(hops[i][j], hops[i][k] + hops[k][j]);
        }
      }
    }
  }
  for (NodeId s = 0; s < n; ++s) {
    EXPECT_EQ(bfs_hops(g, s), hops[s]) << "source " << s;
  }
}

// ----------------------------------------------------- N_l^+ membership

TEST(MembersWithin, IncludesSelfAndRespectsRadius) {
  const CsrGraph g = CsrGraph::build(small_tree());
  EXPECT_EQ(members_within(g, 0, 0), (std::vector<NodeId>{0}));
  EXPECT_EQ(members_within(g, 0, 1), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(members_within(g, 0, 2), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(members_within(g, 3, 2), (std::vector<NodeId>{0, 1, 3, 4}));
}

TEST(MembersWithin, LargeRadiusReachesComponentOnly) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto n = members_within(CsrGraph::build(g), 0, 3);
  EXPECT_EQ(n, (std::vector<NodeId>{0, 1}));
}

// ---------------------------------------------------------- connectivity

TEST(Connectivity, SingleNodeIsConnected) {
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(Connectivity, DetectsDisconnection) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_connected(g));
  g.add_edge(1, 2);
  EXPECT_TRUE(is_connected(g));
}

// ----------------------------------------------------------- DisjointSets

TEST(DisjointSets, UniteAndFind) {
  DisjointSets dsu(4);
  EXPECT_EQ(dsu.num_sets(), 4u);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));
  EXPECT_EQ(dsu.find(0), dsu.find(1));
  EXPECT_NE(dsu.find(0), dsu.find(2));
  EXPECT_EQ(dsu.num_sets(), 3u);
}

}  // namespace
}  // namespace mecra::graph
