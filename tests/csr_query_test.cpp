// Equivalence tests for the CSR graph core and its bounded hop queries
// (graph::members_within, graph::hops_to_targets): every answer must equal
// the adjacency-list BFS answer, over deterministic shapes and randomized
// topologies (Erdős–Rényi incl. disconnected, Waxman, transit-stub, and
// the cell-bucketed geometric generator).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/topology.h"
#include "mec/network.h"
#include "mec/shard_map.h"
#include "util/rng.h"

namespace mecra::graph {
namespace {

/// The randomized topologies every equivalence test sweeps. Small enough
/// that a full legacy BFS per node stays cheap, varied enough to cover
/// dense, sparse, clustered, and disconnected regimes.
std::vector<Graph> test_topologies() {
  std::vector<Graph> out;
  util::Rng rng(20260807);
  out.push_back(erdos_renyi(60, 0.08, rng, /*ensure_connected=*/true));
  out.push_back(erdos_renyi(80, 0.02, rng, /*ensure_connected=*/false));
  out.push_back(erdos_renyi(40, 0.3, rng, /*ensure_connected=*/true));
  out.push_back(waxman({.num_nodes = 90, .alpha = 0.4, .beta = 0.2,
                        .ensure_connected = true},
                       rng)
                    .graph);
  out.push_back(transit_stub({}, rng).graph);
  out.push_back(random_geometric({.num_nodes = 300, .target_degree = 6.0,
                                  .alpha = 0.9, .beta = 0.6,
                                  .ensure_connected = true},
                                 rng)
                    .graph);
  out.push_back(random_geometric({.num_nodes = 200, .target_degree = 3.0,
                                  .alpha = 0.5, .beta = 0.4,
                                  .ensure_connected = false},
                                 rng)
                    .graph);
  out.push_back(path_graph(17));
  out.push_back(ring_graph(16));
  out.push_back(star_graph(12));
  out.push_back(grid_graph(7, 9));
  out.push_back(complete_graph(9));
  out.push_back(Graph(5));  // edgeless: everything disconnected
  return out;
}

std::uint32_t diameter_of(const Graph& g) {
  std::uint32_t d = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t h : bfs_hops(g, v)) {
      if (h != kUnreachable) d = std::max(d, h);
    }
  }
  return d;
}

// ------------------------------------------------------------------- CSR

TEST(CsrGraph, MirrorsAdjacencyListsExactly) {
  for (const Graph& g : test_topologies()) {
    const CsrGraph csr = CsrGraph::build(g);
    ASSERT_EQ(csr.num_nodes(), g.num_nodes());
    ASSERT_EQ(csr.num_edges(), g.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto want_n = g.neighbors(v);
      const auto got_n = csr.neighbors(v);
      ASSERT_EQ(csr.degree(v), g.degree(v));
      ASSERT_TRUE(std::equal(want_n.begin(), want_n.end(), got_n.begin(),
                             got_n.end()));
    }
  }
}

TEST(CsrGraph, AlgorithmOverloadsMatchLegacy) {
  for (const Graph& g : test_topologies()) {
    const CsrGraph csr = CsrGraph::build(g);
    ASSERT_EQ(is_connected(csr), is_connected(g));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(bfs_hops(csr, v), bfs_hops(g, v));
    }
  }
}

// ----------------------------------------------------- bounded queries

/// N_l^+(v) the slow way: one full BFS over the adjacency lists, filtered.
std::vector<NodeId> bfs_ball(const std::vector<std::uint32_t>& hops,
                             std::uint32_t l) {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < hops.size(); ++u) {
    if (hops[u] != kUnreachable && hops[u] <= l) out.push_back(u);
  }
  return out;
}

TEST(HopQueries, MembersWithinMatchesBfsAtEveryRadius) {
  for (const Graph& g : test_topologies()) {
    const CsrGraph csr = CsrGraph::build(g);
    const std::uint32_t diam = diameter_of(g);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto hops = bfs_hops(g, v);
      for (std::uint32_t l : {0u, 1u, 2u, diam, diam + 1}) {
        ASSERT_EQ(members_within(csr, v, l), bfs_ball(hops, l))
            << "v=" << v << " l=" << l;
        const std::span<const NodeId> walk = walk_within(csr, v, l);
        std::vector<NodeId> sorted(walk.begin(), walk.end());
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(sorted, bfs_ball(hops, l)) << "v=" << v << " l=" << l;
      }
    }
  }
}

TEST(HopQueries, HopsToTargetsMatchesBfs) {
  util::Rng rng(99);
  for (const Graph& g : test_topologies()) {
    if (g.num_nodes() == 0) continue;
    const CsrGraph csr = CsrGraph::build(g);
    for (int trial = 0; trial < 8; ++trial) {
      const NodeId source = static_cast<NodeId>(rng.index(g.num_nodes()));
      std::vector<NodeId> targets;
      for (int t = 0; t < 6; ++t) {
        targets.push_back(static_cast<NodeId>(rng.index(g.num_nodes())));
      }
      targets.push_back(source);  // duplicate + self must both work
      targets.push_back(targets.front());
      const auto hops = bfs_hops(g, source);
      const auto got = hops_to_targets(csr, source, targets);
      ASSERT_EQ(got.size(), targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        ASSERT_EQ(got[i], hops[targets[i]]);
      }
    }
    EXPECT_TRUE(hops_to_targets(csr, 0, {}).empty());
  }
}

TEST(HopQueries, ConcurrentQueriesAreRaceFree) {
  // Exercised under TSan in CI: thread_local scratch means queries from
  // many threads against one shared CsrGraph must not race.
  util::Rng rng(42);
  const Graph g = erdos_renyi(150, 0.05, rng);
  const CsrGraph csr = CsrGraph::build(g);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  std::vector<std::vector<std::uint32_t>> want(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) want[v] = bfs_hops(g, v);

  std::vector<std::thread> workers;
  std::vector<char> ok(4, 1);
  for (std::size_t t = 0; t < ok.size(); ++t) {
    workers.emplace_back([&, t] {
      for (NodeId u = static_cast<NodeId>(t); u < g.num_nodes();
           u += static_cast<NodeId>(ok.size())) {
        if (hops_to_targets(csr, u, all) != want[u]) ok[t] = 0;
        if (members_within(csr, u, 2) != bfs_ball(want[u], 2)) ok[t] = 0;
      }
    });
  }
  for (auto& w : workers) w.join();
  for (char c : ok) EXPECT_TRUE(c);
}

// ------------------------------------------------------------- MEC glue

TEST(MecGlue, CloudletsWithinMatchesBfsFilter) {
  util::Rng rng(5);
  GeneratedTopology topo =
      waxman({.num_nodes = 80, .alpha = 0.4, .beta = 0.2,
              .ensure_connected = true},
             rng);
  std::vector<double> capacity(topo.graph.num_nodes(), 0.0);
  for (NodeId v = 0; v < topo.graph.num_nodes(); v += 3) capacity[v] = 100.0;
  const Graph legacy = topo.graph;  // network consumes its topology
  mec::MecNetwork network(std::move(topo.graph), std::move(capacity));
  // The filling form overwrites whatever the reused vector held before.
  std::vector<NodeId> reused = {7, 7, 7};
  for (std::uint32_t l : {1u, 2u, 4u}) {
    for (NodeId v = 0; v < network.num_nodes(); ++v) {
      const auto hops = bfs_hops(legacy, v);
      std::vector<NodeId> want;
      for (NodeId u : network.cloudlets()) {
        if (hops[u] != kUnreachable && hops[u] <= l) want.push_back(u);
      }
      ASSERT_EQ(network.cloudlets_within(v, l), want);
      network.cloudlets_within(v, l, reused);
      ASSERT_EQ(reused, want);
    }
  }
}

TEST(MecGlue, ShardMapInteriorMatchesBfs) {
  // The shard map classifies interior cloudlets from cloudlets_within's
  // l-hop balls; the classification must equal one derived from plain BFS.
  util::Rng rng(17);
  GeneratedTopology topo = transit_stub({}, rng);
  std::vector<double> capacity(topo.graph.num_nodes(), 0.0);
  for (NodeId v = 1; v < topo.graph.num_nodes(); v += 2) capacity[v] = 50.0;
  const Graph legacy = topo.graph;
  mec::MecNetwork network(std::move(topo.graph), std::move(capacity));
  constexpr std::uint32_t kHops = 2;
  const mec::ShardMap map = mec::ShardMap::build(network, kHops);
  std::size_t interiors = 0;
  for (NodeId v : network.cloudlets()) {
    const auto hops = bfs_hops(legacy, v);
    bool contained = true;
    for (NodeId u : network.cloudlets()) {
      if (hops[u] != kUnreachable && hops[u] <= kHops) {
        contained = contained && map.shard_of(u) == map.shard_of(v);
      }
    }
    ASSERT_EQ(map.is_interior(v), contained) << "cloudlet " << v;
    if (contained) ++interiors;
  }
  EXPECT_EQ(map.border_count() + interiors, network.cloudlets().size());
}

}  // namespace
}  // namespace mecra::graph
