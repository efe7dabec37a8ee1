#include "mec/network.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"

namespace mecra::mec {

MecNetwork::MecNetwork(graph::Graph topology, std::vector<double> capacity)
    : topology_(std::move(topology)),
      capacity_(std::move(capacity)),
      residual_(capacity_) {
  MECRA_CHECK_MSG(capacity_.size() == topology_.num_nodes(),
                  "capacity vector must match node count");
  for (graph::NodeId v = 0; v < num_nodes(); ++v) {
    MECRA_CHECK_MSG(capacity_[v] >= 0.0, "capacities must be non-negative");
    if (capacity_[v] > 0.0) cloudlets_.push_back(v);
  }
  csr_ = std::make_shared<const graph::CsrGraph>(
      graph::CsrGraph::build(topology_));
}

double MecNetwork::usage_ratio(graph::NodeId v) const {
  MECRA_CHECK_MSG(is_cloudlet(v), "usage ratio is defined on cloudlets only");
  return used(v) / capacity_[v];
}

void MecNetwork::consume(graph::NodeId v, double amount,
                         bool allow_violation) {
  MECRA_CHECK(v < num_nodes());
  MECRA_CHECK_MSG(amount >= 0.0, "consume amount must be non-negative");
  if (!allow_violation) {
    MECRA_CHECK_MSG(residual_[v] + 1e-9 >= amount,
                    "capacity exceeded at cloudlet");
  }
  residual_[v] -= amount;
}

void MecNetwork::release(graph::NodeId v, double amount) {
  MECRA_CHECK(v < num_nodes());
  MECRA_CHECK_MSG(amount >= 0.0, "release amount must be non-negative");
  residual_[v] += amount;
  MECRA_CHECK_MSG(residual_[v] <= capacity_[v] + 1e-6,
                  "release would exceed the cloudlet capacity");
}

void MecNetwork::set_residual(graph::NodeId v, double value) {
  MECRA_CHECK(v < num_nodes());
  MECRA_CHECK_MSG(std::isfinite(value), "residual must be finite");
  MECRA_CHECK_MSG(value <= capacity_[v] + 1e-6,
                  "residual would exceed the cloudlet capacity");
  residual_[v] = value;
}

void MecNetwork::set_residual_fraction(double fraction) {
  MECRA_CHECK(fraction >= 0.0 && fraction <= 1.0);
  for (graph::NodeId v : cloudlets_) {
    residual_[v] = capacity_[v] * fraction;
  }
}

double MecNetwork::total_capacity() const {
  double total = 0.0;
  for (graph::NodeId v : cloudlets_) total += capacity_[v];
  return total;
}

double MecNetwork::total_residual() const {
  double total = 0.0;
  for (graph::NodeId v : cloudlets_) total += residual_[v];
  return total;
}

std::vector<graph::NodeId> MecNetwork::cloudlets_within(
    graph::NodeId v, std::uint32_t l) const {
  MECRA_CHECK(v < num_nodes());
  // Bounded walk: O(|ball(v, l)|) instead of a full-network BFS, equal to
  // filtering bfs_hops (asserted in csr_query_test).
  const auto ball = graph::members_within(csr(), v, l);
  std::vector<graph::NodeId> out;
  for (graph::NodeId u : ball) {
    if (capacity_[u] > 0.0) out.push_back(u);
  }
  return out;
}

MecNetwork MecNetwork::random(graph::Graph topology,
                              const RandomParams& params, util::Rng& rng) {
  MECRA_CHECK(params.cloudlet_fraction >= 0.0 &&
              params.cloudlet_fraction <= 1.0);
  MECRA_CHECK(params.capacity_low > 0.0 &&
              params.capacity_low <= params.capacity_high);
  const std::size_t n = topology.num_nodes();
  MECRA_CHECK(n > 0);
  std::size_t num_cloudlets = static_cast<std::size_t>(
      params.cloudlet_fraction * static_cast<double>(n) + 0.5);
  num_cloudlets = std::clamp(num_cloudlets, params.min_cloudlets, n);
  const auto chosen = rng.sample_without_replacement(n, num_cloudlets);
  std::vector<double> capacity(n, 0.0);
  for (std::size_t idx : chosen) {
    capacity[idx] =
        params.capacity_low == params.capacity_high
            ? params.capacity_low
            : rng.uniform(params.capacity_low, params.capacity_high);
  }
  return MecNetwork(std::move(topology), std::move(capacity));
}

}  // namespace mecra::mec
