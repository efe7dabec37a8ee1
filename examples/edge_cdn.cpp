// Edge CDN scenario: a video-delivery service function chain
// (firewall -> IDS -> transcoder -> cache -> load balancer) deployed on a
// GT-ITM-style transit-stub metro network. The operator promises 99.5%
// service reliability; this example shows how many backup VNF instances
// each algorithm needs and where they land.
//
//   ./edge_cdn [--seed=N] [--rho=R] [--l=H] [--residual=F]
#include <iostream>

#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/randomized_rounding.h"
#include "core/validator.h"
#include "graph/topology.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"seed", "residual", "rho", "l"});
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 2020)));

  // --- metro topology: 4 transit PoPs, 3 stubs each, 8 APs per stub ---
  graph::TransitStubParams topo_params;
  auto topo = graph::transit_stub(topo_params, rng);
  mec::MecNetwork::RandomParams cloudlet_params;
  cloudlet_params.cloudlet_fraction = 0.15;  // denser edge than the default
  auto network = mec::MecNetwork::random(std::move(topo.graph),
                                         cloudlet_params, rng);
  network.set_residual_fraction(args.get_double("residual", 0.4));

  // --- the CDN service chain with per-function reliabilities/demands ---
  const mec::VnfCatalog catalog({
      {0, "firewall", 0.92, 250.0},
      {0, "ids", 0.88, 380.0},
      {0, "transcoder", 0.85, 400.0},
      {0, "cache", 0.95, 300.0},
      {0, "load-balancer", 0.97, 200.0},
  });
  mec::SfcRequest request;
  request.chain = {0, 1, 2, 3, 4};
  request.expectation = args.get_double("rho", 0.995);
  request.source = 0;
  request.destination =
      static_cast<graph::NodeId>(network.num_nodes() - 1);

  std::cout << "edge CDN network: " << network.num_nodes() << " APs ("
            << topo_params.num_transit << " transit PoPs), "
            << network.cloudlets().size() << " cloudlets\n";

  // --- admit primaries with the Sec. 4.1 DAG framework (hop penalty keeps
  //     the chain near the ingress/egress path) ---
  admission::DagAdmissionOptions adm;
  adm.hop_penalty = 0.002;
  auto primaries = admission::dag_admission(network, catalog, request, adm);
  if (!primaries.has_value()) {
    std::cerr << "admission failed: not enough residual capacity\n";
    return 1;
  }
  std::cout << "primaries placed at cloudlets:";
  for (graph::NodeId v : primaries->cloudlet_of) std::cout << " " << v;
  const double u0 = admission::initial_reliability(catalog, request);
  std::cout << "\nchain reliability with primaries only: " << util::fmt(u0, 4)
            << "  (target " << request.expectation << ")\n\n";

  // --- augment with backups ---
  core::BmcgapOptions bopt;
  bopt.l_hops = static_cast<std::uint32_t>(args.get_int("l", 1));
  const auto instance =
      core::build_bmcgap(network, catalog, request, *primaries, bopt);

  util::Table table({"algorithm", "reliability", "met", "backups/function",
                     "max usage", "runtime ms"});
  for (const auto& [name, result] :
       {std::pair{"ILP", core::augment_ilp(instance)},
        std::pair{"Randomized", core::augment_randomized(instance)},
        std::pair{"Heuristic", core::augment_heuristic(instance)}}) {
    std::string per_fn;
    for (std::size_t i = 0; i < result.secondaries.size(); ++i) {
      if (i != 0) per_fn += "/";
      per_fn += std::to_string(result.secondaries[i]);
    }
    table.add_row({name, util::fmt(result.achieved_reliability, 4),
                   result.expectation_met ? "yes" : "no", per_fn,
                   util::fmt(result.max_usage, 3),
                   util::fmt(result.runtime_seconds * 1e3, 2)});
  }
  table.print(std::cout);

  // --- commit the heuristic's plan to the live network ---
  const auto chosen = core::augment_heuristic(instance);
  MECRA_CHECK(core::validate(instance, chosen).feasible);
  core::apply_placements(network, instance, chosen);
  std::cout << "\ncommitted the heuristic plan: " << chosen.placements.size()
            << " backup instances; network residual now "
            << util::fmt(network.total_residual(), 0) << " MHz of "
            << util::fmt(network.total_capacity(), 0) << " MHz\n";
  return 0;
}
