// Smart-city IoT scenario (the paper's motivating domain): a stream of
// service requests — traffic analytics, CCTV inference, environmental
// telemetry — arrives at a 100-AP metro MEC network. Each admitted request
// gets its primaries placed and is then reliability-augmented with the
// matching heuristic. The example reports, as load grows, how many requests
// still meet their reliability expectation.
//
//   ./smart_city_iot [--seed=N] [--requests=N] [--rho=R]
#include <iostream>

#include "core/heuristic_matching.h"
#include "core/validator.h"
#include "graph/topology.h"
#include "mec/request.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"seed", "requests", "rho"});
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 77)));
  const auto num_requests =
      static_cast<std::size_t>(args.get_int("requests", 40));
  const double rho = args.get_double("rho", 0.99);

  // City-scale Waxman topology, cloudlets at 10% of APs (paper setting).
  graph::WaxmanParams wax;
  wax.num_nodes = 100;
  auto topo = graph::waxman(wax, rng);
  auto network = mec::MecNetwork::random(std::move(topo.graph), {}, rng);

  // Three request classes with distinct chains over a shared catalog.
  const mec::VnfCatalog catalog({
      {0, "firewall", 0.93, 220.0},
      {0, "nat", 0.95, 200.0},
      {0, "video-decode", 0.86, 390.0},
      {0, "object-detect", 0.84, 400.0},
      {0, "aggregate", 0.94, 240.0},
      {0, "compress", 0.91, 260.0},
      {0, "anomaly-detect", 0.87, 350.0},
  });
  const std::vector<std::pair<const char*, std::vector<mec::FunctionId>>>
      classes = {
          {"traffic-analytics", {0, 2, 3, 4}},
          {"cctv-inference", {0, 1, 2, 3}},
          {"env-telemetry", {1, 5, 6}},
      };

  util::Table table({"#", "class", "admitted", "initial", "achieved",
                     "met rho", "backups"});
  std::size_t admitted = 0;
  std::size_t met = 0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    const auto& [class_name, chain] = classes[rng.index(classes.size())];
    mec::SfcRequest request;
    request.id = i;
    request.chain = chain;
    request.expectation = rho;
    request.source = static_cast<graph::NodeId>(rng.index(network.num_nodes()));
    request.destination =
        static_cast<graph::NodeId>(rng.index(network.num_nodes()));

    auto primaries =
        admission::random_admission(network, catalog, request, rng);
    if (!primaries.has_value()) {
      table.add_row({std::to_string(i), class_name, "no", "-", "-", "-", "-"});
      continue;
    }
    ++admitted;
    const auto instance =
        core::build_bmcgap(network, catalog, request, *primaries, {});
    const auto result = core::augment_heuristic(instance);
    MECRA_CHECK(core::validate(instance, result).feasible);
    core::apply_placements(network, instance, result);
    if (result.expectation_met) ++met;
    table.add_row({std::to_string(i), class_name, "yes",
                   util::fmt(result.initial_reliability, 4),
                   util::fmt(result.achieved_reliability, 4),
                   result.expectation_met ? "yes" : "no",
                   std::to_string(result.placements.size())});
  }

  table.print(std::cout);
  std::cout << "\nadmitted " << admitted << "/" << num_requests
            << " requests; " << met << " of the admitted met rho = " << rho
            << "\nnetwork utilisation: "
            << util::fmt_pct(1.0 - network.total_residual() /
                                       network.total_capacity(),
                             1)
            << " of total cloudlet capacity\n";
  return 0;
}
