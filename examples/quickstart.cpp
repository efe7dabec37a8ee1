// Quickstart: build a small MEC network, admit one SFC request, augment its
// reliability with all three algorithms of the paper, and print the outcome.
//
//   ./quickstart [--seed=N] [--sfc-length=L] [--rho=R] [--residual=F] [--l=H]
#include <iostream>

#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/randomized_rounding.h"
#include "core/validator.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(
      argc, argv, {"residual", "rho", "l", "sfc-length", "seed"});

  sim::ScenarioParams params;
  params.residual_fraction = args.get_double("residual", 0.25);
  params.request.expectation = args.get_double("rho", 0.99);
  params.bmcgap.l_hops =
      static_cast<std::uint32_t>(args.get_int("l", 1));
  const auto len = static_cast<std::size_t>(args.get_int("sfc-length", 6));
  params.request.chain_length_low = len;
  params.request.chain_length_high = len;

  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));
  const auto scenario = sim::make_scenario(params, rng);
  if (!scenario.has_value()) {
    std::cerr << "could not admit a request at this scarcity level\n";
    return 1;
  }
  const auto& inst = scenario->instance;

  std::cout << "MEC network: " << scenario->network.num_nodes() << " APs, "
            << scenario->network.cloudlets().size() << " cloudlets, "
            << scenario->network.topology().num_edges() << " links\n";
  std::cout << "request: SFC length " << scenario->request.length()
            << ", expectation rho = " << scenario->request.expectation
            << ", initial reliability = " << inst.initial_reliability
            << "\n";
  std::cout << "item universe: " << inst.num_items() << " candidate backups, "
            << inst.cloudlets.size() << " candidate cloudlets (l = "
            << inst.l_hops << ")\n\n";

  const core::AugmentOptions opt;
  util::Table table({"algorithm", "reliability", "met rho", "backups",
                     "max usage", "feasible", "runtime ms"});
  for (const auto& [name, result] :
       {std::pair{"ILP", core::augment_ilp(inst, opt)},
        std::pair{"Randomized", core::augment_randomized(inst, opt)},
        std::pair{"Heuristic", core::augment_heuristic(inst, opt)}}) {
    const auto report = core::validate(inst, result);
    table.add_row({name, util::fmt(result.achieved_reliability, 5),
                   result.expectation_met ? "yes" : "no",
                   std::to_string(result.placements.size()),
                   util::fmt(result.max_usage, 3),
                   report.feasible ? "yes" : "no",
                   util::fmt(result.runtime_seconds * 1e3, 2)});
  }
  table.print(std::cout);
  return 0;
}
