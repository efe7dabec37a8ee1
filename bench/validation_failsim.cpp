// Validation bench: the analytic reliability every algorithm reports
// (Eq. 1 algebra) is checked against Monte-Carlo failure injection on the
// very deployments the algorithms produce, and then stressed with
// correlated cloudlet outages that the paper's independence assumption
// excludes — quantifying how much of the promised reliability survives
// when a whole cloudlet can go down.
#include <iostream>

#include "core/deployment.h"
#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/randomized_rounding.h"
#include "failsim/failsim.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"seed", "epochs"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20200817));
  const auto epochs =
      static_cast<std::size_t>(args.get_int("epochs", 40000));

  std::cout << "=== Failure-injection validation of the reliability "
               "algebra ===\n\n";

  util::Table table({"scenario", "algorithm", "analytic", "empirical",
                     "95% ci", "with 5% outages", "loss"});
  for (std::uint64_t s = 0; s < 4; ++s) {
    sim::ScenarioParams params;
    params.request.chain_length_low = 6;
    params.request.chain_length_high = 6;
    params.residual_fraction = 0.5;
    util::Rng rng(util::derive_seed(seed, s));
    auto scenario = sim::make_scenario(params, rng);
    if (!scenario.has_value()) continue;

    const auto run = [&](const char* name,
                         const core::AugmentationResult& result) {
      const auto d = core::make_deployment(scenario->instance, result);
      util::Rng inj_rng(util::derive_seed(seed, 100 + s));
      const auto plain = failsim::inject_failures(d, {.epochs = epochs},
                                                  inj_rng);
      const double with_outages =
          failsim::analytic_reliability_with_outages(d, 0.05);
      table.add_row(
          {std::to_string(s), name,
           util::fmt(result.achieved_reliability, 4),
           util::fmt(plain.empirical_reliability, 4),
           "±" + util::fmt(plain.confidence_halfwidth, 4),
           util::fmt(with_outages, 4),
           util::fmt_pct(1.0 - with_outages /
                                   std::max(1e-12,
                                            result.achieved_reliability),
                         1)});
    };
    run("ILP", core::augment_ilp(scenario->instance));
    run("Heuristic", core::augment_heuristic(scenario->instance));
    core::AugmentOptions ropt;
    ropt.seed = seed + s;
    run("Randomized", core::augment_randomized(scenario->instance, ropt));
  }
  table.print(std::cout);
  std::cout << "\nanalytic vs empirical must agree within the CI (the "
               "tests enforce 3 sigma); the outage column shows the "
               "reliability actually delivered if cloudlets fail as a "
               "unit with probability 5%.\n";
  return 0;
}
