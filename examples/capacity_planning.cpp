// Capacity planning: an operator wants every admitted request to reach a
// 99% reliability expectation. This example sweeps (a) the residual
// capacity fraction kept free for backups and (b) the hop radius l, and
// reports the fraction of requests whose expectation is met — the curve a
// provisioning team would read the break-point off.
//
//   ./capacity_planning [--seed=N] [--trials=N] [--rho=R]
#include <iostream>

#include "core/heuristic_matching.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"trials", "rho", "seed"});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 25));
  const double rho = args.get_double("rho", 0.99);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  std::cout << "capacity planning sweep: fraction of requests reaching rho = "
            << rho << " (heuristic augmentation, " << trials
            << " requests per cell)\n\n";

  const double fractions[] = {0.0625, 0.125, 0.25, 0.5, 1.0};
  util::Table table({"residual \\ l", "l=1", "l=2", "l=3"});
  for (double fraction : fractions) {
    std::vector<std::string> row{util::fmt(fraction, 4)};
    for (std::uint32_t l : {1u, 2u, 3u}) {
      std::size_t met = 0;
      std::size_t ok = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        sim::ScenarioParams params;
        params.residual_fraction = fraction;
        params.bmcgap.l_hops = l;
        params.request.expectation = rho;
        util::Rng rng(util::derive_seed(seed, t));
        const auto scenario = sim::make_scenario(params, rng);
        if (!scenario.has_value()) continue;
        ++ok;
        const auto result = core::augment_heuristic(scenario->instance);
        if (result.expectation_met) ++met;
      }
      row.push_back(ok == 0 ? "n/a"
                            : util::fmt_pct(static_cast<double>(met) /
                                                static_cast<double>(ok),
                                            0));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nreading: pick the smallest provisioning cell whose "
               "percentage meets your SLO.\n";
  return 0;
}
