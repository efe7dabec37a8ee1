// Theory vs practice: Theorem 5.2 promises, for the randomized Algorithm 1,
//   (i)  an expected approximation ratio (we measure the realized ratio of
//        achieved reliability to the exact optimum),
//   (ii) capacity violations of at most 2x per cloudlet w.h.p.
// This bench measures both empirically over many instances and rounding
// draws, reporting the distribution against the analytic bounds, plus the
// instance quantities the theorem is parameterized by (N = sum K_i).
#include <algorithm>
#include <iostream>

#include "core/ilp_exact.h"
#include "core/randomized_rounding.h"
#include "sim/runner.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"seed", "instances", "draws"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20200817));
  const auto instances = static_cast<std::size_t>(
      args.get_int("instances", static_cast<std::int64_t>(
                                    sim::trials_from_env(15))));
  const auto draws =
      static_cast<std::size_t>(args.get_int("draws", 10));

  std::cout << "=== Theorem 5.2 empirical check (Randomized, " << instances
            << " instances x " << draws << " rounding draws) ===\n\n";

  util::Accumulator ratio;        // achieved / exact optimum
  util::Accumulator violation;    // max usage ratio per draw
  util::Accumulator items;        // N = sum K_i
  std::size_t over_2x = 0;
  std::size_t draws_total = 0;

  for (std::size_t s = 0; s < instances; ++s) {
    sim::ScenarioParams params;
    params.request.chain_length_low = 8;
    params.request.chain_length_high = 8;
    util::Rng rng(util::derive_seed(seed, s));
    auto scenario = sim::make_scenario(params, rng);
    if (!scenario.has_value()) continue;
    const auto& inst = scenario->instance;
    items.add(static_cast<double>(inst.num_items()));

    core::AugmentOptions exact_opt;
    exact_opt.trim_to_expectation = false;
    exact_opt.ilp.time_limit_seconds = 3.0;
    const auto exact = core::augment_ilp(inst, exact_opt);
    if (exact.achieved_reliability <= 0.0) continue;

    for (std::size_t d = 0; d < draws; ++d) {
      core::AugmentOptions opt;
      opt.trim_to_expectation = false;
      opt.seed = util::derive_seed(seed, 1000 * s + d);
      const auto rnd = core::augment_randomized(inst, opt);
      ratio.add(rnd.achieved_reliability / exact.achieved_reliability);
      violation.add(rnd.max_usage);
      if (rnd.max_usage > 2.0) ++over_2x;
      ++draws_total;
    }
  }

  util::Table table({"quantity", "mean", "min", "max"});
  table.add_row({"achieved / exact optimum", util::fmt(ratio.mean(), 4),
                 util::fmt(ratio.min(), 4), util::fmt(ratio.max(), 4)});
  table.add_row({"max usage ratio (Thm bound: 2.0)",
                 util::fmt(violation.mean(), 4),
                 util::fmt(violation.min(), 4),
                 util::fmt(violation.max(), 4)});
  table.add_row({"item universe N = sum K_i", util::fmt(items.mean(), 1),
                 util::fmt(items.min(), 0), util::fmt(items.max(), 0)});
  table.print(std::cout);

  std::cout << "\ndraws exceeding the 2x violation bound: " << over_2x << "/"
            << draws_total
            << "   (Theorem 5.2: probability at most 1/|V| per instance)\n"
            << "note: ratios above 1 are possible exactly because the "
               "rounded solution may exceed capacities the exact optimum "
               "respects.\n";
  return 0;
}
