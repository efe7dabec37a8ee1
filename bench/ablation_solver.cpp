// Solver ablation: what the MILP engineering buys. Runs the exact ILP over
// hard instances (long chains, tight capacity) with MIR cuts and the
// heuristic warm start independently disabled, reporting nodes explored,
// LP pivots, warm-hit rate, and wall time. (DESIGN.md S4 calls the first
// two out as the levers that took worst-case instances from 200k nodes /
// ~10 s to hundreds of nodes.) Two further variants disable the solver
// fast path's levers — warm LP re-solves and partial pricing — one at a
// time, so the BENCH_solver.json speedup can be attributed to each piece
// (DESIGN.md "Solver fast path").
#include <algorithm>
#include <iostream>

#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "ilp/branch_and_bound.h"
#include "sim/runner.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace mecra;

struct Variant {
  const char* name;
  bool mir_cuts;
  bool warm_start;
  // Solver fast-path levers (DESIGN.md "Solver fast path"): LP warm
  // re-solves at child nodes and partial (windowed) pricing.
  bool warm_lp = true;
  bool partial_pricing = true;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv, {"trials", "seed", "time-limit"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20200817));
  const auto trials = static_cast<std::size_t>(
      args.get_int("trials", static_cast<std::int64_t>(
                                 sim::trials_from_env(10))));
  const double time_limit = args.get_double("time-limit", 5.0);

  std::cout << "=== Solver ablation: MIR cuts x warm start x fast path ===\n"
            << "instances: SFC length 20, residual 25%, " << trials
            << " seeds, " << time_limit << "s cap per solve\n\n";

  const Variant variants[] = {
      {"cuts + warm start", true, true},
      {"cuts only", true, false},
      {"warm start only", false, true},
      {"neither", false, false},
      // Fast-path ablations on top of the full configuration: disable the
      // LP warm re-solves and the partial pricing independently so the
      // speedup in BENCH_solver.json can be attributed to each piece.
      {"... cold LP re-solves", true, true, /*warm_lp=*/false, true},
      {"... full-scan pricing", true, true, true, /*partial_pricing=*/false},
  };

  util::Table table({"variant", "mean nodes", "max nodes", "mean ms",
                     "max ms", "mean LP it", "warm hit%", "timeouts"});
  for (const Variant& variant : variants) {
    util::Accumulator nodes;
    util::Accumulator ms;
    util::Accumulator lp_iters;
    std::size_t warm_attempts = 0;
    std::size_t warm_hits = 0;
    std::size_t timeouts = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      sim::ScenarioParams params;
      params.request.chain_length_low = 20;
      params.request.chain_length_high = 20;
      util::Rng rng(util::derive_seed(seed, t));
      auto scenario = sim::make_scenario(params, rng);
      if (!scenario.has_value()) continue;
      const auto& inst = scenario->instance;

      auto agg = core::build_aggregated_model(inst, variant.mir_cuts);
      std::vector<double> warm;
      if (variant.warm_start) {
        core::AugmentOptions h;
        h.trim_to_expectation = false;
        const auto heur = core::augment_heuristic(inst, h);
        warm.assign(agg.model.num_variables(), 0.0);
        for (const auto& p : heur.placements) {
          const auto& fn = inst.functions[p.chain_pos];
          const auto it = std::lower_bound(fn.allowed.begin(),
                                           fn.allowed.end(), p.cloudlet);
          const auto a = static_cast<std::size_t>(it - fn.allowed.begin());
          warm[agg.y_of[p.chain_pos][a]] += 1.0;
        }
        for (std::size_t i = 0; i < inst.functions.size(); ++i) {
          for (std::uint32_t k = 1; k <= heur.secondaries[i]; ++k) {
            warm[agg.t_of[i][k - 1]] = 1.0;
          }
        }
      }

      ilp::IlpOptions opt;
      opt.time_limit_seconds = time_limit;
      opt.warm_lp = variant.warm_lp;
      if (!variant.partial_pricing) {
        opt.lp_options.pricing_window = static_cast<std::size_t>(-1);
      }
      util::Timer timer;
      const auto sol = ilp::BranchAndBoundSolver(opt).solve(
          agg.model, agg.is_integer, warm);
      ms.add(timer.elapsed_ms());
      nodes.add(static_cast<double>(sol.nodes_explored));
      lp_iters.add(static_cast<double>(sol.lp_iterations));
      warm_attempts += sol.warm_attempts;
      warm_hits += sol.warm_hits;
      if (sol.status == ilp::IlpStatus::kFeasible ||
          sol.status == ilp::IlpStatus::kLimit) {
        ++timeouts;
      }
    }
    const double hit_pct =
        warm_attempts == 0 ? 0.0
                           : 100.0 * static_cast<double>(warm_hits) /
                                 static_cast<double>(warm_attempts);
    table.add_row({std::string(variant.name), util::fmt(nodes.mean(), 0),
                   util::fmt(nodes.max(), 0), util::fmt(ms.mean(), 1),
                   util::fmt(ms.max(), 1), util::fmt(lp_iters.mean(), 0),
                   util::fmt(hit_pct, 1),
                   std::to_string(timeouts) + "/" + std::to_string(trials)});
  }
  table.print(std::cout);
  return 0;
}
