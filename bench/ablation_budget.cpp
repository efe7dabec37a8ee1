// Ablation: the budget/stopping rule (DESIGN.md Sec. 4, item 2). Compares
// Algorithm 2 under the reliability-target stop (default; matches the
// paper's stated goal) against the literally printed rule "stop once the
// accumulated Eq. (3) cost reaches C = -ln rho". Eq. (3) costs grow with k,
// so the literal rule stops far earlier and leaves reliability on the table.
#include "fig_common.h"

#include "core/heuristic_matching.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"trials", "seed", "threads"});

  bench::FigureConfig config;
  config.title = "Ablation: reliability-target stop vs literal Eq.(3) "
                 "cost budget (Algorithm 2)";
  config.x_name = "SFC length";

  // Custom algorithm set: the same heuristic under both budget modes.
  // run_figure always runs the paper trio, so this bench drives run_trials
  // directly with two tailored specs.
  sim::RunConfig run_config;
  run_config.trials = static_cast<std::size_t>(
      args.get_int("trials",
                   static_cast<std::int64_t>(sim::trials_from_env(20))));
  run_config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20200817));
  run_config.threads = static_cast<std::size_t>(args.get_int("threads", 0));

  std::vector<sim::AlgorithmSpec> specs;
  specs.push_back({"Heuristic(target)",
                   [](const core::BmcgapInstance& inst,
                      const core::AugmentOptions& opt) {
                     core::AugmentOptions o = opt;
                     o.budget_mode = core::BudgetMode::kReliabilityTarget;
                     return core::augment_heuristic(inst, o);
                   }});
  specs.push_back({"Heuristic(literal-C)",
                   [](const core::BmcgapInstance& inst,
                      const core::AugmentOptions& opt) {
                     core::AugmentOptions o = opt;
                     o.budget_mode = core::BudgetMode::kLiteralCostBudget;
                     return core::augment_heuristic(inst, o);
                   }});

  std::cout << "=== " << config.title << " ===\n"
            << "trials per point: " << run_config.trials << "\n\n";

  std::vector<sim::SweepPoint> sweep;
  for (std::size_t len : {4u, 8u, 12u, 16u, 20u}) {
    sim::ScenarioParams params;
    params.request.chain_length_low = len;
    params.request.chain_length_high = len;
    sweep.push_back(sim::SweepPoint{
        std::to_string(len), sim::run_trials(params, run_config, specs)});
  }

  std::cout << "--- achieved SFC reliability ---\n";
  sim::reliability_table(config.x_name, sweep).print(std::cout);

  std::cout << "\n--- backups placed (mean) ---\n";
  util::Table placed({config.x_name, "target", "literal-C"});
  for (const auto& pt : sweep) {
    placed.add_row(
        {pt.x_label,
         util::fmt(pt.run.aggregates.at("Heuristic(target)").placements.mean(), 2),
         util::fmt(
             pt.run.aggregates.at("Heuristic(literal-C)").placements.mean(),
             2)});
  }
  placed.print(std::cout);

  std::cout << "\n--- trials reaching rho ---\n";
  util::Table met({config.x_name, "target", "literal-C"});
  for (const auto& pt : sweep) {
    const auto& a = pt.run.aggregates.at("Heuristic(target)");
    const auto& b = pt.run.aggregates.at("Heuristic(literal-C)");
    met.add_row({pt.x_label,
                 std::to_string(a.expectation_met) + "/" +
                     std::to_string(a.trials),
                 std::to_string(b.expectation_met) + "/" +
                     std::to_string(b.trials)});
  }
  met.print(std::cout);
  return 0;
}
