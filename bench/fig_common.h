// Shared driver for the figure-reproduction benches. Each bench declares a
// sweep (x-axis label + ScenarioParams per point), and the driver runs the
// paper's three algorithms over MECRA_TRIALS seeded trials per point and
// prints the three panels every figure in the paper carries:
//   (a) achieved SFC reliability per algorithm,
//   (b) capacity usage ratio (avg/min/max) of the Randomized algorithm,
//   (c) mean running time per algorithm,
// plus the reliability ratio vs the ILP that the paper quotes in the text.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "sim/report.h"
#include "sim/runner.h"
#include "util/cli.h"
#include "util/timer.h"

namespace mecra::bench {

/// The options run_figure reads, for the figure drivers' CliArgs.
inline const std::vector<std::string> kFigureKeys = {
    "trials", "seed", "threads", "ilp-time-limit", "trim", "csv"};

struct FigureSweepPoint {
  std::string label;
  sim::ScenarioParams params;
};

struct FigureConfig {
  std::string title;
  std::string x_name;
  std::size_t default_trials = 20;
  bool include_greedy = false;
};

inline int run_figure(const FigureConfig& config,
                      const std::vector<FigureSweepPoint>& points,
                      const util::CliArgs& args) {
  sim::RunConfig run_config;
  run_config.trials = static_cast<std::size_t>(args.get_int(
      "trials",
      static_cast<std::int64_t>(sim::trials_from_env(config.default_trials))));
  run_config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20200817));
  run_config.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  run_config.augment.ilp.time_limit_seconds =
      args.get_double("ilp-time-limit", 2.0);
  run_config.augment.trim_to_expectation = args.get_bool("trim", true);

  const auto specs = sim::paper_algorithms(config.include_greedy);

  std::cout << "=== " << config.title << " ===\n"
            << "trials per point: " << run_config.trials
            << "  (override with --trials or MECRA_TRIALS)\n"
            << "seed: " << run_config.seed
            << "  ILP time limit: "
            << run_config.augment.ilp.time_limit_seconds << "s\n\n";

  util::Timer total;
  std::vector<sim::SweepPoint> sweep;
  sweep.reserve(points.size());
  for (const auto& point : points) {
    util::Timer point_timer;
    sweep.push_back(sim::SweepPoint{
        point.label, sim::run_trials(point.params, run_config, specs)});
    std::cout << "[" << config.x_name << " = " << point.label << "] done in "
              << util::fmt(point_timer.elapsed_seconds(), 1) << "s";
    if (sweep.back().run.failed_scenarios > 0) {
      std::cout << "  (" << sweep.back().run.failed_scenarios
                << " trials could not admit primaries and were skipped)";
    }
    std::cout << "\n";
  }
  std::cout << "\n";

  std::cout << "--- panel (a): achieved SFC reliability ---\n";
  sim::reliability_table(config.x_name, sweep).print(std::cout);
  std::cout << "\nreliability relative to the ILP (paper quotes these):\n";
  sim::ratio_to_first_table(config.x_name, sweep).print(std::cout);

  std::cout << "\n--- panel (b): computing capacity usage ratio, "
               "algorithm Randomized ---\n";
  sim::usage_table(config.x_name, sweep, "Randomized").print(std::cout);

  std::cout << "\n--- panel (c): running time ---\n";
  sim::runtime_table(config.x_name, sweep).print(std::cout);

  if (args.has("csv")) {
    const std::string stem = args.get("csv", "figure");
    sim::reliability_table(config.x_name, sweep)
        .write_csv(stem + "_reliability.csv");
    sim::usage_table(config.x_name, sweep, "Randomized")
        .write_csv(stem + "_usage.csv");
    sim::runtime_table(config.x_name, sweep).write_csv(stem + "_runtime.csv");
    std::cout << "\nCSV written to " << stem << "_*.csv\n";
  }

  std::cout << "\ntotal wall time: " << util::fmt(total.elapsed_seconds(), 1)
            << "s\n";
  return 0;
}

}  // namespace mecra::bench
