// Ablation: does Algorithm 2's per-round min-cost maximum MATCHING beat a
// globally greedy cheapest-item placement? Runs the paper's three
// algorithms plus the Greedy baseline on the Figure 1 sweep.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, bench::kFigureKeys);

  bench::FigureConfig config;
  config.title = "Ablation: matching heuristic vs greedy baseline";
  config.x_name = "SFC length";
  config.include_greedy = true;
  config.default_trials = 15;

  std::vector<bench::FigureSweepPoint> points;
  for (std::size_t len : {4u, 8u, 12u, 16u, 20u}) {
    sim::ScenarioParams params;
    params.request.chain_length_low = len;
    params.request.chain_length_high = len;
    points.push_back({std::to_string(len), params});
  }
  return bench::run_figure(config, points, args);
}
