// Figure 1 reproduction: performance of ILP, Randomized, and Heuristic
// while the SFC length of the request grows from 2 to 20 (Sec. 7.2,
// Fig. 1(a)-(c)). Default setting: 100 APs, 10 cloudlets, residual 25%,
// function reliability drawn from [0.8, 0.9], l = 1.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, bench::kFigureKeys);

  bench::FigureConfig config;
  config.title =
      "Figure 1: varying the SFC length of a request from 2 to 20";
  config.x_name = "SFC length";

  std::vector<bench::FigureSweepPoint> points;
  for (std::size_t len = 2; len <= 20; len += 2) {
    sim::ScenarioParams params;  // paper defaults
    params.request.chain_length_low = len;
    params.request.chain_length_high = len;
    points.push_back({std::to_string(len), params});
  }
  return bench::run_figure(config, points, args);
}
