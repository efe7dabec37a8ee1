// Figure 3 reproduction: performance while the ratio of residual computing
// capacity per cloudlet varies over 1/16, 1/8, 1/4, 1/2, 1 (Sec. 7.2,
// Fig. 3(a)-(c)). Other parameters stay at the paper defaults.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, bench::kFigureKeys);

  bench::FigureConfig config;
  config.title =
      "Figure 3: varying the residual computing capacity from 1/16 to 1";
  config.x_name = "residual";

  std::vector<bench::FigureSweepPoint> points;
  const std::pair<const char*, double> fractions[] = {
      {"1/16", 1.0 / 16}, {"1/8", 1.0 / 8}, {"1/4", 1.0 / 4},
      {"1/2", 1.0 / 2},   {"1", 1.0},
  };
  for (const auto& [label, fraction] : fractions) {
    sim::ScenarioParams params;
    params.residual_fraction = fraction;
    points.push_back({label, params});
  }
  return bench::run_figure(config, points, args);
}
