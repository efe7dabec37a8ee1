// Figure 2 reproduction: performance while the per-function reliability is
// drawn from [0.55, 0.65), [0.65, 0.75), [0.75, 0.85), and [0.85, 0.95]
// (Sec. 7.2, Fig. 2(a)-(c)). Other parameters stay at the paper defaults
// (SFC length in [3, 10], residual 25%, l = 1).
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, bench::kFigureKeys);

  bench::FigureConfig config;
  config.title =
      "Figure 2: varying the network function reliability from 0.6 to 0.9";
  config.x_name = "reliability";

  std::vector<bench::FigureSweepPoint> points;
  for (double mid : {0.6, 0.7, 0.8, 0.9}) {
    sim::ScenarioParams params;
    params.catalog.reliability_low = mid - 0.05;
    params.catalog.reliability_high = mid + 0.05;
    points.push_back({util::fmt(mid, 1), params});
  }
  return bench::run_figure(config, points, args);
}
