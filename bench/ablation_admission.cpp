// Ablation: admission policy. The paper's experiments place primaries
// uniformly at random; Section 4.1 describes a max-reliability layered-DAG
// admission (after ref. [15]). This bench compares both as the substrate
// under the same augmentation algorithms.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, bench::kFigureKeys);

  bench::FigureConfig config;
  config.title = "Ablation: random primary placement (paper experiments) "
                 "vs Sec. 4.1 DAG admission";
  config.x_name = "admission";
  config.default_trials = 20;

  std::vector<bench::FigureSweepPoint> points;
  {
    sim::ScenarioParams params;
    params.dag_admission = false;
    points.push_back({"random", params});
  }
  {
    sim::ScenarioParams params;
    params.dag_admission = true;
    points.push_back({"dag", params});
  }
  return bench::run_figure(config, points, args);
}
