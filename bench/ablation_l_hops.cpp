// Ablation: the hop radius l (Sec. 3.2 motivates l as the knob trading
// secondary-state update latency for placement freedom). The paper fixes
// l = 1 in its experiments; this bench quantifies what l = 2, 3 would buy.
#include "fig_common.h"

#include "core/heuristic_matching.h"
#include "core/latency.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, bench::kFigureKeys);

  bench::FigureConfig config;
  config.title = "Ablation: hop radius l for secondary placement (paper "
                 "fixes l = 1)";
  config.x_name = "l";

  std::vector<bench::FigureSweepPoint> points;
  for (std::uint32_t l : {1u, 2u, 3u}) {
    sim::ScenarioParams params;
    params.bmcgap.l_hops = l;
    points.push_back({std::to_string(l), params});
  }
  const int rc = bench::run_figure(config, points, args);
  if (rc != 0) return rc;

  // The other side of the l tradeoff (Sec. 3.2): how far the secondaries'
  // state updates have to travel.
  std::cout << "\n--- state-update latency of the heuristic's placements ---\n";
  util::Table latency({"l", "avg hops", "max hops", "co-located"});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 10));
  for (std::uint32_t l : {1u, 2u, 3u}) {
    util::Accumulator avg;
    std::uint32_t worst = 0;
    util::Accumulator colocated;
    for (std::size_t t = 0; t < trials; ++t) {
      sim::ScenarioParams params;
      params.bmcgap.l_hops = l;
      util::Rng rng(util::derive_seed(20200817, 7000 + t));
      auto scenario = sim::make_scenario(params, rng);
      if (!scenario.has_value()) continue;
      const auto result = core::augment_heuristic(scenario->instance);
      if (result.placements.empty()) continue;
      const auto stats = core::update_latency(scenario->network,
                                              scenario->instance, result);
      avg.add(stats.avg_hops);
      worst = std::max(worst, stats.max_hops);
      colocated.add(stats.colocated_fraction);
    }
    latency.add_row({std::to_string(l), util::fmt(avg.mean(), 2),
                     std::to_string(worst),
                     util::fmt_pct(colocated.mean(), 1)});
  }
  latency.print(std::cout);
  return 0;
}
