// Reproducibility workflow: run an experiment, archive everything (network
// state, catalog, request, primaries, results) as JSON, reload it, and
// verify the stored solution replays bit-identically. The archive file is
// the artifact you attach to a paper or bug report.
//
//   ./archive_replay [--seed=N] [--path=FILE] [--keep]
#include <cstdio>
#include <iostream>

#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/validator.h"
#include "io/scenario_io.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"path", "seed", "keep"});
  const std::string path = args.get("path", "/tmp/mecra_archive.json");

  // --- run ---
  sim::ScenarioParams params;
  params.request.chain_length_low = 6;
  params.request.chain_length_high = 6;
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1234)));
  auto scenario = sim::make_scenario(params, rng);
  if (!scenario.has_value()) {
    std::cerr << "admission failed\n";
    return 1;
  }
  const auto ilp = core::augment_ilp(scenario->instance);
  const auto heuristic = core::augment_heuristic(scenario->instance);

  // --- archive ---
  io::ScenarioArchive archive{scenario->network, scenario->catalog,
                              scenario->request, scenario->primaries,
                              {ilp, heuristic}};
  io::save_archive(archive, path);
  std::cout << "archived scenario + " << archive.results.size()
            << " results to " << path << "\n";

  // --- reload & verify ---
  const auto loaded = io::load_archive(path);
  const auto instance =
      core::build_bmcgap(loaded.network, loaded.catalog, loaded.request,
                         loaded.primaries, {});
  util::Table table({"stored result", "reliability", "validates",
                     "replays identically"});
  for (const auto& stored : loaded.results) {
    const bool valid = core::validate(instance, stored).feasible;
    bool identical = false;
    if (stored.algorithm == "Heuristic") {
      identical =
          core::augment_heuristic(instance).placements == stored.placements;
    } else if (stored.algorithm == "ILP") {
      identical = core::augment_ilp(instance).placements == stored.placements;
    }
    table.add_row({stored.algorithm,
                   util::fmt(stored.achieved_reliability, 4),
                   valid ? "yes" : "NO", identical ? "yes" : "NO"});
  }
  table.print(std::cout);

  if (!args.get_bool("keep", false)) {
    std::remove(path.c_str());
    std::cout << "\n(archive removed; pass --keep to retain it)\n";
  }
  return 0;
}
