// Batch admission with reliability augmentation under all three paper
// algorithms side by side: the SAME request sequence is replayed against
// three copies of one network, showing how the algorithms' placement
// choices compound over time (capacity violations of the randomized
// algorithm accumulate; the heuristic stays feasible).
//
//   ./batch_admission [--seed=N] [--requests=N]
#include <functional>
#include <iostream>

#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/randomized_rounding.h"
#include "graph/topology.h"
#include "mec/request.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace mecra;

struct Track {
  std::string name;
  std::function<core::AugmentationResult(const core::BmcgapInstance&,
                                         const core::AugmentOptions&)>
      run;
  mec::MecNetwork network;
  std::size_t admitted = 0;
  std::size_t met = 0;
  std::size_t backups = 0;
  double min_residual_ratio = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv, {"seed", "requests"});
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 5)));
  const auto num_requests =
      static_cast<std::size_t>(args.get_int("requests", 25));

  graph::WaxmanParams wax;
  wax.num_nodes = 100;
  auto topo = graph::waxman(wax, rng);
  const auto base_network =
      mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  const auto catalog = mec::VnfCatalog::random({}, rng);

  std::vector<Track> tracks;
  tracks.push_back({"ILP", core::augment_ilp, base_network, 0, 0, 0, 1.0});
  tracks.push_back({"Randomized", core::augment_randomized, base_network, 0,
                    0, 0, 1.0});
  tracks.push_back({"Heuristic", core::augment_heuristic, base_network, 0, 0,
                    0, 1.0});

  core::AugmentOptions opt;
  opt.ilp.time_limit_seconds = 2.0;

  for (std::size_t i = 0; i < num_requests; ++i) {
    // One request draw, replayed identically on every track.
    util::Rng req_rng = rng.child(i);
    mec::RequestParams rp;
    const auto request = mec::random_request(
        i, catalog, base_network.num_nodes(), rp, req_rng);

    for (Track& track : tracks) {
      util::Rng adm_rng = req_rng;  // identical admission draw per track
      auto primaries = admission::random_admission(track.network, catalog,
                                                   request, adm_rng);
      if (!primaries.has_value()) continue;
      ++track.admitted;
      const auto instance = core::build_bmcgap(track.network, catalog,
                                               request, *primaries, {});
      opt.seed = util::derive_seed(5, i);
      const auto result = track.run(instance, opt);
      core::apply_placements(track.network, instance, result,
                             /*allow_violation=*/true);
      if (result.expectation_met) ++track.met;
      track.backups += result.placements.size();
      for (graph::NodeId v : track.network.cloudlets()) {
        track.min_residual_ratio =
            std::min(track.min_residual_ratio,
                     track.network.residual(v) / track.network.capacity(v));
      }
    }
  }

  util::Table table({"algorithm", "admitted", "met rho", "backups placed",
                     "total residual", "worst cloudlet headroom"});
  for (const Track& track : tracks) {
    table.add_row({track.name, std::to_string(track.admitted),
                   std::to_string(track.met), std::to_string(track.backups),
                   util::fmt(track.network.total_residual(), 0) + " MHz",
                   util::fmt_pct(track.min_residual_ratio, 1)});
  }
  std::cout << "replayed " << num_requests
            << " identical requests against three copies of one network\n\n";
  table.print(std::cout);
  std::cout << "\nnegative headroom = capacity violation debt accumulated "
               "by randomized rounding.\n";
  return 0;
}
