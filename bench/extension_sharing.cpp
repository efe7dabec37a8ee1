// Extension bench: shared vs dedicated backups ([18]-style sharing). For
// growing batches of simultaneously admitted requests, compares the
// capacity consumed and the expectations met by (a) the paper's dedicated
// per-request heuristic and (b) the shared-backup greedy planner.
#include <iostream>

#include "core/heuristic_matching.h"
#include "core/shared_backup.h"
#include "graph/topology.h"
#include "mec/request.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20200817));

  std::cout << "=== Shared vs dedicated backups (extension; cf. [18]) ===\n"
            << "100 APs, 10 cloudlets, full residual, rho = 0.99\n\n";

  util::Table table({"batch size", "dedicated MHz", "shared MHz", "saving",
                     "dedicated met", "shared met"});
  for (std::size_t batch : {2u, 4u, 8u, 16u, 32u}) {
    util::Rng rng(util::derive_seed(seed, batch));
    graph::WaxmanParams wax;
    wax.num_nodes = 100;
    auto topo = graph::waxman(wax, rng);
    auto network = mec::MecNetwork::random(std::move(topo.graph), {}, rng);
    const auto catalog = mec::VnfCatalog::random({}, rng);

    // Admit the batch (primaries consume capacity as usual).
    std::vector<core::AdmittedRequest> admitted;
    for (std::size_t j = 0; j < batch; ++j) {
      mec::RequestParams rp;
      const auto request = mec::random_request(j, catalog,
                                               network.num_nodes(), rp, rng);
      auto primaries =
          admission::random_admission(network, catalog, request, rng);
      if (primaries.has_value()) {
        admitted.push_back(core::AdmittedRequest{request, *primaries});
      }
    }

    // Dedicated: sequential per-request heuristic augmentation.
    double dedicated_capacity = 0.0;
    std::size_t dedicated_met = 0;
    {
      auto net = network;
      for (const auto& adm : admitted) {
        const auto inst =
            core::build_bmcgap(net, catalog, adm.request, adm.primaries, {});
        const auto r = core::augment_heuristic(inst);
        core::apply_placements(net, inst, r);
        for (const auto& p : r.placements) {
          dedicated_capacity += inst.functions[p.chain_pos].demand;
        }
        if (r.expectation_met) ++dedicated_met;
      }
    }

    // Shared planning over the whole batch.
    const auto plan = core::plan_shared_backups(network, catalog, admitted, {});

    const double saving =
        dedicated_capacity <= 0.0
            ? 0.0
            : 1.0 - plan.capacity_consumed / dedicated_capacity;
    table.add_row({std::to_string(admitted.size()),
                   util::fmt(dedicated_capacity, 0),
                   util::fmt(plan.capacity_consumed, 0),
                   util::fmt_pct(saving, 1),
                   std::to_string(dedicated_met) + "/" +
                       std::to_string(admitted.size()),
                   std::to_string(plan.num_met) + "/" +
                       std::to_string(admitted.size())});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: savings grow with batch size as more "
               "requests share function types and neighborhoods.\n";
  return 0;
}
