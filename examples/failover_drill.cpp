// Failover drill: the runtime story behind the paper's backup placement.
// Several services are admitted and augmented; a cloudlet is then taken
// down. The orchestrator promotes standbys (nearest-first, honoring the
// l-hop state-transfer bound), the operator repairs the cloudlet, and
// every service is re-augmented back to its expectation.
//
//   ./failover_drill [--seed=N] [--services=N]
#include <iostream>

#include "graph/topology.h"
#include "mec/request.h"
#include "orchestrator/orchestrator.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

const char* state_name(mecra::orchestrator::ServiceState s) {
  using mecra::orchestrator::ServiceState;
  switch (s) {
    case ServiceState::kHealthy: return "healthy";
    case ServiceState::kDegraded: return "degraded";
    case ServiceState::kDown: return "DOWN";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"seed", "services"});
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 404)));
  const auto num_services =
      static_cast<std::size_t>(args.get_int("services", 8));

  graph::WaxmanParams wax;
  wax.num_nodes = 100;
  auto topo = graph::waxman(wax, rng);
  auto network = mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  auto catalog = mec::VnfCatalog::random({}, rng);
  orchestrator::Orchestrator orch(std::move(network), std::move(catalog), {});

  std::vector<orchestrator::ServiceId> ids;
  for (std::size_t i = 0; i < num_services; ++i) {
    mec::RequestParams rp;
    const auto request = mec::random_request(i, orch.catalog(),
                                             orch.network().num_nodes(), rp,
                                             rng);
    if (auto id = orch.admit(request, rng)) ids.push_back(*id);
  }
  std::cout << "admitted " << ids.size() << "/" << num_services
            << " services with backups\n";

  auto snapshot = [&](const char* phase) {
    util::Table table({"service", "state", "reliability", "instances",
                       "failed"});
    for (auto id : ids) {
      const auto& svc = orch.service(id);
      std::size_t failed = 0;
      for (const auto& inst : svc.instances) {
        if (inst.state == orchestrator::InstanceState::kFailed) ++failed;
      }
      table.add_row({std::to_string(id), state_name(svc.state),
                     util::fmt(svc.current_reliability(orch.catalog()), 4),
                     std::to_string(svc.instances.size()),
                     std::to_string(failed)});
    }
    std::cout << "\n--- " << phase << " ---\n";
    table.print(std::cout);
  };
  snapshot("after admission");

  // Take down the busiest cloudlet.
  graph::NodeId victim = orch.network().cloudlets().front();
  for (graph::NodeId v : orch.network().cloudlets()) {
    if (orch.network().used(v) > orch.network().used(victim)) victim = v;
  }
  std::cout << "\n*** cloudlet " << victim << " fails ("
            << util::fmt(orch.network().used(victim), 0)
            << " MHz of instances on it) ***\n";
  orch.fail_cloudlet(victim);
  snapshot("after the outage (standbys promoted where possible)");

  orch.repair_cloudlet(victim);
  std::size_t added = 0;
  for (auto id : ids) added += orch.reaugment(id);
  std::cout << "\n*** cloudlet repaired; re-augmentation placed " << added
            << " fresh standbys ***\n";
  snapshot("after repair + re-augmentation");
  return 0;
}
