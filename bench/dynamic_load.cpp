// Extension bench: the dynamic regime of [12, 13] — Poisson arrivals with
// exponential holding times on one MEC network. Sweeps the offered load
// (arrival rate x mean holding time / network capacity proxy) and reports
// admission, expectation attainment, and utilization under the matching
// heuristic, with per-event admission (sim::AdmissionMode::kPerEvent).
#include <iostream>

#include "graph/topology.h"
#include "sim/simulate.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"seed", "horizon"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20200817));
  const double horizon = args.get_double("horizon", 150.0);

  util::Rng rng(seed);
  graph::WaxmanParams wax;
  wax.num_nodes = 100;
  auto topo = graph::waxman(wax, rng);
  const auto network = mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  const auto catalog = mec::VnfCatalog::random({}, rng);

  std::cout << "=== Dynamic load sweep (extension; cf. [12,13]) ===\n"
            << "network: " << network.num_nodes() << " APs, "
            << network.cloudlets().size() << " cloudlets, horizon "
            << horizon << ", mean holding 10\n\n";

  util::Table table({"arrival rate", "arrivals", "blocked", "met rho",
                     "mean reliability", "avg util", "peak util"});
  for (double rate : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    sim::SimConfig config;
    config.arrival_rate = rate;
    config.mean_holding_time = 10.0;
    config.horizon = horizon;
    const auto m = sim::simulate(network, catalog, config, seed);
    const double met_frac =
        m.admitted == 0 ? 0.0
                        : static_cast<double>(m.met_expectation) /
                              static_cast<double>(m.admitted);
    table.add_row({util::fmt(rate, 2), std::to_string(m.arrivals),
                   std::to_string(m.rejected), util::fmt_pct(met_frac, 1),
                   util::fmt(m.mean_achieved_reliability, 4),
                   util::fmt_pct(m.time_avg_utilization, 1),
                   util::fmt_pct(m.peak_utilization, 1)});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: blocking and utilization rise with load; "
               "the met-rho fraction collapses once backups no longer fit.\n";
  return 0;
}
