// Seeded traffic of the orchestrator workloads: Poisson arrivals with the
// benchmark's own holding-time and re-admit draws, and the lifecycle events
// admissions schedule from them.
#pragma once

#include <cstdint>
#include <vector>

#include "mec/request.h"
#include "mec/vnf.h"

namespace perfbench {

struct Arrival {
  double time = 0.0;
  mecra::mec::SfcRequest request;
  double hold = 0.0;     // holding time of the first incarnation
  bool readmit = false;  // re-admitted once when `hold` expires
  double hold2 = 0.0;    // holding time of the re-admitted incarnation
};

/// Poisson arrivals at `rate` per second of event time over [0, horizon):
/// chains of 4 distinct functions with expectation 0.95, exponential
/// holding with a mean of 1 s, and 10 % of services re-admitted once.
/// Deterministic in `seed`.
[[nodiscard]] std::vector<Arrival> make_traffic(
    const mecra::mec::VnfCatalog& catalog, std::size_t num_nodes, double rate,
    double horizon, std::uint64_t seed);

/// The departure or re-admission that admitting `service` for arrival
/// `arrival` scheduled.
struct Pending {
  double time = 0.0;
  std::uint64_t service = 0;
  std::size_t arrival = 0;
  bool readmit = false;
};

/// Min-heap order: earliest first, ties by service id.
struct Later {
  bool operator()(const Pending& a, const Pending& b) const {
    return a.time != b.time ? a.time > b.time : a.service > b.service;
  }
};

}  // namespace perfbench
