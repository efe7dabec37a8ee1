// Output checks shared by the orchestrator workloads.
#pragma once

#include <string>
#include <vector>

#include "mec/network.h"
#include "orchestrator/orchestrator.h"

namespace perfbench {

/// Every node's residual capacity, in node order.
[[nodiscard]] std::vector<double> residuals(const mecra::mec::MecNetwork& net);

/// True when both residual vectors hold the same bits, node for node;
/// otherwise `why` names the first differing node.
[[nodiscard]] bool bit_equal(const std::vector<double>& a,
                             const std::vector<double>& b, std::string& why);

/// True when both orchestrators hold the same live services (ids, chains,
/// instance ids, cloudlets, roles and states), the same id counters and
/// bit-equal residuals.
[[nodiscard]] bool same_state(const mecra::orchestrator::Orchestrator& a,
                              const mecra::orchestrator::Orchestrator& b,
                              std::string& why);

}  // namespace perfbench
