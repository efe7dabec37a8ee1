// Extension: sharing secondary VNF instances ACROSS requests (the
// direction of Qu et al. [18], which the paper's related work highlights).
//
// The paper augments each request with dedicated backups. When several
// admitted requests carry the same function type, one physical secondary
// instance of f at cloudlet u can serve every request whose primary of f
// lies within l hops of u — consuming c(f) capacity once instead of once
// per request. Per-request (marginal) reliability is still computed with
// Eq. (1): the shared instance appears in each served request's instance
// group. Two standard caveats of the sharing literature apply and are
// inherited here deliberately:
//   * simultaneous failures of two primaries contending for one shared
//     backup are not modeled (the single-failure regime of [18]);
//   * per-request reliabilities are marginals; failures of a shared
//     instance are correlated across the requests it serves.
#pragma once

#include <span>
#include <vector>

#include "admission/admission.h"
#include "mec/network.h"
#include "mec/request.h"
#include "mec/vnf.h"

namespace mecra::core {

/// One admitted request: the chain plus where its primaries sit.
struct AdmittedRequest {
  mec::SfcRequest request;
  admission::PrimaryPlacement primaries;
};

/// One physical shared secondary instance.
struct SharedInstance {
  mec::FunctionId function = 0;
  graph::NodeId cloudlet = 0;
};

struct SharedPlan {
  std::vector<SharedInstance> instances;
  /// Per request: reliability before/after augmentation, expectation flag.
  std::vector<double> initial_reliability;
  std::vector<double> achieved_reliability;
  std::vector<bool> expectation_met;
  /// Total computing capacity consumed by the shared instances.
  double capacity_consumed = 0.0;
  std::size_t num_met = 0;

  [[nodiscard]] std::size_t num_instances() const noexcept {
    return instances.size();
  }
};

struct SharedBackupOptions {
  std::uint32_t l_hops = 1;
  /// Greedy stops improving a request once its expectation is reached
  /// (gains are capped there, mirroring the paper's objective).
  bool cap_at_expectation = true;
  /// Safety cap on placed instances (0 = unlimited).
  std::size_t max_instances = 0;
};

/// Greedy shared-backup planning: repeatedly places the (function,
/// cloudlet) secondary with the largest total capped ln-reliability gain
/// summed over every request it can serve, until every expectation is met,
/// nothing helps, or capacity runs out. Every primary must sit on a
/// cloudlet node. Does NOT mutate the network; apply with
/// apply_shared_plan.
[[nodiscard]] SharedPlan plan_shared_backups(
    const mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    std::span<const AdmittedRequest> admitted,
    const SharedBackupOptions& options = {});

/// Consumes the plan's capacity on the live network.
void apply_shared_plan(mec::MecNetwork& network, const mec::VnfCatalog& catalog,
                       const SharedPlan& plan);

}  // namespace mecra::core
