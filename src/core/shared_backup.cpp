#include "core/shared_backup.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"
#include "util/check.h"

namespace mecra::core {

namespace {

/// A request chain position that a shared instance of (function, cloudlet)
/// could serve.
struct ServedSlot {
  std::size_t request_index;
  std::size_t chain_pos;
};

}  // namespace

SharedPlan plan_shared_backups(const mec::MecNetwork& network,
                               const mec::VnfCatalog& catalog,
                               std::span<const AdmittedRequest> admitted,
                               const SharedBackupOptions& options) {
  MECRA_CHECK(options.l_hops >= 1);

  SharedPlan plan;
  plan.initial_reliability.reserve(admitted.size());
  plan.achieved_reliability.reserve(admitted.size());

  // fail[j][p]: probability that every instance serving request j's chain
  // position p fails; starts with the primary alone.
  std::vector<std::vector<double>> fail(admitted.size());
  std::vector<double> ln_u(admitted.size(), 0.0);
  std::vector<double> ln_target(admitted.size(), 0.0);
  for (std::size_t j = 0; j < admitted.size(); ++j) {
    const auto& adm = admitted[j];
    MECRA_CHECK_MSG(adm.primaries.length() == adm.request.length(),
                    "primaries must cover the whole chain");
    fail[j].resize(adm.request.length());
    for (std::size_t p = 0; p < adm.request.length(); ++p) {
      MECRA_CHECK_MSG(network.is_cloudlet(adm.primaries.cloudlet_of[p]),
                      "a primary instance must sit on a cloudlet");
      const double r = catalog.function(adm.request.chain[p]).reliability;
      fail[j][p] = 1.0 - r;
      ln_u[j] += std::log(std::max(1e-300, r));
    }
    ln_target[j] = std::log(adm.request.expectation);
    plan.initial_reliability.push_back(std::exp(ln_u[j]));
  }

  // Candidate universe: (function f, cloudlet u) pairs with the slots each
  // would serve (u within l hops of the slot's primary).
  struct Candidate {
    mec::FunctionId function;
    graph::NodeId cloudlet;
    std::vector<ServedSlot> slots;
  };
  std::vector<Candidate> candidates;
  {
    // A primary is served by cloudlet u exactly when it lies within l hops
    // of u, i.e. in N_l^+(u). Primaries sit on cloudlets (checked above),
    // so the cloudlets of that ball answer the same membership test; the
    // list is sorted, so each test is one binary search.
    for (const graph::NodeId u : network.cloudlets()) {
      const auto ball = network.cloudlets_within(u, options.l_hops);
      std::vector<std::vector<ServedSlot>> by_function(catalog.size());
      for (std::size_t j = 0; j < admitted.size(); ++j) {
        const auto& adm = admitted[j];
        for (std::size_t p = 0; p < adm.request.length(); ++p) {
          const graph::NodeId primary = adm.primaries.cloudlet_of[p];
          if (std::binary_search(ball.begin(), ball.end(), primary)) {
            by_function[adm.request.chain[p]].push_back(ServedSlot{j, p});
          }
        }
      }
      for (mec::FunctionId f = 0; f < catalog.size(); ++f) {
        if (!by_function[f].empty()) {
          candidates.push_back(
              Candidate{f, u, std::move(by_function[f])});
        }
      }
    }
  }

  std::vector<double> residual(network.num_nodes());
  for (graph::NodeId v : network.cloudlets()) residual[v] = network.residual(v);

  // Greedy: place the candidate with the largest total capped gain.
  for (;;) {
    if (options.max_instances != 0 &&
        plan.instances.size() >= options.max_instances) {
      break;
    }
    double best_gain = 0.0;
    const Candidate* best = nullptr;
    for (const Candidate& cand : candidates) {
      const auto& fn = catalog.function(cand.function);
      if (residual[cand.cloudlet] < fn.cpu_demand) continue;
      double gain = 0.0;
      for (const ServedSlot& slot : cand.slots) {
        if (options.cap_at_expectation &&
            ln_u[slot.request_index] >= ln_target[slot.request_index]) {
          continue;  // this request is already satisfied
        }
        const double old_fail = fail[slot.request_index][slot.chain_pos];
        const double new_fail = old_fail * (1.0 - fn.reliability);
        double delta = std::log(1.0 - new_fail) - std::log(1.0 - old_fail);
        if (options.cap_at_expectation) {
          // Only gains up to the expectation count (paper semantics).
          delta = std::min(delta, ln_target[slot.request_index] -
                                      ln_u[slot.request_index]);
        }
        gain += delta;
      }
      if (gain > best_gain + 1e-15) {
        best_gain = gain;
        best = &cand;
      }
    }
    if (best == nullptr || best_gain <= 1e-12) break;

    const auto& fn = catalog.function(best->function);
    residual[best->cloudlet] -= fn.cpu_demand;
    plan.capacity_consumed += fn.cpu_demand;
    plan.instances.push_back(SharedInstance{best->function, best->cloudlet});
    for (const ServedSlot& slot : best->slots) {
      const double old_fail = fail[slot.request_index][slot.chain_pos];
      const double new_fail = old_fail * (1.0 - fn.reliability);
      ln_u[slot.request_index] +=
          std::log(1.0 - new_fail) - std::log(1.0 - old_fail);
      fail[slot.request_index][slot.chain_pos] = new_fail;
    }
  }

  plan.achieved_reliability.resize(admitted.size());
  plan.expectation_met.resize(admitted.size());
  for (std::size_t j = 0; j < admitted.size(); ++j) {
    plan.achieved_reliability[j] = std::exp(ln_u[j]);
    const bool met =
        plan.achieved_reliability[j] >=
        admitted[j].request.expectation - 1e-12;
    plan.expectation_met[j] = met;
    if (met) ++plan.num_met;
  }
  return plan;
}

void apply_shared_plan(mec::MecNetwork& network, const mec::VnfCatalog& catalog,
                       const SharedPlan& plan) {
  for (const SharedInstance& inst : plan.instances) {
    network.consume(inst.cloudlet, catalog.function(inst.function).cpu_demand);
  }
}

}  // namespace mecra::core
