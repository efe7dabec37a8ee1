// SFC requests (Section 3.1): an ordered chain of function types plus a
// reliability expectation rho_j, with the AP endpoints the request's data
// traffic enters and leaves through.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "mec/vnf.h"
#include "util/check.h"
#include "util/rng.h"

namespace mecra::mec {

using RequestId = std::uint64_t;

struct SfcRequest {
  RequestId id = 0;
  /// Ordered chain SFC_j = f_1, ..., f_{L_j} (ids into the catalog).
  std::vector<FunctionId> chain;
  /// Reliability expectation rho_j in (0, 1].
  double expectation = 0.99;
  /// Ingress / egress APs (s_j, t_j); used by the DAG admission framework.
  graph::NodeId source = 0;
  graph::NodeId destination = 0;

  [[nodiscard]] std::size_t length() const noexcept { return chain.size(); }

  friend bool operator==(const SfcRequest&, const SfcRequest&) = default;
};

struct RequestParams {
  std::size_t chain_length_low = 3;   // paper Sec. 7.1: |SFC_j| in [3, 10]
  std::size_t chain_length_high = 10;
  double expectation = 0.99;
  /// When true, all functions in one chain are distinct (the paper's SFCs
  /// consist of different network functions).
  bool distinct_functions = true;
};

/// Draws a random request: chain length uniform in the configured range,
/// functions drawn from the catalog (without replacement when
/// distinct_functions and the catalog is large enough), endpoints uniform.
[[nodiscard]] SfcRequest random_request(RequestId id,
                                        const VnfCatalog& catalog,
                                        std::size_t num_nodes,
                                        const RequestParams& params,
                                        util::Rng& rng);

}  // namespace mecra::mec
