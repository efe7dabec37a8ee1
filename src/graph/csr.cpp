#include "graph/csr.h"

#include <algorithm>

namespace mecra::graph {

CsrGraph CsrGraph::build(const Graph& g) {
  CsrGraph csr;
  const std::size_t n = g.num_nodes();
  csr.offsets_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    csr.offsets_[v + 1] = csr.offsets_[v] + g.degree(v);
  }
  csr.neighbors_.resize(csr.offsets_[n]);
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    std::copy(nbrs.begin(), nbrs.end(),
              csr.neighbors_.begin() +
                  static_cast<std::ptrdiff_t>(csr.offsets_[v]));
  }
  return csr;
}

}  // namespace mecra::graph
